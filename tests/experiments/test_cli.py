"""Tests for the command-line interface."""

import pytest

import repro.experiments.__main__ as cli
from repro.campaign.executors import SerialExecutor
from repro.campaign.resilience import RetryPolicy
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.experiments.__main__ import main
from repro.experiments.figures import configs_for_targets
from repro.store import open_store

FAST_PERF_ARGS = [
    "fig8",
    "--instructions",
    "3000",
    "--warmup",
    "1000",
    "--maps",
    "2",
    "--benchmarks",
    "gzip",
]


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "fig8" in out
        assert "crafty" in out

    def test_analytical_figure(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "faulty_blocks" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "209920" in capsys.readouterr().out.replace(".0000", "")

    def test_multiple_targets(self, capsys):
        assert main(["fig5", "fig7"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "fig7" in out

    def test_all_analytical(self, capsys):
        assert main(["all-analytical"]) == 0
        out = capsys.readouterr().out
        for fig in ("fig1", "table1", "fig3", "fig4", "fig5", "fig6", "fig7"):
            assert fig in out

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_performance_figure_with_small_settings(self, capsys):
        code = main(
            [
                "fig11",
                "--instructions",
                "3000",
                "--maps",
                "2",
                "--benchmarks",
                "swim",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig11" in out
        assert "swim" in out

    def test_dry_run_prints_plan_without_simulating(self, capsys, tmp_path):
        args = [
            "fig8",
            "--instructions",
            "2000",
            "--maps",
            "2",
            "--benchmarks",
            "gzip",
            "--store",
            str(tmp_path),
            "--dry-run",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "work items : 6 (0 already in store, 6 to simulate)" in out
        assert "predicted schedule passes" in out
        # Nothing simulated: the store stayed empty.
        assert not (tmp_path / "results.jsonl").exists()

    def test_dry_run_reports_store_dedup_hits(self, capsys, tmp_path):
        args = [
            "fig8",
            "--instructions",
            "2000",
            "--maps",
            "2",
            "--benchmarks",
            "gzip",
            "--store",
            str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + ["--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "work items : 6 (6 already in store, 0 to simulate)" in out
        assert "nothing to simulate (pure store hits)" in out

    def test_dry_run_analytical_only(self, capsys):
        assert main(["fig3", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "no store-backed simulations" in out

    def test_dry_run_flags_ablation_targets(self, capsys):
        """Ablation studies bypass the campaign store; the dry-run plan
        must say so instead of claiming there is nothing to simulate."""
        assert main(["abl-l2", "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "abl-l2" in out
        assert "outside the campaign store" in out

    def test_max_retries_and_chunk_timeout_map_to_retry_policy(
        self, capsys, monkeypatch
    ):
        captured = {}

        class Recorder(SerialExecutor):
            def __init__(self, workers, retry=None):
                captured["workers"] = workers
                captured["retry"] = retry

        monkeypatch.setattr(cli, "PoolExecutor", Recorder)
        args = FAST_PERF_ARGS + [
            "--workers",
            "2",
            "--max-retries",
            "5",
            "--chunk-timeout",
            "9.5",
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert captured["workers"] == 2
        assert captured["retry"] == RetryPolicy(max_attempts=6, chunk_timeout=9.5)

    def test_max_retries_zero_disables_retries(self, capsys, monkeypatch):
        captured = {}

        class Recorder(SerialExecutor):
            def __init__(self, workers, retry=None):
                captured["retry"] = retry

        monkeypatch.setattr(cli, "PoolExecutor", Recorder)
        assert main(FAST_PERF_ARGS + ["--workers", "2", "--max-retries", "0"]) == 0
        capsys.readouterr()
        assert captured["retry"].max_attempts == 1

    def test_quarantine_exits_nonzero_with_summary(self, capsys, monkeypatch):
        # Deterministic poison on every task: the campaign must not dump
        # a traceback but report the quarantine ledger and exit 3.
        monkeypatch.setenv("REPRO_CHAOS", "poison:1.0")
        code = main(FAST_PERF_ARGS + ["--workers", "2", "--max-retries", "0"])
        monkeypatch.delenv("REPRO_CHAOS")
        assert code == 3
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "re-run the same command" in err
        assert "--max-retries" in err
        assert "Traceback" not in err

    def test_keyboard_interrupt_exits_130_with_resume_hint(
        self, capsys, monkeypatch
    ):
        class Interrupting(SerialExecutor):
            def __init__(self, workers, retry=None):
                pass

            def run(self, session, plan):
                raise KeyboardInterrupt

        monkeypatch.setattr(cli, "PoolExecutor", Interrupting)
        assert main(FAST_PERF_ARGS + ["--workers", "2"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err and "resume" in err

    def test_sequential_store_renders_identically(self, capsys, tmp_path):
        """Mega-batched figures must be byte-identical to figures read
        from a store filled by one sequential ``simulate`` per work item,
        at multi-figure scope where campaign points actually merge."""
        targets = ["fig8", "ext-incremental"]
        settings = RunnerSettings(
            n_instructions=2500,
            warmup_instructions=500,
            n_fault_maps=2,
            benchmarks=("gzip",),
        )
        args = targets + [
            "--instructions",
            "2500",
            "--warmup",
            "500",
            "--maps",
            "2",
            "--benchmarks",
            "gzip",
        ]
        assert main(args + ["--no-store"]) == 0
        mega_out = capsys.readouterr().out
        spec = CampaignSpec.from_settings(settings, configs_for_targets(targets))
        store = open_store(str(tmp_path))
        with Session(settings, store=store) as sequential:
            for benchmark, config, m in spec.work_items():
                sequential.simulate(benchmark, config, m)
        store.close()
        assert main(args + ["--store", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == mega_out
        assert "simulations executed=0" in captured.err


class TestSubcommands:
    """The subcommand dispatch: `run` (default + explicit alias),
    `serve`, `submit` — the historical figure CLI must be byte-identical
    with or without the `run` token."""

    def test_run_alias_is_byte_identical_for_dry_run(self, capsys):
        assert main(FAST_PERF_ARGS + ["--dry-run"]) == 0
        default = capsys.readouterr()
        assert main(["run"] + FAST_PERF_ARGS + ["--dry-run"]) == 0
        alias = capsys.readouterr()
        assert alias.out == default.out
        assert alias.err == default.err

    def test_run_alias_is_byte_identical_for_figures(self, capsys):
        assert main(["fig3"]) == 0
        default = capsys.readouterr().out
        assert main(["run", "fig3"]) == 0
        assert capsys.readouterr().out == default

    def test_serve_parser_shares_run_dests(self):
        args = cli._serve_parser().parse_args([])
        assert (args.host, args.port, args.workers) == ("127.0.0.1", 8631, 1)
        args = cli._serve_parser().parse_args(
            [
                "--port", "0",
                "--workers", "3",
                "--instructions", "2000",
                "--benchmarks", "gzip",
                "--no-store",
            ]
        )
        settings = cli._settings_from_args(args)
        assert settings.n_instructions == 2000
        assert settings.benchmarks == ("gzip",)
        store = cli._store_from_args(args)
        assert type(store).__name__ == "MemoryStore"

    def test_submit_spec_from_figures_matches_run_union(self):
        from repro.campaign.spec import CampaignSpec
        from repro.experiments.figures import configs_for_targets

        args = cli._submit_parser().parse_args(
            ["fig8", "--url", "http://x"] + FAST_PERF_ARGS[1:]
        )
        spec = cli._submit_spec(args)
        expected = CampaignSpec.from_settings(
            cli._settings_from_args(args), tuple(configs_for_targets(["fig8"]))
        )
        assert spec == expected

    def test_submit_spec_from_json_file(self, tmp_path):
        import json

        from repro.campaign.spec import CampaignSpec, RunnerSettings
        from repro.experiments.configs import LV_BASELINE

        spec = CampaignSpec.from_settings(
            RunnerSettings(n_instructions=1000, benchmarks=("gzip",)),
            (LV_BASELINE,),
        )
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        args = cli._submit_parser().parse_args([str(path), "--url", "http://x"])
        assert cli._submit_spec(args) == spec

    def test_submit_rejects_non_performance_targets(self, capsys):
        assert main(["submit", "fig3", "--url", "http://x"]) == 2
        assert "unknown submit targets" in capsys.readouterr().err

    def test_submit_unreachable_server_exits_2(self, capsys):
        code = main(
            ["submit", "--url", "http://127.0.0.1:9", "--timeout", "0.5"]
            + FAST_PERF_ARGS
        )
        assert code == 2
        assert "[submit]" in capsys.readouterr().err

    def test_submit_end_to_end_streams_ndjson(self, capsysbinary):
        import json

        from repro.campaign.session import Session
        from repro.campaign.spec import RunnerSettings
        from repro.service.server import ServerThread

        settings = RunnerSettings(
            n_instructions=3000,
            warmup_instructions=1000,
            n_fault_maps=2,
            benchmarks=("gzip",),
        )
        with Session(settings) as session, ServerThread(session) as server:
            code = main(["submit"] + FAST_PERF_ARGS + ["--url", server.url])
        assert code == 0
        captured = capsysbinary.readouterr()
        lines = [
            json.loads(line)
            for line in captured.out.splitlines()
            if line.strip()
        ]
        # stdout is the complete wire stream: events, then the done line
        assert lines[-1]["done"] is True
        assert lines[-1]["failures"] == 0
        kinds = [line["event"] for line in lines[:-1]]
        assert kinds[0] == "PlanReady"
        assert kinds.count("PointResult") == 6
        assert b"[submit] done: failures=0" in captured.err
        # the NDJSON event lines replay through the wire codec
        from repro.campaign.events import event_from_dict

        for line in lines[:-1]:
            event_from_dict(line)
