"""The reproduction's benchmark: one command, end to end and layer by layer.

    python3 perfbench/run.py --workload fig8-wide [--seed 2010]
                             [--seconds 30] [--trace 0|1] [--record]

Workloads (see ``workloads.py`` for why each exists): ``fig8-wide``,
``served-overlap``, ``ablations``, and ``scorecard-cold`` (by hand only).

Each iteration runs in a fresh interpreter (``worker.py``) under a
hermetic environment: every ``REPRO_*`` variable is scrubbed, ``PYTHONPATH``
names only ``src/``, and temp files, bytecode and the compiled lane kernel
live under ``.perfbench/`` in the checkout.  Untraced runs (``--trace 0``)
repeat the workload until the iterations' elapsed time, set-up included,
adds up to ``--seconds`` (at least once) and report medians of the
end-to-end metrics over the iterations.  Traced runs
(``--trace 1``) make one untraced and one traced iteration and report the
per-layer metrics of the traced one plus the tracing overhead.

Every iteration's outputs are checked: digests of the printed output and
of every ``SimResult`` must equal the committed ones in ``expected/`` for
seeds that have them (generated with ``--record``); every seed runs the
invariant checks, and its digests are printed so two commits can be
compared on a held-out seed.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DEFAULT_SEED = 2010
#: Set-up samples per run (extra set-up-only iterations fill the gap).
SETUP_SAMPLES = 3
#: Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 165.0
CALIBRATION_LOOPS = 2_000_000


def calibrate() -> float:
    """Fixed pure-Python loop score (million iterations per second)."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return CALIBRATION_LOOPS / (time.perf_counter() - start) / 1e6


def hermetic_env(bench_dir: str, tmp_dir: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONPYCACHEPREFIX=os.path.join(bench_dir, "pycache"),
        PYTHONHASHSEED="0",
        TMPDIR=tmp_dir,
        REPRO_KERNEL_CACHE=os.path.join(bench_dir, "kernel"),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fingerprint(record: dict) -> dict:
    try:
        gcc = subprocess.run(
            ["gcc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        gcc = None
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": record.get("numpy"),
        "scipy": record.get("scipy"),
        "gcc": gcc,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "lane_kernel": "compiled" if record.get("kernel_loaded") else "numpy-fallback",
    }


class Runner:
    def __init__(self, args, bench_dir: str) -> None:
        self.args = args
        self.run_dir = os.path.join(
            bench_dir, "runs", f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        tmp_dir = os.path.join(self.run_dir, "tmp")
        os.makedirs(tmp_dir, exist_ok=True)
        self.env = hermetic_env(bench_dir, tmp_dir)
        self.started = time.monotonic()
        self.count = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def child(self, mode: str, trace: int = 0) -> dict:
        """One worker process; returns its record (failures on crash)."""
        self.count += 1
        # prepare fills the pristine trace cache every later iteration copies.
        pristine = os.path.join(self.run_dir, "pristine")
        if mode == "prepare":
            workdir = pristine
        else:
            workdir = os.path.join(self.run_dir, f"{mode}-{self.count}")
        os.makedirs(workdir)
        if mode != "prepare" and os.path.isdir(os.path.join(pristine, "trace-cache")):
            shutil.copytree(
                os.path.join(pristine, "trace-cache"), os.path.join(workdir, "trace-cache")
            )
        out = os.path.join(workdir, "record.json")
        command = [
            sys.executable,
            os.path.join(HERE, "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--trace", str(trace),
            "--workdir", workdir,
            "--out", out,
        ]
        spawned = time.monotonic()
        command += ["--spawned-at", repr(spawned)]
        # A session of its own, so a timeout stops the worker together
        # with the campaign server and pool processes it started.
        proc = subprocess.Popen(
            command,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=max(5.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"failures": [f"{mode} iteration timed out"], "crashed": True}
        except BaseException:  # interrupted: take the worker's processes along
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0 or not os.path.exists(out):
            tail = stderr.strip().splitlines()[-5:]
            return {
                "failures": [f"{mode} iteration exited {proc.returncode}: {tail}"],
                "crashed": True,
            }
        with open(out, "r", encoding="utf-8") as handle:
            record = json.load(handle)
        record["elapsed_s"] = time.monotonic() - spawned
        record["workdir"] = workdir
        return record


def load_expected(workload: str) -> dict:
    path = os.path.join(HERE, "expected", f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_against_expected(args, record: dict, expected: dict) -> None:
    """Committed digests (known seeds) and seed-independent invariants."""
    failures = record["failures"]
    if record.get("crashed"):
        return
    if "executed" in expected and record.get("executed") != expected["executed"]:
        failures.append(
            f"executed {record.get('executed')} simulations, "
            f"expected {expected['executed']}"
        )
    if "analytical_lines" in expected and record.get("analytical_lines") != (
        expected["analytical_lines"]
    ):
        failures.append("scorecard analytical claims differ from expected")
    if not record.get("kernel_loaded", False):
        failures.append(
            "lane kernel did not load (NumPy fallback): numbers are not comparable"
        )
    known = expected.get("seeds", {}).get(str(args.seed))
    if known is None:
        return
    for key, value in known.items():
        if record.get(key) != value:
            failures.append(f"{key} = {record.get(key)!r}, expected {value!r}")
    text = expected_text_path(args)
    if os.path.exists(text) and record.get("stdout") is not None:
        with open(text, "r", encoding="utf-8") as handle:
            want = handle.read().splitlines()
        diff = list(difflib.unified_diff(want, record["stdout"].splitlines(), lineterm=""))
        if diff:
            failures.append("printed output differs:\n" + "\n".join(diff[:20]))


def expected_text_path(args) -> str:
    """Committed printed output of the default seed (for readable diffs)."""
    return os.path.join(HERE, "expected", f"{args.workload}-{args.seed}.txt")


def record_expected(args, record: dict) -> None:
    path = os.path.join(HERE, "expected", f"{args.workload}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    expected = load_expected(args.workload)
    expected["executed"] = record["executed"]
    if "analytical_lines" in record:
        expected["analytical_lines"] = record["analytical_lines"]
    entry = {"results": record["results"], "results_sha256": record["results_sha256"]}
    if "stdout_sha256" in record:
        entry["stdout_sha256"] = record["stdout_sha256"]
    if "claims_pass" in record:
        entry["claims_pass"] = record["claims_pass"]
    expected.setdefault("seeds", {})[str(args.seed)] = entry
    if args.seed == DEFAULT_SEED and record.get("stdout") is not None:
        with open(expected_text_path(args), "w", encoding="utf-8") as handle:
            handle.write(record["stdout"])
    expected["seeds"] = dict(sorted(expected["seeds"].items(), key=lambda kv: int(kv[0])))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1)
        handle.write("\n")


def first_result(record: dict) -> float:
    if "first_results" in record:
        return statistics.median(record["first_results"])
    return min(record["result_times"])


def end_to_end(runs: "list[dict]", setups: "list[float]") -> dict:
    def med(values):
        return statistics.median(values)

    return {
        "setup_s": med(setups),
        "wall_s": med([r["wall_s"] for r in runs]),
        "sim_kips": med([r["sim_instructions"] / r["wall_s"] / 1e3 for r in runs]),
        "peak_rss_mb": med([r["peak_rss_mb"] for r in runs]),
        "result_p50_s": med([tracing.nearest_rank(r["result_times"], 0.5) for r in runs]),
        "result_p90_s": med([tracing.nearest_rank(r["result_times"], 0.9) for r in runs]),
    }


def traced_spans(record: dict) -> "tuple[list, dict, dict]":
    """Spans of every traced process of the iteration, ids made unique."""
    files = []
    if record.get("spans_file"):
        files.append(record["spans_file"])
    if record.get("spans_dir") and os.path.isdir(record["spans_dir"]):
        files += sorted(
            os.path.join(record["spans_dir"], name)
            for name in os.listdir(record["spans_dir"])
            if name.endswith(".json")
        )
    spans: list = []
    missing: dict = {}
    mem: dict = {}
    for index, path in enumerate(files):
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        offset = index << 40
        for span_id, parent, name, t0, t1, notes in payload["spans"]:
            spans.append(
                (span_id + offset, parent + offset if parent else 0, name, t0, t1, notes)
            )
        missing.update(payload["missing"])
        if path.endswith(("spans-main.json", "spans-server.json")):
            mem = payload["mem_growth_mb"]
    return spans, missing, mem


def per_layer(workload: str, untraced: dict, traced: dict) -> "tuple[dict, dict]":
    """Per-layer metrics and the reasons for those this workload lacks."""
    spans, missing, mem = traced_spans(traced)
    m = tracing.layer_metrics(spans, mem)
    reasons = dict(missing)
    m["import.repro_s"] = traced.get("import_s", 0.0)
    m["campaign.executed"] = traced.get("executed", 0)
    h = traced.get("hierarchy") or {}
    instructions = h.get("instructions") or 0
    for name, key in (
        ("cache.l1_mpki", "l1_misses"),
        ("cache.l2_mpki", "l2_misses"),
        ("cache.victim_hits_pki", "victim_hits"),
    ):
        m[name] = h.get(key, 0) / instructions * 1e3 if instructions else 0.0
    health = traced.get("healthz") or {}
    plan_ready = traced.get("plan_ready_s") or []
    replays = traced.get("replay_s") or []
    m["service.plan_ready_ms"] = statistics.median(plan_ready) * 1e3 if plan_ready else 0.0
    m["service.events"] = traced.get("events", 0)
    for name in ("claimed", "awaited", "shared_hits", "store_hits"):
        m[f"service.{name}"] = health.get(name, 0)
    m["service.replay_p50_ms"] = tracing.nearest_rank(replays, 0.5) * 1e3
    m["service.replay_p90_ms"] = tracing.nearest_rank(replays, 0.9) * 1e3
    m["latency.first_result_s"] = first_result(untraced)
    m["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    root = [s for s in spans if s[2] == "workload"]
    if root:
        own = tracing.self_times(spans)
        m["trace.unattributed_s"] = sum(own[s[0]] for s in root)
        print(
            f"perfbench layers: self times sum to {m['trace.self_sum_s']:.3f} s "
            f"(traced wall {traced['wall_s']:.3f} s, untraced wall "
            f"{untraced['wall_s']:.3f} s, overhead ratio "
            f"{m['trace.overhead_ratio']:.3f})"
        )
    else:
        m["trace.unattributed_s"] = 0.0
        reasons["trace.unattributed_s"] = (
            "layers run on several server threads and processes; self times "
            "do not partition the client-observed wall time"
        )
    for name, value in m.items():
        if value == 0:
            reasons.setdefault(name, "no span or count of this layer on this workload")
    return m, reasons


def declared_metrics(trace: int) -> "dict[str, str]":
    """Metric name -> unit, in ``BENCHMARK.json`` order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="write this seed's output digests to expected/ (run at the "
        "commit whose outputs are the reference)",
    )
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2

    # SIGTERM unwinds like Ctrl-C, so the running worker's process group
    # is stopped and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench_dir = os.path.join(ROOT, ".perfbench")
    runner = Runner(args, bench_dir)
    try:
        return measure(args, runner, bench_dir)
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)


def measure(args, runner: Runner, bench_dir: str) -> int:
    calib_before = calibrate()
    # The first child builds the kernel and bytecode caches: an untimed
    # prepare step where the workload needs a warm trace cache, else the
    # first set-up sample.
    warm = bool(wl.WORKLOADS[args.workload]["warm_traces"])
    first_child = runner.child("prepare" if warm else "setup")
    if first_child.get("crashed"):
        print(f"perfbench: first child failed: {first_child['failures']}", file=sys.stderr)
        return 1
    finger = fingerprint(first_child)
    print("perfbench fingerprint: " + json.dumps(finger, sort_keys=True))

    runs: "list[dict]" = []
    traced = None
    # Elapsed time, not wall_s alone, fills the budget, so a run lasts
    # about --seconds whatever the workload's set-up costs.
    spent = 0.0
    if args.trace:
        runs.append(runner.child("run"))
        traced = runner.child("run", trace=1)
    else:
        while not runs or (
            spent < args.seconds and runner.remaining() > 2 * runs[-1]["elapsed_s"]
        ):
            runs.append(runner.child("run"))
            if runs[-1].get("crashed"):
                break
            spent += runs[-1]["elapsed_s"]
    setups = [r["setup_s"] for r in runs if "setup_s" in r]
    if not warm:
        setups.append(first_child["setup_s"])
    while not args.trace and len(setups) < SETUP_SAMPLES and runner.remaining() > 30:
        record = runner.child("setup")
        if record.get("crashed"):
            runs.append(record)
            break
        setups.append(record["setup_s"])
    calib_after = calibrate()
    print(
        f"perfbench calibration: before={calib_before:.3f} "
        f"after={calib_after:.3f} Mloop/s"
    )

    expected = load_expected(args.workload)
    checked = runs + ([traced] if traced else [])
    digests = set()
    for index, record in enumerate(checked):
        check_against_expected(args, record, expected)
        if not record.get("crashed"):
            digests.add((record.get("stdout_sha256"), record.get("results_sha256")))
        for failure in record["failures"]:
            print(f"perfbench FAIL iteration {index}: {failure}")
    if len(digests) > 1:
        runs[0]["failures"].append("iterations of one seed produced different outputs")
        print("perfbench FAIL: iterations of one seed produced different outputs")
    ok_runs = [r for r in runs if not r.get("crashed")]
    if not ok_runs or (traced is not None and traced.get("crashed")):
        print("perfbench: no iteration completed", file=sys.stderr)
        return 1
    first = ok_runs[0]
    print(
        f"perfbench digests: workload={args.workload} seed={args.seed} "
        f"stdout_sha256={first.get('stdout_sha256')} "
        f"results_sha256={first.get('results_sha256')} results={first.get('results')} "
        f"executed={first.get('executed')} "
        f"known_seed={str(args.seed) in expected.get('seeds', {})}"
    )
    if args.record:
        if any(r["failures"] for r in checked if r is not None):
            print("perfbench: not recording outputs of a failed run", file=sys.stderr)
            return 1
        record_expected(args, first)

    attempted = sum(
        r.get("points_streamed", r.get("results", 0)) or 1 for r in checked
    )
    failed = sum(len(r["failures"]) + r.get("task_failures", 0) for r in checked)
    failed += len(digests) > 1
    reasons: "dict[str, str]" = {}
    if traced is None:
        metrics = end_to_end(ok_runs, setups)
        print(
            f"perfbench: {len(ok_runs)} iteration(s), {len(setups)} set-up sample(s), "
            f"walls={[round(r['wall_s'], 3) for r in ok_runs]}"
        )
    else:
        layer, reasons = per_layer(args.workload, runs[0], traced)
        layer["bench.failed_ratio"] = failed / attempted
        layer["bench.calib_before_mops"] = calib_before
        layer["bench.calib_after_mops"] = calib_after
        metrics = layer
    declared = declared_metrics(args.trace)
    for name in declared:
        if name not in metrics:
            metrics[name] = 0.0
            reasons[name] = "not produced by this benchmark version"
    for name, reason in sorted(reasons.items()):
        print(f"perfbench missing on {args.workload}: {name}: {reason}")
    records_dir = os.path.join(bench_dir, "records")
    os.makedirs(records_dir, exist_ok=True)
    with open(
        os.path.join(records_dir, f"{args.workload}-{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as handle:
        json.dump(
            {
                "fingerprint": finger,
                "calibration_mops": [calib_before, calib_after],
                "iterations": checked,
                "metrics": metrics,
                "missing": reasons,
            },
            handle,
            indent=1,
            default=str,
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
