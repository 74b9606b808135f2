"""One measured iteration of a workload, in a fresh interpreter.

``run.py`` starts this script once per iteration so every iteration pays
its own interpreter start, ``import repro`` and kernel load, exactly as a
user invocation does.  Modes:

* ``prepare`` — untimed, for workloads with a warm trace cache: compile
  bytecode, build the lane kernel, fill the pristine trace cache that
  every iteration copies;
* ``setup`` — set-up only (``setup_s`` samples);
* ``run`` — set-up, the workload, and its output checks.

The iteration's record (timings, counts, digests, check failures) is
written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

PROGRESS_RE = re.compile(r"\[campaign\] (\d+)/(\d+) simulations\b")
SUMMARY_RE = re.compile(r"\[campaign\] simulations executed=(\d+) schedule passes=(\d+)")
CLAIM_RE = re.compile(r"^\[(PASS|MISS)\] ")


class StampedStream(io.TextIOBase):
    """A text sink that keeps every write with its arrival time."""

    def __init__(self) -> None:
        self.chunks: "list[tuple[float, str]]" = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.chunks.append((time.perf_counter(), text))
        return len(text)

    def text(self) -> str:
        return "".join(chunk for _, chunk in self.chunks)


def sha256_json(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----- set-up -----------------------------------------------------------------------


def setup(args, record: dict) -> "tracing.Tracer | None":
    """Import, kernel load and cache warming; returns the tracer in
    traced mode.  Everything up to the return counts as set-up."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.experiments.__main__  # noqa: F401

    record["import_s"] = time.perf_counter() - t0
    tracer = None
    if args.trace:
        tracer = tracing.install(tracing.Tracer())
    from repro.cpu import lane_kernel

    record["kernel_loaded"] = lane_kernel.load() is not None
    if not wl.WORKLOADS[args.workload]["warm_traces"]:
        return tracer
    generated = warm_traces(args)
    if generated:
        record["failures"].append(f"trace cache was not warm: {generated} generated")
    return tracer


def warm_traces(args) -> int:
    """Fill (or, when already warm, load) the workload's trace cache;
    returns how many traces had to be generated."""
    from repro.campaign.spec import RunnerSettings
    from repro.experiments.providers import TraceProvider

    benchmarks = wl.WORKLOADS[args.workload]["warm_traces"]
    provider = TraceProvider(
        RunnerSettings(benchmarks=benchmarks, seed=args.seed),
        cache_dir=os.path.join(args.workdir, "trace-cache"),
    )
    for benchmark in benchmarks:
        provider.get(benchmark)
    return provider.generated


# ----- CLI workloads ------------------------------------------------------------------


def result_times(t0: float, out: StampedStream, err: StampedStream) -> "list[float]":
    """Arrival time of every result the user sees: one entry per
    simulation reported by a ``[campaign] done/total`` progress line, or
    one per rendered figure block when a target reports no progress."""
    times: "list[float]" = []
    done_before = 0
    for stamp, chunk in err.chunks:
        for match in PROGRESS_RE.finditer(chunk):
            done = int(match.group(1))
            times.extend([stamp - t0] * max(0, done - done_before))
            done_before = max(done_before, done)
    if not times:
        times = [stamp - t0 for stamp, chunk in out.chunks if chunk.startswith("== ")]
    return times


def run_cli(args, record: dict, tracer) -> None:
    from repro.experiments.__main__ import main
    from repro.campaign.spec import RunnerSettings
    from repro.store import result_to_dict

    trace_cache = os.path.join(args.workdir, "trace-cache")
    argv = wl.cli_argv(args.workload, args.seed, trace_cache)
    stored: dict = {}
    runs: list = []
    tracing.install_capture(stored, runs)
    out, err = StampedStream(), StampedStream()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        if tracer is None:
            code = main(argv)
        else:
            code = tracer.root("workload", main, argv)
    finally:
        sys.stdout, sys.stderr = saved
    stdout, stderr = out.text(), err.text()
    failures = record["failures"]
    if code != 0:
        failures.append(f"CLI exited {code}: {stderr.strip().splitlines()[-3:]}")
    quarantined = stderr.count("[campaign] quarantined ")
    record["task_failures"] = quarantined

    # Output checks (inside the timed region: wall_s ends at the last
    # verified output).
    results = {key: result_to_dict(result) for key, result in stored.items()}
    ordered_runs = [result_to_dict(result) for _, result in runs]
    record["stdout_sha256"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if results:
        record["results_sha256"] = sha256_json(results)
        record["results"] = len(results)
    else:
        record["results_sha256"] = sha256_json(ordered_runs)
        record["results"] = len(ordered_runs)
    summary = SUMMARY_RE.search(stderr)
    settings = RunnerSettings()
    if summary:
        record["executed"] = int(summary.group(1))
        record["schedule_passes"] = int(summary.group(2))
        record["sim_instructions"] = record["executed"] * (
            settings.n_instructions + settings.warmup_instructions
        )
        if record["executed"] != len(results):
            failures.append(
                f"summary says {record['executed']} simulations, "
                f"{len(results)} distinct results were stored"
            )
    else:
        record["executed"] = len(runs)
        record["sim_instructions"] = sum(length for length, _ in runs)
    check_cli_output(args, record, stdout, results, ordered_runs, settings)
    t_end = time.perf_counter()

    record["wall_s"] = t_end - t0
    times = result_times(t0, out, err)
    if not times:
        failures.append("no result reached the user")
        times = [record["wall_s"]]
    record["result_times"] = times
    record["stdout"] = stdout
    record["hierarchy"] = hierarchy_totals(list(results.values()) or ordered_runs)


def check_cli_output(args, record, stdout, results, runs, settings) -> None:
    failures = record["failures"]
    for result in results.values():
        if result["instructions"] != settings.n_instructions or result["cycles"] <= 0:
            failures.append(f"implausible result {result['benchmark']}: {result}")
            break
    if args.workload == "scorecard-cold":
        claims = [line for line in stdout.splitlines() if CLAIM_RE.match(line)]
        record["claims_pass"] = sum(line.startswith("[PASS]") for line in claims)
        if len(claims) != 17:
            failures.append(f"scorecard has {len(claims)} claim lines, expected 17")
        record["analytical_lines"] = analytical_lines(stdout)
    elif args.workload == "fig8-wide":
        rows = [
            line.split()
            for line in stdout.splitlines()
            if line.split() and line.split()[0] in wl.FIG8_WIDE_BENCHMARKS
        ]
        if len(rows) != len(wl.FIG8_WIDE_BENCHMARKS):
            failures.append(f"fig8 printed {len(rows)} benchmark rows")
        for row in rows:
            values = [float(value) for value in row[1:]]
            if not all(0.0 < value <= 1.5 for value in values):
                failures.append(f"fig8 row out of range: {row}")
    elif args.workload == "ablations":
        headers = [line for line in stdout.splitlines() if line.startswith("== abl-")]
        if len(headers) != len(wl.ABLATION_TARGETS):
            failures.append(f"{len(headers)} ablation tables printed, expected 4")
        if not runs:
            failures.append("no ablation simulation was observed")


def analytical_lines(stdout: str) -> "list[str]":
    """The scorecard's seed-independent section (analytical claims)."""
    lines = stdout.splitlines()
    claims: "list[str]" = []
    for line in lines:
        if line.startswith("-----"):
            break
        if CLAIM_RE.match(line):
            claims.append(line.rstrip())
    return claims


def hierarchy_totals(results: "list[dict]") -> dict:
    """Summed miss-service events and measured instructions."""
    totals = {"instructions": 0, "l1_misses": 0, "l2_misses": 0, "victim_hits": 0}
    for result in results:
        stats = result.get("hierarchy_stats") or {}
        totals["instructions"] += result["instructions"]
        for level in ("l1i", "l1d"):
            totals["l1_misses"] += stats.get(level, {}).get("misses", 0)
        totals["l2_misses"] += stats.get("l2", {}).get("misses", 0)
        for level in ("victim_i", "victim_d"):
            totals["victim_hits"] += stats.get(level, {}).get("hits", 0)
    return totals


# ----- served-overlap -----------------------------------------------------------------


def start_server(args, record: dict):
    """Launch the campaign server; returns (process, url).  ``setup_s``
    runs from the spawn to the announced port."""
    store = os.path.join(args.workdir, "store")
    trace_cache = os.path.join(args.workdir, "trace-cache")
    serve = wl.serve_argv(args.seed, store, trace_cache)
    if args.trace:
        command = [
            sys.executable,
            os.path.join(HERE, "serve_launch.py"),
            "--trace-dir",
            os.path.join(args.workdir, "spans"),
            *serve,
        ]
    else:
        command = [sys.executable, "-m", "repro.experiments", *serve]
    err = open(os.path.join(args.workdir, "server.err"), "wb")
    spawned = time.monotonic()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=err, stdin=subprocess.DEVNULL
    )
    err.close()
    url = None
    line = proc.stdout.readline().decode("utf-8", "replace")
    if line.startswith("serving on "):
        url = line.split("serving on ", 1)[1].strip()
    record["setup_s"] = time.monotonic() - spawned
    if url is None:
        stop_server(proc, record)
        raise RuntimeError(f"server did not announce a port: {line!r}")
    return proc, url


def stop_server(proc, record: dict) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        record["failures"].append("server ignored SIGTERM for 60 s")
    proc.stdout.close()
    if proc.returncode not in (0, -signal.SIGTERM):
        record["failures"].append(f"server exited {proc.returncode}")


def client_run(url: str, spec, start: threading.Event, out: dict) -> None:
    """One closed-loop client: POST the spec once, stamp every event."""
    from repro.campaign.events import PlanReady, PointResult
    from repro.campaign.resilience import CampaignError
    from repro.campaign.session import Session

    start.wait()
    remote = Session.connect(url)
    posted = time.perf_counter()
    out.update(posted=posted, points={}, times=[], events=0, error=None)
    try:
        for event in remote.run(spec):
            now = time.perf_counter()
            out["events"] += 1
            if isinstance(event, PlanReady):
                out["plan_ready_s"] = now - posted
            elif isinstance(event, PointResult):
                out["times"].append(now - posted)
                out["points"][event.key] = event.result
    except CampaignError as exc:
        out["error"] = f"{len(exc.failures)} task(s) quarantined"
    except Exception as exc:  # a broken stream fails the check, not the bench
        out["error"] = repr(exc)
    finally:
        out["done"] = remote.last_done or {}
        out["finished"] = time.perf_counter()
        remote.close()


def run_served(args, record: dict) -> None:
    from repro.campaign.spec import CampaignSpec, RunnerSettings
    from repro.experiments.figures import configs_for_targets
    from repro.store import result_to_dict

    settings = RunnerSettings(
        n_fault_maps=wl.SERVED_MAPS, benchmarks=wl.SERVED_BENCHMARKS, seed=args.seed
    )
    spec_a = CampaignSpec.from_settings(settings, tuple(configs_for_targets(["fig8"])))
    spec_b = CampaignSpec.from_settings(
        settings, tuple(configs_for_targets(["fig8", "fig9"]))
    )
    keys_a, keys_b = set(spec_a.task_keys()), set(spec_b.task_keys())
    failures = record["failures"]
    proc, url = start_server(args, record)
    try:
        if args.mode == "setup":
            return
        start = threading.Event()
        outs = ({}, {})
        threads = [
            threading.Thread(target=client_run, args=(url, spec, start, out))
            for spec, out in zip((spec_a, spec_b), outs)
        ]
        for thread in threads:
            thread.start()
        t0 = time.perf_counter()
        start.set()
        for thread in threads:
            thread.join()
        for name, out, keys in zip("AB", outs, (keys_a, keys_b)):
            if out["error"]:
                failures.append(f"client {name}: {out['error']}")
            if set(out["points"]) != keys or len(out["times"]) != len(keys):
                failures.append(
                    f"client {name} stream incomplete: {len(out['times'])} "
                    f"PointResults for {len(keys)} plan points"
                )
            if out["done"].get("failures", 1) != 0:
                failures.append(f"client {name} done line: {out['done']}")
        union = keys_a | keys_b
        executed = sum(out["done"].get("simulations_executed", 0) for out in outs)
        server_total = max(out["done"].get("server_simulations", 0) for out in outs)
        if executed != len(union) or server_total != len(union):
            failures.append(
                f"union of {len(union)} points executed {executed} times "
                f"(server total {server_total})"
            )
        results = {key: result_to_dict(r) for key, r in outs[1]["points"].items()}
        for key, result in outs[0]["points"].items():
            if result_to_dict(result) != results.get(key):
                failures.append("clients A and B disagree on a shared point")
                break
        record["results_sha256"] = sha256_json(results)
        record["results"] = len(results)
        t_end = time.perf_counter()
        record["wall_s"] = t_end - t0
        record["executed"] = executed
        settings_length = settings.n_instructions + settings.warmup_instructions
        record["sim_instructions"] = executed * settings_length
        record["first_results"] = [min(out["times"] or [0.0]) for out in outs]
        record["result_times"] = outs[0]["times"] + outs[1]["times"]
        record["plan_ready_s"] = [out.get("plan_ready_s", 0.0) for out in outs]
        record["events"] = sum(out["events"] for out in outs)
        record["points_streamed"] = sum(len(out["times"]) for out in outs)
        record["hierarchy"] = hierarchy_totals(list(results.values()))

        replays = []
        for _ in range(wl.REPLAY_ROUNDS):
            out: dict = {}
            ready = threading.Event()
            ready.set()
            client_run(url, spec_b, ready, out)
            replays.append(out["finished"] - out["posted"])
            record["events"] += out["events"]
            record["points_streamed"] += len(out["times"])
            if (
                out["error"]
                or set(out["points"]) != keys_b
                or out["done"].get("simulations_executed") != 0
            ):
                failures.append(f"replay was not a complete all-hit stream: {out['done']}")
                break
            if sha256_json({k: result_to_dict(r) for k, r in out["points"].items()}) != (
                record["results_sha256"]
            ):
                failures.append("replay results differ from the first stream")
                break
        record["replay_s"] = replays
        from repro.service.client import connect

        with connect(url) as health:
            record["healthz"] = health.healthz()
        record["peak_rss_mb"] = tracing.vm_hwm_mb(proc.pid)
    finally:
        stop_server(proc, record)


# ----- entry ----------------------------------------------------------------------------


def prepare(args, record: dict) -> None:
    import repro.experiments.__main__  # noqa: F401
    from repro.cpu import lane_kernel

    record["kernel_loaded"] = lane_kernel.load() is not None
    warm_traces(args)


def versions() -> dict:
    """Versions of the numeric stack this process imported."""
    found = {}
    for name in ("numpy", "scipy"):
        module = sys.modules.get(name)
        found[name] = getattr(module, "__version__", None)
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("prepare", "setup", "run"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    record: dict = {"failures": []}
    if args.mode == "prepare":
        prepare(args, record)
    elif wl.WORKLOADS[args.workload]["served"]:
        t0 = time.perf_counter()
        import repro.experiments.__main__  # noqa: F401
        from repro.cpu import lane_kernel

        record["import_s"] = time.perf_counter() - t0
        record["kernel_loaded"] = lane_kernel.load() is not None
        if args.trace:
            os.makedirs(os.path.join(args.workdir, "spans"), exist_ok=True)
        run_served(args, record)
        if args.trace and args.mode == "run":
            record["spans_dir"] = os.path.join(args.workdir, "spans")
    else:
        tracer = setup(args, record)
        record["setup_s"] = time.monotonic() - args.spawned_at
        if args.mode == "run":
            run_cli(args, record, tracer)
            record["peak_rss_mb"] = tracing.vm_hwm_mb()
            if tracer is not None:
                path = os.path.join(args.workdir, "spans-main.json")
                tracer.dump(path)
                record["spans_file"] = path
    record.update(versions())
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
