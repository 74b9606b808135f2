"""The benchmark's workloads: what each one runs, and why it exists.

Every workload drives a user entry point — the ``python -m
repro.experiments`` CLI (``main(argv)``) or the campaign server plus
``Session.connect(url).run(spec)`` — at the fidelity defaults of
``RunnerSettings`` (40k measured + 10k warmup instructions per trace).
The seed reaches the program only as the CLI's ``--seed``.

``BENCHMARK.json`` names three of them.  ``scorecard-cold`` stays runnable
by hand but is not declared there: one iteration takes about 35 s on a
2-core host, so a run cannot repeat it often enough for its median to
hold still against the host's speed drifting between runs.
"""

from __future__ import annotations

#: Two benchmarks keep an iteration near 8 s so a run repeats it several
#: times; 50 maps still fill about 101 lanes per pass.
FIG8_WIDE_BENCHMARKS = ("mcf", "crafty")
SERVED_BENCHMARKS = ("gzip", "mcf", "crafty", "swim", "art", "twolf")
SERVED_MAPS = 6
#: All-store-hit re-submissions of client B in the replay phase.
REPLAY_ROUNDS = 20
ABLATION_TARGETS = ("abl-granularity", "abl-l2", "abl-blocksize-prefetch", "abl-energy")

WORKLOADS = {
    # The report target from nothing: empty in-memory store, no trace
    # cache.  Narrow lanes (about 8 per pass) keep the Python miss
    # service, per-pass fixed cost and trace generation on the path.
    "scorecard-cold": {"warm_traces": (), "served": False},
    # The paper's 50-map statistics on two benchmarks, trace cache warm:
    # about 101 lanes per pass, where the compiled lane kernel pays off and
    # trace generation is off the path.
    "fig8-wide": {"warm_traces": FIG8_WIDE_BENCHMARKS, "served": False},
    # A two-worker campaign server over an empty sharded on-disk store:
    # two overlapping clients, then all-store-hit replays.  The only
    # workload with RPC, coalescing, partition merge and disk writes.
    "served-overlap": {"warm_traces": SERVED_BENCHMARKS, "served": True},
    # The four ablation studies: sequential pipeline runs (prefetcher on
    # the object engine) with their own traces, no store and no lanes.
    "ablations": {"warm_traces": (), "served": False},
}


def cli_argv(workload: str, seed: int, trace_cache: "str | None") -> "list[str]":
    """``python -m repro.experiments`` arguments of a CLI workload."""
    if workload == "scorecard-cold":
        return ["report", "--seed", str(seed)]
    if workload == "fig8-wide":
        return [
            "fig8",
            "--maps",
            "50",
            "--benchmarks",
            ",".join(FIG8_WIDE_BENCHMARKS),
            "--seed",
            str(seed),
            "--trace-cache",
            trace_cache,
        ]
    if workload == "ablations":
        return [*ABLATION_TARGETS, "--seed", str(seed)]
    raise ValueError(f"{workload} is not a CLI workload")


def serve_argv(seed: int, store: str, trace_cache: str) -> "list[str]":
    """``python -m repro.experiments serve`` arguments of served-overlap."""
    return [
        "serve",
        "--port",
        "0",
        "--workers",
        "2",
        "--store",
        store,
        "--store-backend",
        "sharded",
        "--trace-cache",
        trace_cache,
        "--maps",
        str(SERVED_MAPS),
        "--benchmarks",
        ",".join(SERVED_BENCHMARKS),
        "--seed",
        str(seed),
    ]
