"""Lane-batching microbenchmark: KIPS per lane width and the break-even.

Measures the lane-batched campaign engine
(:meth:`OutOfOrderPipeline.run_batch`) against the sequential fused path
on one fault-dependent campaign point: the same trace simulated over
``--maps`` fault-map pairs, dispatched in batches of 1 (the legacy
per-map path) and each requested width.  Reported per lane width:

* ``kips``    — aggregate simulated instructions per second across lanes;
* ``seconds`` — wall-clock for the whole point;
* ``speedup`` — vs the sequential (width-1) dispatch.

Per config the bench also reports ``break_even_lanes`` — the
interpolated lane count where a batched pass first matches sequential
wall-clock (with the compiled lane kernel this sits near 3; the
``MIN_BATCH_LANES`` default in ``repro.campaign.session`` cites it) —
and a ``hetero`` section demonstrating that a ``--maps 2`` campaign
over mixed victim sizings (0/8/16 entries) pads to one slot axis and
merges into a *single* vectorised pass group.

Every batched result is checked for **bit-identity** against the
sequential runs; a divergence exits non-zero (that is the CI failure
condition — timing never is).

Usage::

    PYTHONPATH=src python benchmarks/bench_micro_batch.py
    PYTHONPATH=src python benchmarks/bench_micro_batch.py --no-kernel
    PYTHONPATH=src python benchmarks/bench_micro_batch.py --smoke --json out.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.experiments.configs import (
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    RunConfig,
)

#: Fault-dependent configs benchmarked: the plain block-disabling row and
#: the 6T victim-cache row (the paper's densest fault-dependent machinery).
BENCH_CONFIGS: tuple[RunConfig, ...] = (LV_BLOCK, LV_BLOCK_V6)


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="gzip", help="trace profile")
    parser.add_argument(
        "--instructions", type=int, default=40_000, help="measured region length"
    )
    parser.add_argument(
        "--warmup", type=int, default=10_000, help="warmup prefix length"
    )
    parser.add_argument(
        "--maps", type=int, default=50, help="fault-map pairs (paper: 50)"
    )
    parser.add_argument(
        "--lanes",
        default="1,2,4,8,50",
        help="comma list of lane widths to measure (each capped at --maps)",
    )
    parser.add_argument(
        "--no-kernel",
        action="store_true",
        help="disable the compiled lane kernel (REPRO_NO_CKERNEL=1) to "
        "measure the pure-NumPy fallback's crossover",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repetitions (best kept)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny trace, fewer maps, one repetition (validates "
        "lane bit-identity; timing numbers are indicative only)",
    )
    parser.add_argument("--json", default=None, metavar="PATH", help="write summary")
    return parser.parse_args(argv)


def _run_point(session, config, trace, warmup, map_count, width):
    """One campaign point at the given lane width; returns (seconds, results)."""
    indices = list(range(map_count))
    results = []
    start = time.perf_counter()
    for begin in range(0, map_count, width):
        chunk = indices[begin : begin + width]
        pipelines = [session.build_pipeline(config, m) for m in chunk]
        if width == 1:
            results.append(pipelines[0].run(trace, measure_from=warmup))
        else:
            results.extend(
                OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=warmup)
            )
    return time.perf_counter() - start, results


def _break_even(widths, rows) -> "float | None":
    """The interpolated lane count where batched speedup crosses 1.0
    (``None`` when no measured width reaches it)."""
    prev_w, prev_s = None, None
    for width in widths:
        speedup = rows[str(width)]["speedup"]
        if width == 1 or speedup is None:
            continue
        if speedup >= 1.0:
            if prev_s is None or prev_s >= 1.0:
                return float(width)
            # linear interpolation in (width, speedup) between samples
            frac = (1.0 - prev_s) / (speedup - prev_s)
            return round(prev_w + frac * (width - prev_w), 1)
        prev_w, prev_s = width, speedup
    return None


def _run_hetero(args, instructions, warmup) -> dict:
    """A --maps 2 campaign over mixed victim sizings (0/8/16 entries):
    the padded slot axis must merge all six lanes into ONE vectorised
    pass group, bit-identical to the six sequential runs."""
    configs = (LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10)
    settings = RunnerSettings(
        n_instructions=instructions,
        warmup_instructions=warmup,
        n_fault_maps=2,
        benchmarks=(args.benchmark,),
    )
    sequential = Session(settings, lanes=1, mega_batch=False)
    reference = {
        (config.label, m): sequential.simulate(args.benchmark, config, m)
        for config in configs
        for m in range(2)
    }
    with Session(settings) as session:
        spec = CampaignSpec.from_settings(settings, configs)
        plan = session.plan(spec)
        start = time.perf_counter()
        for group in plan.groups:
            session.execute_group(group)
        elapsed = time.perf_counter() - start
        identical = all(
            session.store.get(session.task_key(args.benchmark, config, m))
            == reference[(config.label, m)]
            for config in configs
            for m in range(2)
        )
        return {
            "configs": [c.label for c in configs],
            "maps": 2,
            "groups": len(plan.groups),
            "merged": all(g.merged for g in plan.groups),
            "passes": session.schedule_passes,
            "predicted_passes": plan.predicted_passes,
            "seconds": round(elapsed, 3),
            "identical": identical,
        }


def run_bench(args) -> dict:
    if args.no_kernel:
        os.environ["REPRO_NO_CKERNEL"] = "1"
    from repro.cpu import lane_kernel

    if args.smoke:
        instructions, warmup, maps, repeats = 3_000, 1_000, 8, 1
        widths = [w for w in (1, 4, 8) if w <= maps]
    else:
        instructions, warmup, maps = args.instructions, args.warmup, args.maps
        repeats = args.repeats
        widths = sorted(
            {min(int(w), maps) for w in args.lanes.split(",") if w.strip()}
        )

    settings = RunnerSettings(
        n_instructions=instructions,
        warmup_instructions=warmup,
        n_fault_maps=maps,
        benchmarks=(args.benchmark,),
    )
    session = Session(settings)
    trace = session.trace(args.benchmark)
    total = len(trace) * maps

    configs: dict[str, dict] = {}
    divergences = 0
    for config in BENCH_CONFIGS:
        session.build_pipeline(config, 0).run(trace, measure_from=warmup)  # warm
        # Repetitions interleave the widths so per-repetition speedup
        # ratios are robust against machine-load drift; the reported
        # speedup is the median ratio, the KIPS the best run.
        times: dict[int, list[float]] = {w: [] for w in widths}
        outputs: dict[int, list] = {}
        for _ in range(repeats):
            for width in widths:
                elapsed, results = _run_point(
                    session, config, trace, warmup, maps, width
                )
                times[width].append(elapsed)
                outputs[width] = results
        reference = outputs[widths[0]] if widths[0] == 1 else None
        rows: dict[str, dict] = {}
        for width in widths:
            identical = reference is None or outputs[width] == reference
            if not identical:
                divergences += 1
            best = min(times[width])
            if width == 1 or 1 not in times:
                speedup = 1.0 if width == 1 else None
            else:
                ratios = sorted(
                    seq / bat for seq, bat in zip(times[1], times[width])
                )
                speedup = round(ratios[len(ratios) // 2], 2)
            rows[str(width)] = {
                "kips": round(total / best / 1e3, 1),
                "seconds": round(best, 3),
                "speedup": speedup,
                "identical": identical,
            }
        rows["break_even_lanes"] = _break_even(widths, rows)
        configs[config.label] = rows
    hetero = _run_hetero(args, instructions, warmup)
    if not hetero["identical"]:
        divergences += 1
    top = str(max(widths))
    return {
        "benchmark": args.benchmark,
        "instructions": len(trace),
        "warmup": warmup,
        "maps": maps,
        "repeats": repeats,
        "smoke": bool(args.smoke),
        "kernel_active": lane_kernel.load() is not None,
        "lanes": widths,
        "configs": configs,
        "speedup_full_batch": configs[BENCH_CONFIGS[0].label][top]["speedup"],
        "break_even_lanes": configs[BENCH_CONFIGS[0].label]["break_even_lanes"],
        "hetero": hetero,
        "divergences": divergences,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    summary = run_bench(args)

    print(
        f"# KIPS per lane width — {summary['benchmark']}, "
        f"{summary['instructions']} instructions x {summary['maps']} maps"
    )
    print(f"compiled lane kernel: {'on' if summary['kernel_active'] else 'off'}")
    for label, rows in summary["configs"].items():
        print(f"{label}:")
        for width, row in rows.items():
            if width == "break_even_lanes":
                continue
            ok = "yes" if row["identical"] else "DIVERGED"
            speed = f"{row['speedup']:.2f}x" if row["speedup"] else "  ref"
            print(
                f"  lanes={width:>3}  {row['kips']:>9.1f} KIPS"
                f"  {row['seconds']:>7.3f}s  {speed:>7}  ok={ok}"
            )
        be = rows["break_even_lanes"]
        print(f"  break-even: {be if be is not None else '> max measured'} lanes")
    print(f"full-batch speedup: {summary['speedup_full_batch']}x")
    hetero = summary["hetero"]
    print(
        f"hetero victim merge (--maps {hetero['maps']}, "
        f"{len(hetero['configs'])} configs): groups={hetero['groups']} "
        f"merged={hetero['merged']} passes={hetero['passes']} "
        f"(predicted {hetero['predicted_passes']}) "
        f"ok={'yes' if hetero['identical'] else 'DIVERGED'}"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")

    if summary["divergences"]:
        print(
            f"ERROR: {summary['divergences']} lane width(s) diverged from the "
            "sequential fused engine",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
