#!/usr/bin/env python3
"""Campaign API v2: declarative specs, the unified planner, and the
streaming Session facade.

Walks the campaign layer end to end:

1. describe a campaign as data (:class:`CampaignSpec`) and round-trip it
   through JSON — specs are values that can travel between processes,
   files, and sessions;
2. resolve the spec against a result store into an explicit plan (work
   items, store-dedup hits, mega-batch groups of one schedule pass each,
   predicted passes) without simulating — what the CLI's ``--dry-run``
   prints;
3. stream the campaign through a :class:`Session`, consuming typed
   events as simulations land in the store;
4. re-run the same spec: pure store hits, an empty plan, zero schedule
   passes;
5. post-process the stored results into the paper's normalized series,
   read back from the store under the same content-hash keys.

Run:  PYTHONPATH=src python examples/campaign_api.py
"""

from repro.campaign import (
    CampaignSpec,
    PlanReady,
    PointResult,
    Progress,
    RunnerSettings,
    Session,
)
from repro.experiments import LV_BASELINE, LV_BLOCK, LV_BLOCK_V10, LV_WORD

# --- 1. a campaign is data ----------------------------------------------------
settings = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=4,
    benchmarks=("gzip", "crafty"),
)
spec = CampaignSpec.from_settings(
    settings,
    configs=(LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10),
    figure="fig8",
)
print(spec.describe())

# Specs round-trip through JSON and keep their identity: equal specs
# resolve to equal store task keys on any machine.
restored = CampaignSpec.from_json(spec.to_json())
assert restored == spec
assert restored.task_keys() == spec.task_keys()
print(f"json round-trip ok ({len(spec.task_keys())} task keys)\n")

# --- 2-4. one session, streaming execution ------------------------------------
with Session(settings) as session:
    # 2. plan without simulating (the CLI's --dry-run)
    plan = session.plan(spec)
    print(plan.describe())

    # 3. stream the campaign: PlanReady, then PointResult/Progress events
    print("\nstreaming:")
    for event in session.run(spec):
        if isinstance(event, PlanReady):
            print(f"  plan: {event.plan.pending} simulations pending")
        elif isinstance(event, PointResult):
            lane = "-" if event.map_index is None else event.map_index
            print(
                f"  {event.benchmark:>8} {event.config.label:<24} "
                f"map={lane:>2}  cycles={event.result.cycles}"
            )
        elif isinstance(event, Progress):
            print(
                f"  progress {event.done}/{event.total} "
                f"(schedule passes: {event.schedule_passes})"
            )

    # 4. a re-run is pure store hits: empty plan, zero new passes
    passes = session.schedule_passes
    rerun = session.run_all(spec)
    assert rerun.pending == 0
    assert session.schedule_passes == passes
    print(f"\nre-run: {rerun.dedup_hits} store hits, 0 schedule passes")

    # --- 5. pure post-processing over the filled store ------------------------
    print("\nnormalized performance (vs low-voltage baseline):")
    for config in (LV_WORD, LV_BLOCK, LV_BLOCK_V10):
        series = session.normalized_series(config, LV_BASELINE)
        print(
            f"  {series.config_label:<24} mean={series.mean_average:.3f} "
            f"penalty={series.mean_penalty:.1%}"
        )
