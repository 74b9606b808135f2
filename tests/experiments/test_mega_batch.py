"""Cross-point mega-batching: signatures, planning, group execution.

The mega-batch planner merges every pending (config, fault-map) lane of
a campaign that shares a benchmark trace and a pipeline batch signature
— across campaign points and figures — into one vectorised schedule
pass.  These tests pin the grouping rules, the store scatter/dedup, the
schedule-pass accounting, and bit-identity against sequential
per-point ``simulate`` calls.
"""

from __future__ import annotations

import pytest

from repro.campaign.events import Progress
from repro.campaign.executors import PoolExecutor
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.cpu import lane_kernel
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
)

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

#: Several campaign points; baseline and block-disabling share structure
#: (same latencies, no victim cache), the rest split off by signature.
CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL)


def _all_items(settings, configs):
    for config in configs:
        if config.needs_fault_map:
            for m in range(settings.n_fault_maps):
                yield config, m
        else:
            yield config, None


def mega_groups(session: Session, configs) -> list:
    """The session's plan for ``configs`` as ``(config, map_index)``
    tuples, one per group."""
    plan = session.plan(session.spec(configs))
    return [
        tuple((item.config, item.map_index) for item in group.items)
        for group in plan.groups
    ]


def run_mega(session: Session, configs) -> int:
    """Stream the campaign through the session; returns how many
    simulations it planned."""
    return session.run_all(session.spec(configs)).pending


@pytest.fixture()
def session() -> Session:
    return Session(SETTINGS)


@pytest.fixture(scope="module")
def reference() -> dict:
    """Per-point results for every item on the reference loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_NO_CKERNEL", "1")
        sequential = Session(SETTINGS)
        return {
            (config.label, m): sequential.simulate("gzip", config, m)
            for config, m in _all_items(SETTINGS, CONFIGS)
        }


class TestSignatures:
    def test_structural_twins_share_a_signature(self, session):
        # Fault-free baseline lanes ride along with block-disabling maps.
        assert session.batch_signature(LV_BASELINE) == session.batch_signature(
            LV_BLOCK
        )

    def test_structural_differences_split(self, session):
        signatures = {
            session.batch_signature(c)
            for c in (LV_BLOCK, LV_WORD, LV_BLOCK_V10, LV_BLOCK_V6)
        }
        # word-disabling still splits off (+1-cycle L1 and halved cache);
        # the V$ rows (16/8/no entries) now pad to one slot axis and
        # share the block-disabling signature — two distinct batches.
        assert len(signatures) == 2
        assert (
            session.batch_signature(LV_BLOCK)
            == session.batch_signature(LV_BLOCK_V6)
            == session.batch_signature(LV_BLOCK_V10)
        )

    def test_signature_is_map_independent(self, session):
        key0 = session.build_pipeline(LV_BLOCK, 0).batch_key()
        key1 = session.build_pipeline(LV_BLOCK, 1).batch_key()
        assert key0 == key1 == session.batch_signature(LV_BLOCK)


class TestPlanning:
    def test_groups_merge_across_points(self, session):
        plan = mega_groups(session, CONFIGS)
        merged = {tuple((c.label, m) for c, m in group) for group in plan}
        assert (
            ("baseline", None),
            ("block disabling", 0),
            ("block disabling", 1),
            ("block disabling+V$ 10T", 0),
            ("block disabling+V$ 10T", 1),
        ) in merged
        # Plans cover exactly the campaign's work items, once each.
        items = [item for group in plan for item in group]
        assert len(items) == len(list(_all_items(SETTINGS, CONFIGS)))

    def test_store_holes_are_dropped_first(self, session):
        session.simulate("gzip", LV_BLOCK, 0)
        plan = mega_groups(session, (LV_BASELINE, LV_BLOCK))
        items = [item for group in plan for item in group]
        assert (LV_BLOCK, 0) not in items
        assert (LV_BLOCK, 1) in items

    def test_duplicate_configs_collapse(self, session):
        plan = mega_groups(session, (LV_BLOCK, LV_BLOCK))
        items = [item for group in plan for item in group]
        assert len(items) == SETTINGS.n_fault_maps


class TestGroupExecution:
    def test_mixed_config_group_matches_sequential(self, session, reference):
        items = [(LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        # One vectorised pass, scattered to the per-point store keys.
        assert session.schedule_passes == 1
        for config, m in items:
            assert session.cached("gzip", config, m) == reference[
                (config.label, m)
            ]

    def test_heterogeneous_items_split_by_signature(self, session, reference):
        # A word-disabling lane among block-disabling ones must not trip
        # the engine's sequential fallback: it splits into its own
        # (singleton, sequential) sub-batch.
        items = [(LV_BLOCK, 0), (LV_WORD, None), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        assert session.schedule_passes == 2  # one batched + one sequential

    def test_store_holes_in_the_middle_of_a_group(self, session, reference):
        session.store_result(
            "gzip", LV_BLOCK, 0, reference[("block disabling", 0)]
        )
        items = [(LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        assert session.simulations_executed == 2  # the hole was a pure hit

    def test_explicit_single_lane_stays_sequential(
        self, session, reference, lane_passes
    ):
        # Signature sub-batches of one lane each are one one-lane kernel
        # pass apiece, and each costs one schedule pass.
        items = [(LV_BLOCK, 0), (LV_WORD, None), (LV_INCREMENTAL, 1)]
        results = session.run_group("gzip", items)
        assert results == [
            reference[(config.label, m)] for config, m in items
        ]
        assert session.schedule_passes == len(items)
        if lane_kernel.load() is not None:
            assert lane_passes == [1] * len(items)

    def test_duplicate_items_simulate_once(self, session):
        items = [(LV_BLOCK, 0), (LV_BLOCK, 0), (LV_BLOCK, 1)]
        results = session.run_group("gzip", items)
        assert results[0] == results[1]
        assert session.simulations_executed == 2


class TestRunMega:
    def test_fewer_schedule_passes_than_points(self, session, reference):
        executed = run_mega(session, CONFIGS)
        assert executed == len(list(_all_items(SETTINGS, CONFIGS)))
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert session.schedule_passes < points
        for config, m in _all_items(SETTINGS, CONFIGS):
            assert session.cached("gzip", config, m) == reference[
                (config.label, m)
            ]

    def test_rerun_is_pure_store_hits(self, session):
        run_mega(session, CONFIGS)
        executed = session.simulations_executed
        assert run_mega(session, CONFIGS) == 0
        assert session.simulations_executed == executed

    def test_progress_reaches_total(self, session):
        calls = [
            (event.done, event.total)
            for event in session.run(session.spec(CONFIGS))
            if isinstance(event, Progress)
        ]
        assert calls
        assert calls[-1][0] == calls[-1][1] == len(
            list(_all_items(SETTINGS, CONFIGS))
        )


class TestParallelMega:
    def test_worker_batches_are_trace_groups(self, session):
        # The pool dispatches each plan group as one worker batch.
        plan = session.plan(session.spec(CONFIGS))
        assert plan.pending == len(list(_all_items(SETTINGS, CONFIGS)))
        # At least one dispatch unit spans several campaign points.
        assert any(len(group.labels) > 1 for group in plan.groups)

    def test_parallel_prefill_matches_sequential(self, reference):
        parallel = Session(SETTINGS)
        executed = parallel.run_all(
            parallel.spec(CONFIGS), executor=PoolExecutor(2)
        ).pending
        assert executed == len(list(_all_items(SETTINGS, CONFIGS)))
        for config, m in _all_items(SETTINGS, CONFIGS):
            assert parallel.cached("gzip", config, m) == reference[
                (config.label, m)
            ]
        # Workers' schedule-pass counters aggregate into the parent.
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert 0 < parallel.schedule_passes < points
