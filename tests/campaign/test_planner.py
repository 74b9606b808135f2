"""The unified Planner: grouping, dedup holes, predicted passes, and the
serial/parallel plan-object equivalence the redesign pins."""

import dataclasses
from concurrent.futures import Future

import pytest

import repro.experiments.configs as configs_module
from repro.campaign.executors import PoolExecutor, run_batch_locally
from repro.campaign.plan import Planner
from repro.campaign.session import Session
from repro.campaign.spec import CampaignSpec, RunnerSettings
from repro.cpu import lane_kernel
from repro.experiments.configs import (
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
    LV_WORD,
    RunConfig,
)

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip",),
)

CONFIGS = (LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL)


@pytest.fixture()
def session() -> Session:
    return Session(SETTINGS)


def resolve(session, configs=CONFIGS):
    return Planner(session).resolve(session.spec(configs))


class TestResolution:
    def test_covers_every_work_item_once(self, session):
        plan = resolve(session)
        keys = [item.key for group in plan.groups for item in group.items]
        assert len(keys) == len(set(keys)) == 8  # 1+1+2+2+2
        assert plan.total_points == 8
        assert plan.dedup_hits == 0
        assert plan.pending == 8

    def test_structural_twins_merge_across_points(self, session):
        # Victim sizings pad to one slot axis, so the V$ variants ride
        # in the same mega-group as the baseline and plain block lanes.
        plan = resolve(session)
        merged = {
            tuple((item.config.label, item.map_index) for item in group.items)
            for group in plan.groups
        }
        assert (
            ("baseline", None),
            ("block disabling", 0),
            ("block disabling", 1),
            ("block disabling+V$ 10T", 0),
            ("block disabling+V$ 10T", 1),
        ) in merged

    def test_store_holes_counted_and_dropped(self, session):
        session.simulate("gzip", LV_BLOCK, 0)
        plan = resolve(session, (LV_BASELINE, LV_BLOCK))
        items = [
            (item.config, item.map_index)
            for group in plan.groups
            for item in group.items
        ]
        assert (LV_BLOCK, 0) not in items
        assert (LV_BLOCK, 1) in items
        assert plan.total_points == 3
        assert plan.dedup_hits == 1
        assert plan.pending == 2

    def test_every_shipped_config_merges(self, session):
        """Every Table III configuration the experiments ship has a batch
        signature, so a campaign over all of them plans only mega-batch
        groups — and costs exactly the passes the plan predicted."""
        shipped = tuple(
            dict.fromkeys(
                value
                for value in vars(configs_module).values()
                if isinstance(value, RunConfig)
            )
        )
        assert len(shipped) == 14
        assert all(session.batch_signature(c) is not None for c in shipped)
        plan = resolve(session, shipped)
        assert plan.groups and all(group.merged for group in plan.groups)
        for group in plan.groups:
            session.execute_group(group)
        assert session.schedule_passes == plan.predicted_passes == len(plan.groups)


class TestPredictedPasses:
    def test_prediction_matches_execution(self, session):
        plan = resolve(session)
        for group in plan.groups:
            session.execute_group(group)
        assert session.schedule_passes == plan.predicted_passes
        points = len(CONFIGS) * len(SETTINGS.benchmarks)
        assert plan.predicted_passes < points

    def test_prediction_matches_execution_per_point(
        self, session, monkeypatch, lane_passes
    ):
        """Configurations without a batch signature plan into the
        sequential group: one pass per point predicted and spent — each
        point's ``run()`` is a one-lane kernel pass when the kernel is
        loaded — and results bit-identical to the reference loop."""
        configs = (LV_BASELINE, LV_BLOCK)
        points = ((LV_BASELINE, None), (LV_BLOCK, 0), (LV_BLOCK, 1))
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NO_CKERNEL", "1")
            reference = Session(SETTINGS)
            expected = {(c, m): reference.simulate("gzip", c, m) for c, m in points}
        monkeypatch.setattr(Session, "batch_signature", lambda self, config: None)
        plan = resolve(session, configs)
        (group,) = plan.groups
        assert not group.merged and group.signature is None
        assert plan.predicted_passes == len(group) == 3
        results = session.execute_group(group)
        assert {(i.config, i.map_index): r for i, r in results} == expected
        assert session.schedule_passes == plan.predicted_passes
        if lane_kernel.load() is not None:
            assert lane_passes == [1, 1, 1]

    def test_prediction_with_explicit_single_lane(self, lane_passes):
        """A one-map campaign of one configuration plans a one-lane
        mega-batch: ``run_batch`` runs it as exactly one one-lane
        ``_run_lanes`` pass, the one predicted pass."""
        session = Session(dataclasses.replace(SETTINGS, n_fault_maps=1))
        plan = resolve(session, (LV_BLOCK,))
        assert [(len(g), g.merged) for g in plan.groups] == [(1, True)]
        assert plan.predicted_passes == 1
        for group in plan.groups:
            session.execute_group(group)
        assert session.schedule_passes == plan.predicted_passes
        if lane_kernel.load() is not None:
            assert lane_passes == [1]

    def test_padded_victim_merge_prediction_matches_execution(self, session):
        """Regression: a mixed 0/8/16-entry victim campaign merges into
        one padded mega-group, and the planner's pass accounting agrees
        with what the executor then actually spends (one pass)."""
        configs = (LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10)
        plan = resolve(session, configs)
        assert len(plan.groups) == 1 and plan.groups[0].merged
        assert len(plan.groups[0]) == len(configs) * SETTINGS.n_fault_maps
        assert plan.predicted_passes == 1
        for group in plan.groups:
            session.execute_group(group)
        assert session.schedule_passes == plan.predicted_passes

    def test_empty_plan_predicts_zero(self, session):
        session.run_all(session.spec(CONFIGS))
        plan = resolve(session)
        assert plan.pending == 0
        assert plan.predicted_passes == 0


class _RecordingPool(PoolExecutor):
    """A two-worker pool run in-process that records every dispatch
    batch it is handed."""

    def __init__(self) -> None:
        super().__init__(workers=2)
        self.batches: list = []

    def _make_pool(self, session, workers, epoch):
        return None

    def _shutdown(self, pool):
        pass

    def _submit(self, pool, session, chunk):
        self.batches.extend(chunk.batches)
        worker = Session(session.settings)
        results = [
            pair for batch in chunk.batches for pair in run_batch_locally(worker, batch)
        ]
        future: Future = Future()
        future.set_result((0, (0, 0, 0, 0), results))
        return future


class TestWorkerBatches:
    def test_pool_consumes_the_same_plan_objects(self, session):
        """The pool's dispatch units are exactly the plan's groups, in
        order."""
        plan = resolve(session)
        assert len(plan.groups) > 1
        pool = _RecordingPool()
        session.run_all(session.spec(CONFIGS), executor=pool)
        assert pool.batches == [
            [item.task for item in group.items] for group in plan.groups
        ]


class TestDescribe:
    def test_dry_run_rendering(self, session):
        session.simulate("gzip", LV_BLOCK, 0)
        plan = resolve(session)
        text = plan.describe()
        assert "work items : 8 (1 already in store, 7 to simulate)" in text
        assert "predicted schedule passes" in text
        assert "gzip" in text
        assert "baseline" in text

    def test_empty_plan_rendering(self, session):
        session.run_all(session.spec((LV_BASELINE,)))
        plan = resolve(session, (LV_BASELINE,))
        assert "nothing to simulate" in plan.describe()
