"""Session.simulate_maps: store dedup, order, figure identity."""

from __future__ import annotations

from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.cpu import lane_kernel
from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=5,
    benchmarks=("gzip",),
)


def test_batched_results_match_legacy_path(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setenv("REPRO_NO_CKERNEL", "1")  # the reference loop
        per_map = Session(SETTINGS)
        expected = [
            per_map.simulate("gzip", LV_BLOCK, m)
            for m in range(SETTINGS.n_fault_maps)
        ]
    batched = Session(SETTINGS)
    assert batched.simulate_maps("gzip", LV_BLOCK) == expected
    # Everything was stored under the same keys the per-map path uses.
    for m in range(SETTINGS.n_fault_maps):
        assert batched.cached("gzip", LV_BLOCK, m) == expected[m]


def test_batch_skips_stored_lanes():
    session = Session(SETTINGS)
    session.simulate("gzip", LV_BLOCK, 1)
    session.simulate("gzip", LV_BLOCK, 3)
    executed_before = session.simulations_executed
    results = session.simulate_maps("gzip", LV_BLOCK)
    assert len(results) == SETTINGS.n_fault_maps
    assert session.simulations_executed == executed_before + 3
    # A second pass is a pure store read.
    assert session.simulate_maps("gzip", LV_BLOCK) == results
    assert session.simulations_executed == executed_before + 3


def test_fault_independent_config_collapses():
    session = Session(SETTINGS)
    results = session.simulate_maps("gzip", LV_WORD)
    assert results == [session.simulate("gzip", LV_WORD)]
    assert session.simulations_executed == 1


def test_subset_and_order_preserved():
    session = Session(SETTINGS)
    subset = session.simulate_maps("gzip", LV_BLOCK, [3, 0, 3])
    assert subset[0] == session.simulate("gzip", LV_BLOCK, 3)
    assert subset[1] == session.simulate("gzip", LV_BLOCK, 0)
    assert subset[2] == subset[0]


def test_narrow_chunks_use_per_map_path(lane_passes):
    """A single pending map is exactly one one-lane kernel pass (the
    same pass a per-map ``simulate`` takes)."""
    session = Session(SETTINGS)
    session.simulate_maps("gzip", LV_BLOCK, [0, 1, 3, 4])
    results = session.simulate_maps("gzip", LV_BLOCK)
    assert len(results) == SETTINGS.n_fault_maps
    assert session.schedule_passes == 2
    if lane_kernel.load() is not None:
        assert lane_passes == [4, 1]


def test_normalized_series_identical_across_paths():
    """Series read from per-map ``simulate`` results equal the batched
    ones."""
    per_map = Session(SETTINGS)
    per_map.simulate("gzip", LV_BASELINE)
    for m in range(SETTINGS.n_fault_maps):
        per_map.simulate("gzip", LV_BLOCK, m)
    executed = per_map.simulations_executed
    batched = Session(SETTINGS)
    assert per_map.normalized_series(
        LV_BLOCK, LV_BASELINE
    ) == batched.normalized_series(LV_BLOCK, LV_BASELINE)
    # The per-map series was pure store reads.
    assert per_map.simulations_executed == executed
