"""Session.simulate_maps: store dedup, lane widths, figure identity."""

from __future__ import annotations

import pytest

import repro.campaign.session as session_module
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.experiments.configs import LV_BASELINE, LV_BLOCK, LV_WORD

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=5,
    benchmarks=("gzip",),
)


@pytest.fixture(autouse=True)
def _wide_open_batching(monkeypatch):
    """The suite's tiny map counts sit below the production crossover;
    drop it so these tests exercise the vectorised path.  Sessions
    resolve the crossover from the session module at use time, so
    patching there reaches every session built below."""
    monkeypatch.setattr(session_module, "MIN_BATCH_LANES", 2)


def test_batched_results_match_legacy_path():
    per_map = Session(SETTINGS, lanes=1)
    batched = Session(SETTINGS)
    expected = [
        per_map.simulate("gzip", LV_BLOCK, m) for m in range(SETTINGS.n_fault_maps)
    ]
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


def test_lane_width_bounds_batches():
    narrow = Session(SETTINGS, lanes=2)
    wide = Session(SETTINGS)
    assert narrow.simulate_maps("gzip", LV_BLOCK) == wide.simulate_maps(
        "gzip", LV_BLOCK
    )


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


def test_normalized_series_identical_across_paths():
    per_map = Session(SETTINGS, lanes=1)
    batched = Session(SETTINGS)
    assert per_map.normalized_series(
        LV_BLOCK, LV_BASELINE
    ) == batched.normalized_series(LV_BLOCK, LV_BASELINE)


def test_invalid_lane_width_rejected():
    with pytest.raises(ValueError):
        Session(SETTINGS, lanes=0)


def test_narrow_chunks_use_per_map_path(monkeypatch):
    """Below the crossover the session must not pay vectorisation
    overhead: the batched engine is never invoked."""
    monkeypatch.setattr(session_module, "MIN_BATCH_LANES", 16)
    session = Session(SETTINGS)

    def boom(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("vectorised path used below the crossover")

    monkeypatch.setattr(
        session_module.OutOfOrderPipeline, "run_batch", staticmethod(boom)
    )
    results = session.simulate_maps("gzip", LV_BLOCK)
    assert len(results) == SETTINGS.n_fault_maps


def test_settings_crossover_override_beats_module_default(monkeypatch):
    """``RunnerSettings(min_batch_lanes=...)`` wins over the module
    constant: raising it keeps this suite's 5-map chunks sequential even
    with the fixture's wide-open module patch."""
    settings = RunnerSettings(
        n_instructions=SETTINGS.n_instructions,
        warmup_instructions=SETTINGS.warmup_instructions,
        n_fault_maps=SETTINGS.n_fault_maps,
        benchmarks=SETTINGS.benchmarks,
        min_batch_lanes=16,
    )
    session = Session(settings)
    assert session.min_batch_lanes == 16

    def boom(*args, **kwargs):  # pragma: no cover - guard
        raise AssertionError("vectorised path used despite the override")

    monkeypatch.setattr(
        session_module.OutOfOrderPipeline, "run_batch", staticmethod(boom)
    )
    results = session.simulate_maps("gzip", LV_BLOCK)
    assert len(results) == settings.n_fault_maps


def test_crossover_overrides_never_enter_specs():
    """The batching knobs are execution policy, not campaign identity:
    two sessions differing only in crossovers produce identical specs
    (and therefore identical store task keys)."""
    plain = Session(SETTINGS)
    tuned = Session(
        RunnerSettings(
            n_instructions=SETTINGS.n_instructions,
            warmup_instructions=SETTINGS.warmup_instructions,
            n_fault_maps=SETTINGS.n_fault_maps,
            benchmarks=SETTINGS.benchmarks,
            min_batch_lanes=2,
            min_mega_lanes=8,
        )
    )
    assert tuned.min_batch_lanes == 2
    assert tuned.min_mega_lanes == 8
    assert plain.spec((LV_BLOCK,)) == tuned.spec((LV_BLOCK,))
    assert plain.task_key("gzip", LV_BLOCK, 0) == tuned.task_key("gzip", LV_BLOCK, 0)


def test_crossover_overrides_accepted_by_session_run():
    """A session with crossover overrides must run its own specs: the
    spec-reconstructed settings hold the knob defaults, so the fidelity
    check has to adopt the session's execution knobs before comparing
    (regression: ``--min-batch-lanes`` used to raise the
    wrong-fidelity ValueError on every figure)."""
    settings = RunnerSettings(
        n_instructions=SETTINGS.n_instructions,
        warmup_instructions=SETTINGS.warmup_instructions,
        n_fault_maps=SETTINGS.n_fault_maps,
        benchmarks=SETTINGS.benchmarks,
        min_batch_lanes=1,
        min_mega_lanes=999,
    )
    with session_module.Session(settings) as session:
        spec = session.spec((LV_BLOCK,))
        for _event in session.run(spec):
            pass
        derived = session.derived(spec)
        assert derived.min_batch_lanes == 1
        assert derived.min_mega_lanes == 999
        assert session.store.get(session.task_key("gzip", LV_BLOCK, 0)) is not None
