"""Golden bit-identity suite: both engines vs the locked fixtures.

``golden_sim.json`` was generated by the pre-engine object path (see
``golden_scenarios.py``).  Every scenario — all disabling schemes at both
voltages, victim caches, prefetching, all replacement policies, thinned and
fully-disabled sets, non-Table-II widths — must reproduce its cycles,
branch statistics, and full hierarchy statistics exactly, on the object
path *and* on the fused engine.  Any divergence is a simulator-semantics
change and fails CI (stats divergence, not timing).
"""

from __future__ import annotations

import pytest

from golden_scenarios import (
    MEASURE_FROM,
    _small_hierarchy,
    _thinned_matrix,
    _traces,
    load_golden,
    result_record,
    run_scenario,
    scenarios,
)

_SCENARIOS = {name: (cfg, make, trace) for name, cfg, make, trace in scenarios()}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def traces():
    return _traces()


def test_fixture_covers_every_scenario(golden):
    assert set(golden) == set(_SCENARIOS)


@pytest.mark.parametrize("engine", ["object", "fused"])
@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_golden_bit_identity(name, engine, golden, traces):
    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    result = run_scenario(
        pipeline_config, make_hierarchy(), traces[trace_name], engine=engine
    )
    assert result_record(result) == golden[name], (
        f"{name} diverged on the {engine} engine"
    )


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_golden_bit_identity_batched(name, golden, traces):
    """Every scenario must also reproduce its goldens through the
    lane-batched engine: two identical lanes run in one batch, and both
    must match the locked record exactly.  Scenarios the vectorised path
    cannot take (prefetchers, non-LRU policies) exercise the sequential
    fallback — same contract either way."""
    from repro.cpu.pipeline import OutOfOrderPipeline

    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    pipelines = [
        OutOfOrderPipeline(pipeline_config, make_hierarchy()) for _ in range(2)
    ]
    results = OutOfOrderPipeline.run_batch(
        pipelines, traces[trace_name], measure_from=MEASURE_FROM
    )
    for lane, result in enumerate(results):
        assert result_record(result) == golden[name], (
            f"{name} diverged on the batched engine (lane {lane})"
        )


def test_mixed_bypass_batch_matches_sequential(traces):
    """Lanes with fully disabled L1I and L1D sets share one batch with
    fault-free and victim-cache lanes: every lane must match its own
    sequential run, and only the thinned lanes may bypass fills."""
    from repro.cpu.config import PAPER_PIPELINE
    from repro.cpu.pipeline import OutOfOrderPipeline

    builders = [
        ("thinned", lambda: _small_hierarchy(
            enabled_i=_thinned_matrix(21), enabled_d=_thinned_matrix(22))),
        ("fault-free", lambda: _small_hierarchy()),
        ("thinned-victim4", lambda: _small_hierarchy(
            enabled_i=_thinned_matrix(23), enabled_d=_thinned_matrix(24),
            victim_entries=4)),
        ("victim4", lambda: _small_hierarchy(victim_entries=4)),
    ]
    trace = traces["gzip"]
    pipelines = [OutOfOrderPipeline(PAPER_PIPELINE, make()) for _, make in builders]
    assert OutOfOrderPipeline._can_run_batch(pipelines)
    batched = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=MEASURE_FROM)
    for (label, make), result in zip(builders, batched):
        expected = OutOfOrderPipeline(PAPER_PIPELINE, make()).run(
            trace, measure_from=MEASURE_FROM
        )
        assert result_record(result) == result_record(expected), label
        stats = result.hierarchy_stats
        bypassed = stats["l1i"]["bypassed_fills"] + stats["l1d"]["bypassed_fills"]
        assert (bypassed > 0) == label.startswith("thinned"), label


def test_pipeline_reuse_stays_identical(traces):
    """A pipeline reused across runs must behave like the object path:
    the second run starts with trained predictors and warm caches (it
    falls off the schedule-driven fast path onto the generic fused loop)."""
    name = "lv-baseline"
    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    trace = traces[trace_name]

    from repro.cpu.pipeline import OutOfOrderPipeline

    obj = OutOfOrderPipeline(pipeline_config, make_hierarchy(), engine="object")
    fused = OutOfOrderPipeline(pipeline_config, make_hierarchy(), engine="fused")
    for _ in range(2):
        expected = obj.run(trace, measure_from=MEASURE_FROM)
        got = fused.run(trace, measure_from=MEASURE_FROM)
        assert result_record(got) == result_record(expected)
