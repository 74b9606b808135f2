"""Golden bit-identity suite: both execution paths vs the locked fixtures.

``golden_sim.json`` was generated on the object path (see
``golden_scenarios.py``).  Every scenario — all disabling schemes at both
voltages, victim caches, prefetching, all replacement policies, thinned and
fully-disabled sets, non-Table-II widths — must reproduce its cycles,
branch statistics, and full hierarchy statistics exactly, on the reference
loop *and* through ``run()``, which takes the compiled lane kernel for
every LRU scenario without a prefetcher.  Any divergence is a
simulator-semantics change and fails CI (stats divergence, not timing).
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
from repro.cache.replacement import LRUPolicy
from repro.cpu import lane_kernel

_SCENARIOS = {name: (cfg, make, trace) for name, cfg, make, trace in scenarios()}


@pytest.fixture(scope="module")
def golden():
    return load_golden()


@pytest.fixture(scope="module")
def traces():
    return _traces()


def test_fixture_covers_every_scenario(golden):
    assert set(golden) == set(_SCENARIOS)


def _lru_without_prefetcher(hierarchy) -> bool:
    caches = (hierarchy.l1i, hierarchy.l1d, hierarchy.l2)
    return all(type(c._policy) is LRUPolicy for c in caches) and (
        hierarchy.iport.prefetcher is None and hierarchy.dport.prefetcher is None
    )


#: ``object`` is the reference loop over the object hierarchy, ``run`` is
#: ``run()`` (the lane kernel wherever it applies).
@pytest.mark.parametrize("path", ["object", "run"])
@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_golden_bit_identity(name, path, golden, traces, kernel_calls):
    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    hierarchy = make_hierarchy()
    result = run_scenario(
        pipeline_config, hierarchy, traces[trace_name],
        reference=path == "object",
    )
    assert result_record(result) == golden[name], (
        f"{name} diverged on the {path} path"
    )
    if path == "object":
        assert not kernel_calls
    elif lane_kernel.load() is not None:
        # run() must take the kernel exactly where it applies.
        assert len(kernel_calls) == int(_lru_without_prefetcher(hierarchy)), name


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
        expected = OutOfOrderPipeline(PAPER_PIPELINE, make())._run_reference(
            trace, measure_from=MEASURE_FROM
        )
        assert result_record(result) == result_record(expected), label
        stats = result.hierarchy_stats
        bypassed = stats["l1i"]["bypassed_fills"] + stats["l1d"]["bypassed_fills"]
        assert (bypassed > 0) == label.startswith("thinned"), label


def test_pipeline_reuse_stays_identical(traces):
    """A pipeline reused across runs must behave like the reference
    loop: the second run starts with trained predictors and warm caches
    (the first ``run()`` is a kernel pass, the second the reference
    loop over the state that pass wrote back)."""
    name = "lv-baseline"
    pipeline_config, make_hierarchy, trace_name = _SCENARIOS[name]
    trace = traces[trace_name]

    from repro.cpu.pipeline import OutOfOrderPipeline

    reference = OutOfOrderPipeline(pipeline_config, make_hierarchy())
    pipeline = OutOfOrderPipeline(pipeline_config, make_hierarchy())
    for _ in range(2):
        expected = reference._run_reference(trace, measure_from=MEASURE_FROM)
        got = pipeline.run(trace, measure_from=MEASURE_FROM)
        assert result_record(got) == result_record(expected)
