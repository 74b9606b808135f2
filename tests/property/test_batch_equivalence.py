"""Property-based equivalence: batched runs vs the reference loop.

The lane-batched pass (the compiled lane kernel, or — without one — the
sequential fallback inside ``run_batch``) promises bit-identity with N
runs of the pipeline's reference loop on *any* trace and hierarchy, not
just the generator's benchmark profiles and the Table III caches.
Hypothesis drives randomly-structured traces — arbitrary class mixes,
register patterns, branch shapes, and memory streams — through both
paths, over 1 to 5 lanes drawn per example either from the 0/8/16-entry
victim configurations or from drawn L1/L2 geometries, latencies, victim
sizings and fault densities (from fault-free up to every set dead), and
asserts the results are equal, cycles and statistics alike.  The
reference loop is the only oracle: ``run()`` itself takes the kernel.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import LatencyConfig, MemoryHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.cpu.config import PAPER_PIPELINE
from repro.cpu.isa import NO_REGISTER, InstrClass
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.cpu.trace import Trace
from repro.experiments.configs import LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10
from repro.faults.geometry import CacheGeometry

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=3,
    benchmarks=("gzip",),
)

SESSION = Session(SETTINGS)

#: Victim sizings 0/8/16 entries: a drawn mix of these exercises the
#: padded victim slot axis and the insert mask.
CONFIGS = (LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10)

#: Byte stride that maps addresses onto the same L1 *and* L2 set (the
#: paper's 2MB 8-way L2 has 4096 sets of 64B blocks).
ALIAS_STRIDE = 4096 * 64


def random_trace(seed: int, n: int, aliased: bool = False) -> Trace:
    """A structurally-arbitrary committed-instruction trace: random
    class mix, dependence patterns, jumpy control flow, and a memory
    stream.  The default stream has a little locality (so hits and
    misses both occur); the ``aliased`` one spreads 48 blocks over two
    L1/L2 set pairs, so L1, victim and L2 evictions and writebacks all
    occur."""
    rng = random.Random(seed)
    trace = Trace(name=f"prop-{seed}")
    pc = 0x1000
    if aliased:
        blocks = [
            s * 64 + k * ALIAS_STRIDE for s in (5, 9) for k in range(1, 25)
        ]
    else:
        mem_bases = [rng.randrange(0, 1 << 18) << 6 for _ in range(4)]
    targets = [0x1000 + 4 * rng.randrange(0, 4 * n) for _ in range(8)]
    classes = list(InstrClass)
    for _ in range(n):
        cls = rng.choice(classes)
        mem_addr = -1
        taken = False
        if cls.is_memory:
            if aliased:
                mem_addr = rng.choice(blocks) + 4 * rng.randrange(0, 16)
            else:
                mem_addr = rng.choice(mem_bases) + 4 * rng.randrange(0, 256)
        src1 = rng.randrange(0, 64) if rng.random() < 0.8 else NO_REGISTER
        src2 = rng.randrange(0, 64) if rng.random() < 0.4 else NO_REGISTER
        dest = rng.randrange(0, 64) if rng.random() < 0.6 else NO_REGISTER
        if cls.is_control:
            taken = rng.random() < 0.6
        trace.append(pc, cls, mem_addr, src1, src2, dest, taken)
        pc = rng.choice(targets) if taken else pc + 4
    return trace


lane_items = st.lists(
    st.tuples(st.sampled_from(CONFIGS), st.integers(0, SETTINGS.n_fault_maps - 1)),
    min_size=1,
    max_size=5,
)


def _geometry(sets: int, ways: int, block_bytes: int) -> CacheGeometry:
    return CacheGeometry(
        size_bytes=sets * ways * block_bytes, ways=ways, block_bytes=block_bytes
    )


#: L1 shapes from one direct-mapped set up to 64 sets of 8 ways, with
#: 16-128 byte blocks; L2 shapes small enough to evict within a trace.
l1_geometries = st.builds(
    _geometry,
    st.sampled_from((1, 2, 4, 16, 64)),
    st.sampled_from((1, 2, 4, 8)),
    st.sampled_from((16, 32, 64, 128)),
)
l2_geometries = st.builds(
    _geometry,
    st.sampled_from((1, 4, 32, 256)),
    st.sampled_from((1, 2, 8)),
    st.just(64),
)
latency_configs = st.builds(
    LatencyConfig,
    l1i=st.integers(0, 5),
    l1d=st.integers(0, 5),
    victim=st.integers(0, 3),
    l2=st.integers(0, 30),
    memory=st.integers(0, 300),
)
#: Per lane: fault density, victim entries (both sides), fault-map seed.
drawn_lanes = st.lists(
    st.tuples(
        st.floats(0.0, 1.0),
        st.sampled_from((0, 1, 4, 8)),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=5,
)


def _enabled_ways(geometry: CacheGeometry, density: float, rng) -> np.ndarray:
    """Each way fails with probability ``density``, and so does each
    whole set: density 0 is fault-free, density 1 leaves no usable way."""
    enabled = rng.random((geometry.num_sets, geometry.ways)) >= density
    enabled[rng.random(geometry.num_sets) < density] = False
    return enabled


def drawn_pipeline(l1i, l1d, l2, latencies, density, victim_entries, seed):
    rng = np.random.default_rng(seed)
    hierarchy = MemoryHierarchy(
        SetAssociativeCache(l1i, enabled_ways=_enabled_ways(l1i, density, rng), name="l1i"),
        SetAssociativeCache(l1d, enabled_ways=_enabled_ways(l1d, density, rng), name="l1d"),
        SetAssociativeCache(l2, name="l2"),
        latencies,
        victim_entries_i=victim_entries,
        victim_entries_d=victim_entries,
    )
    return OutOfOrderPipeline(PAPER_PIPELINE, hierarchy)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=2000),
    lanes=lane_items,
    measure_last=st.booleans(),
    aliased=st.booleans(),
)
@example(seed=0, n=2, lanes=[(LV_BLOCK, 0), (LV_BLOCK_V10, 1)], measure_last=True, aliased=True)
@settings(max_examples=25, deadline=None)
def test_batched_matches_sequential_on_random_traces(
    seed, n, lanes, measure_last, aliased
):
    trace = random_trace(seed, n, aliased)
    measure_from = n - 1 if measure_last else 0
    sequential = [
        SESSION.build_pipeline(config, m)._run_reference(trace, measure_from)
        for config, m in lanes
    ]
    pipelines = [SESSION.build_pipeline(config, m) for config, m in lanes]
    batched = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=measure_from)
    assert batched == sequential


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=1500),
    l1i=l1_geometries,
    l1d=l1_geometries,
    l2=l2_geometries,
    latencies=latency_configs,
    lanes=drawn_lanes,
    measure_last=st.booleans(),
    aliased=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_reference_on_drawn_hierarchies(
    seed, n, l1i, l1d, l2, latencies, lanes, measure_last, aliased
):
    trace = random_trace(seed, n, aliased)
    measure_from = n - 1 if measure_last else 0
    shape = (l1i, l1d, l2, latencies)
    expected = [
        drawn_pipeline(*shape, *lane)._run_reference(trace, measure_from)
        for lane in lanes
    ]
    pipelines = [drawn_pipeline(*shape, *lane) for lane in lanes]
    assert OutOfOrderPipeline._can_run_batch(pipelines)
    assert OutOfOrderPipeline.run_batch(pipelines, trace, measure_from) == expected


def test_aliased_stream_exercises_every_eviction():
    """The aliased memory stream does what the property relies on: L1,
    victim and L2 evictions and L1 writebacks all occur in a batch."""
    trace = random_trace(7, 2000, aliased=True)
    pipelines = [SESSION.build_pipeline(c, 0) for c in CONFIGS]
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=0)
    stats = results[2].hierarchy_stats  # the 16-entry victim lane
    assert stats["l1d"]["evictions"] > 0
    assert stats["l1d"]["writebacks"] > 0
    assert stats["victim_d"]["hits"] > 0
    assert stats["victim_d"]["evictions"] > 0
    assert stats["l2"]["evictions"] > 0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_same_map_lanes_agree_on_random_traces(seed):
    """Identical lanes through one batch must produce identical results
    (catches any cross-lane state bleed in the kernel)."""
    trace = random_trace(seed, 400)
    pipelines = [SESSION.build_pipeline(LV_BLOCK, 0) for _ in range(3)]
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=0)
    assert results[0] == results[1] == results[2]
