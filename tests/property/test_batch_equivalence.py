"""Property-based equivalence: fused/batched runs vs per-op sequential.

The lane-batched engine (and, where available, the compiled lane
kernel riding inside it) promises bit-identity with N sequential fused
runs on *any* trace, not just the generator's benchmark profiles.
Hypothesis drives randomly-structured traces — arbitrary class mixes,
register patterns, branch shapes, and memory streams — through both
paths across heterogeneous victim-cache lanes and asserts the results
are equal, cycles and statistics alike.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.cpu.isa import NO_REGISTER, InstrClass
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.cpu.trace import Trace
from repro.experiments.configs import LV_BLOCK, LV_BLOCK_V6, LV_BLOCK_V10

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=3,
    benchmarks=("gzip",),
)

SESSION = Session(SETTINGS)

#: (config, map_index) lanes mixing victim sizings (0/8/16 entries) so
#: every example also exercises the padded victim slot axis.
LANE_ITEMS = (
    (LV_BLOCK, 0),
    (LV_BLOCK_V6, 1),
    (LV_BLOCK_V10, 2),
)


def random_trace(seed: int, n: int) -> Trace:
    """A structurally-arbitrary committed-instruction trace: random
    class mix, dependence patterns, jumpy control flow, and a memory
    stream with a little locality (so hits and misses both occur)."""
    rng = random.Random(seed)
    trace = Trace(name=f"prop-{seed}")
    pc = 0x1000
    mem_bases = [rng.randrange(0, 1 << 18) << 6 for _ in range(4)]
    targets = [0x1000 + 4 * rng.randrange(0, 4 * n) for _ in range(8)]
    classes = list(InstrClass)
    for _ in range(n):
        cls = rng.choice(classes)
        mem_addr = -1
        taken = False
        if cls.is_memory:
            mem_addr = rng.choice(mem_bases) + 4 * rng.randrange(0, 256)
        src1 = rng.randrange(0, 64) if rng.random() < 0.8 else NO_REGISTER
        src2 = rng.randrange(0, 64) if rng.random() < 0.4 else NO_REGISTER
        dest = rng.randrange(0, 64) if rng.random() < 0.6 else NO_REGISTER
        if cls.is_control:
            taken = rng.random() < 0.6
        trace.append(pc, cls, mem_addr, src1, src2, dest, taken)
        pc = rng.choice(targets) if taken else pc + 4
    return trace


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=200, max_value=800),
    warm_frac=st.sampled_from([0.0, 0.3]),
)
@settings(max_examples=15, deadline=None)
def test_batched_matches_sequential_on_random_traces(seed, n, warm_frac):
    trace = random_trace(seed, n)
    measure_from = int(n * warm_frac)
    sequential = [
        SESSION.build_pipeline(config, m).run(trace, measure_from=measure_from)
        for config, m in LANE_ITEMS
    ]
    pipelines = [SESSION.build_pipeline(config, m) for config, m in LANE_ITEMS]
    batched = OutOfOrderPipeline.run_batch(
        pipelines, trace, measure_from=measure_from, min_lanes=1
    )
    assert batched == sequential


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_same_map_lanes_agree_on_random_traces(seed):
    """Identical lanes through one batch must produce identical results
    (catches any cross-lane state bleed in the fused kernels)."""
    trace = random_trace(seed, 400)
    pipelines = [SESSION.build_pipeline(LV_BLOCK, 0) for _ in range(3)]
    results = OutOfOrderPipeline.run_batch(
        pipelines, trace, measure_from=0, min_lanes=1
    )
    assert results[0] == results[1] == results[2]
