"""The compiled lane kernel: gating, caching, its ctx ABI, one call per
pass, ``run()`` routing, and bit-identity with the reference loop.

The kernel is an optional accelerator — ``REPRO_NO_CKERNEL=1``, a
missing compiler, or a failed build must all leave behaviour unchanged:
``run()`` then takes the reference loop and ``run_batch`` runs every
lane through it.  These tests pin the load gates, the ctx layout the
Python side hands the kernel, which runs ``run()`` sends through it,
and, when a kernel is available, drive batches through it and require
results identical to the reference loop (cycles and every statistic).
"""

from __future__ import annotations

import os
import re
import subprocess

import numpy as np
import pytest

from repro.cache.engine import LANE_COUNTERS
from repro.campaign.session import Session
from repro.campaign.spec import RunnerSettings
from repro.cpu import lane_kernel
from repro.cpu.frontend import REG_FILE_SLOTS
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.experiments.configs import (
    LV_BLOCK,
    LV_BLOCK_V6,
    LV_BLOCK_V10,
    LV_INCREMENTAL,
)

SETTINGS = RunnerSettings(
    n_instructions=4_000,
    warmup_instructions=1_000,
    n_fault_maps=4,
    benchmarks=("gzip",),
)
WARMUP = SETTINGS.warmup_instructions

kernel_available = pytest.mark.skipif(
    lane_kernel.load() is None, reason="no compiled lane kernel on this host"
)


@pytest.fixture(scope="module")
def session() -> Session:
    return Session(SETTINGS)


def _run_batch(session, config, indices, benchmark="gzip"):
    trace = session.trace(benchmark)
    pipelines = [session.build_pipeline(config, m) for m in indices]
    results = OutOfOrderPipeline.run_batch(pipelines, trace, measure_from=WARMUP)
    return results, pipelines


def _run_sequential(session, config, indices, benchmark="gzip"):
    """The oracle: one reference-loop run per lane."""
    trace = session.trace(benchmark)
    pipelines = [session.build_pipeline(config, m) for m in indices]
    results = [p._run_reference(trace, measure_from=WARMUP) for p in pipelines]
    return results, pipelines


def _hetero_pipelines(session):
    """Four lanes with 0/8/16-entry victim caches on both sides."""
    return [
        session.build_pipeline(LV_BLOCK, 0),
        session.build_pipeline(LV_BLOCK_V6, 0),
        session.build_pipeline(LV_BLOCK_V10, 0),
        session.build_pipeline(LV_BLOCK_V10, 1),
    ]


def _recency_order(cache) -> list[list[int]]:
    """Per set, the valid ways from least to most recently touched.  The
    kernel stamps and the reference loop's clocks differ in value, not
    in order, so this is what both paths must agree on."""
    ways = cache.geometry.ways
    tags = cache._tags
    last = cache._last_touch
    order = []
    for base in range(0, len(tags), ways):
        valid = [w for w in range(ways) if tags[base + w] >= 0]
        order.append(sorted(valid, key=lambda w: last[base + w]))
    return order


def _forbid_lanes(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("entered the lane-batched pass")

    monkeypatch.setattr(OutOfOrderPipeline, "_run_lanes", staticmethod(boom))


class TestGating:
    def test_env_override_disables_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert lane_kernel.load() is None

    def test_ctx_layout_is_dense_and_unique(self):
        slots = sorted(lane_kernel.CTX.values())
        assert len(slots) == len(set(slots))
        assert max(slots) < lane_kernel.CTX_SLOTS
        # Every slot the C body reads is in the table and vice versa —
        # the L2, victim and counter slots included.
        body = lane_kernel._C_BODY
        read = set(re.findall(r"(?:I64P|U8P)\((P_\w+)\)", body))
        read |= set(re.findall(r"ctx\[([A-Z][A-Z0-9_]*)\]", body))
        read |= set(re.findall(r"ctx \+ ([A-Z]+)", body))
        assert read == set(lane_kernel.CTX)
        for name in (
            "P_L2TAGS", "P_L2LAST", "P_L2FILLT",
            "P_VITAGS", "P_VISTAMP", "P_VIINS",
            "P_VDTAGS", "P_VDSTAMP", "P_VDINS",
            "P_IDIRTY", "P_IFILLT", "P_DFILLT", "P_CBASE", "P_COUNTS",
        ):
            assert name in lane_kernel.CTX

    @kernel_available
    def test_kernel_memoised_per_process(self):
        assert lane_kernel.load() is lane_kernel.load()

    def test_no_kernel_runs_lanes_sequentially(self, session, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        _forbid_lanes(monkeypatch)
        batched, _ = _run_batch(session, LV_BLOCK_V6, range(2))
        assert batched == _run_sequential(session, LV_BLOCK_V6, range(2))[0]


@kernel_available
class TestKernelVsFallback:
    """The kernel pass against the reference loop — the path ``run()``
    and ``run_batch`` take when no kernel is available."""

    @pytest.mark.parametrize(
        "config", [LV_BLOCK, LV_BLOCK_V10, LV_INCREMENTAL]
    )
    def test_results_bit_identical(self, session, config, monkeypatch):
        indices = range(SETTINGS.n_fault_maps)
        with_kernel, _ = _run_batch(session, config, indices)
        sequential, _ = _run_sequential(session, config, indices)
        assert with_kernel == sequential
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert lane_kernel.load() is None
        _forbid_lanes(monkeypatch)
        without, _ = _run_batch(session, config, indices)
        assert without == sequential

    def test_hierarchy_state_writeback_matches(self, session):
        """The kernel pass must leave the statistics and cache contents
        of a sequential run behind on every lane's hierarchy (the
        post-batch warm-reuse contract)."""
        indices = range(SETTINGS.n_fault_maps)
        _, with_kernel = _run_batch(session, LV_BLOCK_V10, indices)
        _, sequential = _run_sequential(session, LV_BLOCK_V10, indices)
        for pk, ps in zip(with_kernel, sequential):
            assert pk.hierarchy.stats() == ps.hierarchy.stats()
            for level in ("l1i", "l1d", "l2"):
                a = getattr(pk.hierarchy, level)
                b = getattr(ps.hierarchy, level)
                assert a._tags == b._tags
                assert a._dirty == b._dirty
                assert a._resident == b._resident
                assert _recency_order(a) == _recency_order(b)
            for side in ("victim_i", "victim_d"):
                a = getattr(pk.hierarchy, side)
                b = getattr(ps.hierarchy, side)
                assert a._tags == b._tags

    def test_padded_heterogeneous_victims(self, session):
        """A mixed 0/8/16-entry victim batch exercises the padded slot
        axis and the ``insertable`` mask inside the kernel."""
        trace = session.trace("gzip")
        with_kernel = OutOfOrderPipeline.run_batch(
            _hetero_pipelines(session), trace, measure_from=WARMUP
        )
        sequential = [
            p._run_reference(trace, measure_from=WARMUP)
            for p in _hetero_pipelines(session)
        ]
        assert with_kernel == sequential


@kernel_available
class TestLazyWriteback:
    """A kernel pass leaves cache contents pending: only a read of a
    cache's flat state builds it, from that cache's own lane."""

    @pytest.fixture()
    def materialised(self, monkeypatch) -> list:
        """Every cache that builds its flat state during the test."""
        from repro.cache.set_assoc import SetAssociativeCache

        real = SetAssociativeCache._materialise
        built: list = []

        def counting(cache):
            built.append(cache)
            real(cache)

        monkeypatch.setattr(SetAssociativeCache, "_materialise", counting)
        return built

    def test_campaign_group_builds_no_cache_state(
        self, materialised, kernel_calls
    ):
        session = Session(SETTINGS)
        session.trace("gzip")
        items = [(LV_BLOCK_V10, m) for m in range(SETTINGS.n_fault_maps)]
        results = session.run_group("gzip", items)
        assert len(results) == SETTINGS.n_fault_maps >= 2
        assert session.schedule_passes == 1
        assert len(kernel_calls) == 1
        assert materialised == []

    def test_reverse_lane_reads_match_each_lane(self, session, materialised):
        indices = range(SETTINGS.n_fault_maps)
        _, with_kernel = _run_batch(session, LV_BLOCK_V10, indices)
        _, sequential = _run_sequential(session, LV_BLOCK_V10, indices)
        materialised.clear()
        levels = ("l2", "l1d", "l1i")
        for pk, ps in reversed(list(zip(with_kernel, sequential))):
            for level in levels:
                a = getattr(pk.hierarchy, level)
                b = getattr(ps.hierarchy, level)
                assert a._tags == b._tags
                assert a._dirty == b._dirty
                assert a._resident == b._resident
                assert a._usable_ways == b._usable_ways
                assert a._fully_enabled == b._fully_enabled
                assert _recency_order(a) == _recency_order(b)
                # Invalid ways keep the recency they started with, never
                # a stamp sentinel.
                invalid = [i for i, t in enumerate(a._tags) if t < 0]
                assert [a._last_touch[i] for i in invalid] == [
                    b._last_touch[i] for i in invalid
                ]
        assert len(materialised) == len(with_kernel) * len(levels)
        # The lanes really differ, so a row from the wrong lane shows.
        l1d_tags = [p.hierarchy.l1d._tags for p in with_kernel]
        assert all(
            l1d_tags[i] != l1d_tags[j]
            for i in range(len(l1d_tags))
            for j in range(i)
        )


@kernel_available
class TestOneCallPerPass:
    @pytest.mark.parametrize("measure_from", [WARMUP, 0])
    def test_heterogeneous_batch_makes_one_kernel_call(
        self, session, kernel_calls, measure_from
    ):
        trace = session.trace("gzip")
        results = OutOfOrderPipeline.run_batch(
            _hetero_pipelines(session), trace, measure_from=measure_from
        )
        assert len(kernel_calls) == 1
        assert results == [
            p._run_reference(trace, measure_from=measure_from)
            for p in _hetero_pipelines(session)
        ]


def _hierarchy(policy="lru", prefetch_degree=0, l2_enabled=None):
    """A low-voltage Table III hierarchy with the knobs the kernel does
    not take: a replacement policy, a prefetcher, a block-disabled L2."""
    from repro.cache.hierarchy import MemoryHierarchy
    from repro.cache.set_assoc import SetAssociativeCache
    from repro.cpu.config import L1_GEOMETRY, L2_GEOMETRY, LOW_VOLTAGE

    return MemoryHierarchy(
        SetAssociativeCache(L1_GEOMETRY, policy=policy, name="l1i", seed=1),
        SetAssociativeCache(L1_GEOMETRY, policy=policy, name="l1d", seed=2),
        SetAssociativeCache(
            L2_GEOMETRY, enabled_ways=l2_enabled, policy=policy, name="l2", seed=3
        ),
        LOW_VOLTAGE.latencies(),
        prefetch_degree=prefetch_degree,
    )


def _disabled_l2_matrix():
    """About 42% of L2 blocks disabled, as in the ``abl-l2`` study."""
    from repro.cpu.config import L2_GEOMETRY

    rng = np.random.default_rng(5)
    return rng.random((L2_GEOMETRY.num_sets, L2_GEOMETRY.ways)) > 0.42


def _reused(session):
    pipeline = session.build_pipeline(LV_BLOCK_V10, 0)
    pipeline._run_reference(session.trace("gzip"), measure_from=WARMUP)
    return pipeline


#: Pipelines ``run()`` must keep on the reference loop.
OFF_KERNEL = {
    "prefetcher": lambda s: OutOfOrderPipeline(
        s.pipeline_config, _hierarchy(prefetch_degree=1)
    ),
    "fifo": lambda s: OutOfOrderPipeline(s.pipeline_config, _hierarchy("fifo")),
    "random": lambda s: OutOfOrderPipeline(s.pipeline_config, _hierarchy("random")),
    "disabled-l2": lambda s: OutOfOrderPipeline(
        s.pipeline_config, _hierarchy(l2_enabled=_disabled_l2_matrix())
    ),
    "reused": _reused,
}


@kernel_available
class TestRunRouting:
    """``run()`` is one kernel call wherever a one-lane pass applies and
    the reference loop everywhere else, bit-identical either way."""

    def test_eligible_run_makes_one_kernel_call(self, session, kernel_calls):
        trace = session.trace("gzip")
        expected = session.build_pipeline(LV_BLOCK_V10, 0)._run_reference(
            trace, measure_from=WARMUP
        )
        pipeline = session.build_pipeline(LV_BLOCK_V10, 0)
        assert pipeline.run(trace, measure_from=WARMUP) == expected
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("case", sorted(OFF_KERNEL))
    def test_ineligible_run_takes_the_reference_loop(
        self, session, monkeypatch, kernel_calls, case
    ):
        trace = session.trace("gzip")
        build = OFF_KERNEL[case]
        expected = build(session)._run_reference(trace, measure_from=WARMUP)
        _forbid_lanes(monkeypatch)
        pipeline = build(session)
        assert pipeline.batch_key() is None
        assert pipeline.run(trace, measure_from=WARMUP) == expected
        assert not kernel_calls

    def test_no_kernel_run_takes_the_reference_loop(
        self, session, monkeypatch, kernel_calls
    ):
        trace = session.trace("gzip")
        expected = session.build_pipeline(LV_BLOCK_V10, 0)._run_reference(
            trace, measure_from=WARMUP
        )
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        _forbid_lanes(monkeypatch)
        pipeline = session.build_pipeline(LV_BLOCK_V10, 0)
        assert pipeline.batch_key() is not None
        assert pipeline.run(trace, measure_from=WARMUP) == expected
        assert not kernel_calls


@kernel_available
class TestContextABI:
    def test_every_pointer_slot_addresses_a_matching_array(self, session):
        """Each ``P_*`` slot must hold the address of a live C-contiguous
        array of the dtype and length the kernel indexes."""
        pipelines = _hetero_pipelines(session)
        trace = session.trace("gzip")
        ctx, arrays, lanes, schedule = OutOfOrderPipeline._kernel_context(
            pipelines, trace, WARMUP
        )
        L = len(pipelines)
        n = len(trace)
        cfg = session.pipeline_config
        hier = pipelines[0].hierarchy
        n_ia = len(schedule.iaccess_line)
        n_rd = len(schedule.redirect_static_next)
        i64, b8 = np.dtype(np.int64), np.dtype(np.bool_)

        def way_count(cache):
            return cache.geometry.num_sets * cache.geometry.ways

        expected = {
            **{
                name: (i64, n)
                for name in (
                    "P_CLS", "P_SRC1", "P_SRC2", "P_DEST", "P_ROBCOL",
                    "P_IQCOL", "P_DBLOCKS", "P_SPS",
                )
            },
            "P_IAIDX": (i64, n_ia + 1),  # sentinel-terminated
            "P_IALINES": (i64, n_ia),
            "P_RDIDX": (i64, n_rd + 1),
            "P_RDSNEXT": (i64, n_rd),
            "P_REG": (i64, REG_FILE_SLOTS * L),
            "P_ROB": (i64, cfg.rob_entries * L),
            "P_IQINT": (i64, cfg.iq_int_entries * L),
            "P_IQFP": (i64, cfg.iq_fp_entries * L),
            "P_POOL0": (i64, cfg.int_alu_units * L),
            "P_POOL1": (i64, cfg.int_mul_units * L),
            "P_POOL2": (i64, cfg.fp_alu_units * L),
            "P_POOL3": (i64, cfg.fp_mul_units * L),
            "P_PORTS": (i64, cfg.issue_width * L),
            **{name: (i64, L) for name in ("P_DYN", "P_FETCHBASE", "P_V", "P_CBASE")},
            "P_COUNTS": (i64, 2 * len(LANE_COUNTERS) * L),
        }
        for side, cache in (("I", hier.l1i), ("D", hier.l1d), ("L2", hier.l2)):
            for field in ("TAGS", "LAST", "FILLT"):
                expected[f"P_{side}{field}"] = (i64, way_count(cache) * L)
        for side, l1, attr in (
            ("I", hier.l1i, "victim_i"), ("D", hier.l1d, "victim_d")
        ):
            expected[f"P_{side}DIRTY"] = (b8, way_count(l1) * L)
            # padded to the largest lane's victim cache (16 entries here)
            entries = max(
                getattr(p.hierarchy, attr).entries
                for p in pipelines
                if getattr(p.hierarchy, attr) is not None
            )
            expected[f"P_V{side}TAGS"] = (i64, entries * L)
            expected[f"P_V{side}STAMP"] = (i64, entries * L)
            expected[f"P_V{side}INS"] = (b8, L)

        pointer_slots = {k for k in lane_kernel.CTX if k.startswith("P_")}
        assert set(expected) == pointer_slots == set(arrays)
        for name, (dtype, length) in expected.items():
            array = arrays[name]
            assert ctx[lane_kernel.CTX[name]] != 0, name
            assert ctx[lane_kernel.CTX[name]] == array.ctypes.data, name
            assert array.flags.c_contiguous, name
            assert array.dtype == dtype, name
            assert array.size == length, name
        # The cache arrays are the bulk engine's own, updated in place.
        assert arrays["P_L2TAGS"] is lanes.l2.tags
        assert arrays["P_VDSTAMP"] is lanes.victims_d.stamp
        assert arrays["P_COUNTS"] is lanes.counts


@kernel_available
class TestBuildCache:
    def test_shared_object_cached_by_source_hash(self):
        cache_dir = os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
            __import__("tempfile").gettempdir(),
            f"repro-lane-kernel-{os.getuid()}",
        )
        objects = [
            name
            for name in os.listdir(cache_dir)
            if name.startswith("lane_kernel_") and name.endswith(".so")
        ]
        assert objects, "kernel loaded but no cached shared object found"


class TestBuildFailureWarning:
    @pytest.fixture(autouse=True)
    def fresh_build_state(self, monkeypatch, tmp_path):
        # Each test gets an empty kernel cache and pristine module state,
        # restored afterwards so other tests keep the real kernel.
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.setattr(lane_kernel, "_cached_fn", None)
        monkeypatch.setattr(lane_kernel, "_build_failed", False)
        monkeypatch.setattr(lane_kernel, "_warned", False)

    def test_gcc_failure_warns_once_with_stderr_tail(self, monkeypatch):
        def failing_gcc(*args, **kwargs):
            raise subprocess.CalledProcessError(
                1, ["gcc"], stderr=b"lane_kernel.c:1:1: error: something broke\n"
            )

        monkeypatch.setattr(lane_kernel.subprocess, "run", failing_gcc)
        with pytest.warns(RuntimeWarning, match="something broke"):
            assert lane_kernel.load() is None
        # One-shot: the failure is memoised and the warning never repeats.
        import warnings as warnings_module

        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert lane_kernel.load() is None

    def test_missing_compiler_warns_with_cause(self, monkeypatch):
        def no_gcc(*args, **kwargs):
            raise FileNotFoundError("No such file or directory: 'gcc'")

        monkeypatch.setattr(lane_kernel.subprocess, "run", no_gcc)
        with pytest.warns(RuntimeWarning, match="sequential runs"):
            assert lane_kernel.load() is None
