"""Shared fixtures: paper geometries, small fast geometries, fault maps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpu import lane_kernel
from repro.cpu.pipeline import OutOfOrderPipeline
from repro.faults import PAPER_L1_GEOMETRY, CacheGeometry, FaultMap


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: a longer simulation test (still part of tier-1)"
    )


@pytest.fixture
def paper_geometry() -> CacheGeometry:
    """The paper's 32KB 8-way 64B-block running example (d=512, k=537)."""
    return PAPER_L1_GEOMETRY


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A small cache for fast behavioural tests: 4KB, 4-way, 64B blocks."""
    return CacheGeometry(size_bytes=4 * 1024, ways=4, block_bytes=64)


@pytest.fixture
def paper_fault_map(paper_geometry: CacheGeometry) -> FaultMap:
    """A deterministic pfail=0.001 fault map on the paper geometry."""
    return FaultMap.generate(paper_geometry, 0.001, seed=12345)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(99)


@pytest.fixture
def kernel_calls(monkeypatch) -> list:
    """Every call into the compiled lane kernel during the test (stays
    empty on a host without the kernel)."""
    real = lane_kernel.load()
    calls: list = []
    if real is not None:

        def counting(ctx_ptr):
            calls.append(ctx_ptr)
            return real(ctx_ptr)

        monkeypatch.setattr(lane_kernel, "_cached_fn", counting)
    return calls


@pytest.fixture
def lane_passes(monkeypatch) -> list:
    """The lane count of every ``_run_lanes`` pass during the test."""
    real = OutOfOrderPipeline._run_lanes
    passes: list = []

    def counting(pipelines, trace, measure_from):
        passes.append(len(pipelines))
        return real(pipelines, trace, measure_from)

    monkeypatch.setattr(OutOfOrderPipeline, "_run_lanes", staticmethod(counting))
    return passes
