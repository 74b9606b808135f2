"""Shared fixtures: paper geometries, small fast geometries, fault maps."""

from __future__ import annotations

import numpy as np
import pytest

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
