"""Analytic model of Wilkerson et al.'s bit-fix scheme (Section II context).

The paper compares against word-disabling but notes that the same ISCA 2008
work also proposed **bit-fix**: sacrifice a quarter of the cache ways to
store repair patches ("fix bits") for the remaining ways, repairing faults
at *bit-pair* granularity.  The paper does not simulate bit-fix (its deeper
merging logic costs more latency than word-disabling for an L1); we model
its capacity/failure behaviour analytically so the three ISCA/ISPASS
schemes can be placed on one capacity-vs-pfail chart.

Model (parameterised, defaults follow the ISCA 2008 description):

* the cache runs at ``1 - sacrifice_fraction`` capacity (default 3/4);
* each protected block is divided into 2-bit *pairs*; a pair is broken if
  it contains >= 1 faulty cell;
* a block is repairable while it has at most ``pairs_tolerated`` broken
  pairs (default 10, the fix-bit budget per block of the ISCA design);
* one unrepairable block anywhere makes the whole cache unusable at low
  voltage — the same cliff structure as word-disabling (Eq. 4).

The qualitative placement this yields matches the published comparison:
bit-fix keeps more capacity than word-disabling (75% vs 50%) and tolerates
much higher pfail before its cliff, at the price of repair logic latency.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import binomial
from repro.faults.geometry import CacheGeometry


def pair_fault_probability(pfail: float) -> float:
    """Probability that a 2-bit pair contains at least one faulty cell."""
    if not 0.0 <= pfail <= 1.0:
        raise ValueError(f"pfail must be a probability, got {pfail!r}")
    return 1.0 - (1.0 - pfail) ** 2


def block_unrepairable_probability(
    pfail: float, data_bits: int = 512, pairs_tolerated: int = 10
) -> float:
    """Probability that a block has more broken pairs than the fix bits
    can repair."""
    if data_bits <= 0 or data_bits % 2 != 0:
        raise ValueError(f"data_bits must be positive and even, got {data_bits}")
    if pairs_tolerated < 0:
        raise ValueError(f"pairs_tolerated must be >= 0, got {pairs_tolerated}")
    n_pairs = data_bits // 2
    p_broken = pair_fault_probability(pfail)
    return float(binomial.sf(pairs_tolerated, n_pairs, p_broken))


def whole_cache_failure_probability(
    pfail: float,
    num_blocks: int = 512,
    data_bits: int = 512,
    pairs_tolerated: int = 10,
    sacrifice_fraction: float = 0.25,
) -> float:
    """Probability the bit-fix cache is unusable below Vcc-min: at least
    one *protected* block (the non-sacrificed fraction) is unrepairable."""
    if num_blocks <= 0:
        raise ValueError(f"num_blocks must be positive, got {num_blocks}")
    if not 0.0 < sacrifice_fraction < 1.0:
        raise ValueError("sacrifice_fraction must be in (0, 1)")
    protected = int(num_blocks * (1.0 - sacrifice_fraction))
    p_bad = block_unrepairable_probability(pfail, data_bits, pairs_tolerated)
    return float(-np.expm1(protected * np.log1p(-p_bad)))


def bitfix_capacity(
    pfail: float, sacrifice_fraction: float = 0.25, **_ignored: object
) -> float:
    """Capacity while usable: the non-sacrificed fraction (default 75%)."""
    if not 0.0 <= pfail <= 1.0:
        raise ValueError(f"pfail must be a probability, got {pfail!r}")
    if not 0.0 < sacrifice_fraction < 1.0:
        raise ValueError("sacrifice_fraction must be in (0, 1)")
    return 1.0 - sacrifice_fraction


def scheme_comparison(
    geometry: CacheGeometry, pfails: np.ndarray | list[float]
) -> dict[str, np.ndarray]:
    """Capacity-vs-pfail of block-disable, word-disable, and bit-fix on one
    grid, with whole-cache failures scored as zero capacity (expected
    capacity = capacity x P[usable])."""
    from repro.analysis.urn import expected_capacity_fraction
    from repro.analysis.word_disable import (
        whole_cache_failure_probability as wd_pwcf,
    )

    p = np.asarray(pfails, dtype=float)
    block = np.array(
        [expected_capacity_fraction(geometry.cells_per_block, float(pi)) for pi in p]
    )
    word = np.array(
        [0.5 * (1.0 - wd_pwcf(float(pi), geometry.num_blocks)) for pi in p]
    )
    bitfix = np.array(
        [
            bitfix_capacity(float(pi))
            * (
                1.0
                - whole_cache_failure_probability(
                    float(pi),
                    num_blocks=geometry.num_blocks,
                    data_bits=geometry.data_bits_per_block,
                )
            )
            for pi in p
        ]
    )
    return {"block-disable": block, "word-disable": word, "bit-fix": bitfix}
