"""Fault analysis of victim-cache arrays (Section V's 6T sizing argument).

The 6T victim-cache option adds one 10T disable bit per victim entry and
loses whichever entries turn out faulty at low voltage.  The paper sizes its
evaluation conservatively: "we assume that half of the victim cache entries
will contain a fault ... analysis with pfail of 0.001 reveals that the mean
number of faulty victim cache blocks is 6.5" (of 16).

This module provides that analysis for arbitrary victim-cache shapes: the
expected number of usable entries and the distribution over usable-entry
counts, reusing the binomial machinery of Eq. 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis import binomial


@dataclass(frozen=True)
class VictimCacheFaultAnalysis:
    """Fault statistics of an ``entries``-deep victim cache whose entries
    each expose ``cells_per_entry`` 6T cells to low-voltage faults."""

    entries: int
    cells_per_entry: int
    pfail: float

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"entries must be positive, got {self.entries}")
        if self.cells_per_entry <= 0:
            raise ValueError(
                f"cells_per_entry must be positive, got {self.cells_per_entry}"
            )
        if not 0.0 <= self.pfail <= 1.0:
            raise ValueError(f"pfail must be a probability, got {self.pfail!r}")

    @property
    def entry_fault_probability(self) -> float:
        """Probability a single victim entry contains >= 1 faulty cell."""
        return 1.0 - (1.0 - self.pfail) ** self.cells_per_entry

    @property
    def mean_faulty_entries(self) -> float:
        """Paper's quoted statistic: 6.5 of 16 at pfail = 0.001 for 512-bit
        entries."""
        return self.entries * self.entry_fault_probability

    @property
    def mean_usable_entries(self) -> float:
        return self.entries - self.mean_faulty_entries

    def usable_entries_pmf(self) -> np.ndarray:
        """PMF over the number of usable entries, index 0..entries."""
        x = np.arange(self.entries + 1)
        return binomial.pmf(x, self.entries, 1.0 - self.entry_fault_probability)

    def prob_usable_at_least(self, count: int) -> float:
        """P[usable entries >= count] — e.g. how often the conservative
        8-entry sizing of Section V is pessimistic."""
        if not 0 <= count <= self.entries:
            raise ValueError(f"count must be in [0, {self.entries}], got {count}")
        return float(
            binomial.sf(count - 1, self.entries, 1.0 - self.entry_fault_probability)
        )

    def conservative_usable_entries(self, quantile: float = 0.05) -> int:
        """Usable-entry count at the given lower quantile; the paper's
        "assume half are faulty" corresponds to roughly the 20% quantile of
        this distribution at pfail = 0.001."""
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        return int(
            binomial.ppf(
                quantile, self.entries, 1.0 - self.entry_fault_probability
            )
        )


def paper_victim_analysis(pfail: float = 0.001) -> VictimCacheFaultAnalysis:
    """The paper's 16-entry, 64B-per-entry victim cache (512 data cells)."""
    return VictimCacheFaultAnalysis(entries=16, cells_per_entry=512, pfail=pfail)
