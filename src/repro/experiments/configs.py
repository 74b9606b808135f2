"""Experiment configurations: the rows of Table III as code.

A :class:`RunConfig` names a (scheme, voltage, victim cache) combination.
A campaign session resolves it against the Table II/III constants and a
fault map to build the simulator.  Victim sizing follows Section V: 16
usable entries for the 10T victim cache, 8 for the 6T one at low voltage
(the conservative "half the entries are faulty" assumption).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.schemes import VoltageMode
from repro.cpu.config import VICTIM_ENTRIES, VICTIM_ENTRIES_6T_LOW_VOLTAGE


@dataclass(frozen=True)
class RunConfig:
    """One simulator configuration (a Table III row)."""

    label: str
    scheme: str  # registry name in repro.core.SCHEMES
    voltage: VoltageMode
    victim_entries: int = 0

    @property
    def needs_fault_map(self) -> bool:
        """Whether performance varies with the fault draw.

        Only fault-shaped caches do: block-disabling and incremental
        word-disabling at low voltage.  Word-disabling at low voltage is a
        fixed half-capacity cache (fault maps only decide the usable/
        unusable verdict), and every high-voltage cache is fault-free.
        """
        if self.voltage is VoltageMode.HIGH:
            return False
        return self.scheme in ("block-disable", "incremental-word-disable")


# ----- low-voltage rows (Table III, bottom half) ---------------------------------

LV_BASELINE = RunConfig("baseline", "baseline", VoltageMode.LOW)
LV_BASELINE_V = RunConfig("baseline+V$", "baseline", VoltageMode.LOW, VICTIM_ENTRIES)
LV_WORD = RunConfig("word disabling", "word-disable", VoltageMode.LOW)
LV_WORD_V = RunConfig(
    "word disabling+V$", "word-disable", VoltageMode.LOW, VICTIM_ENTRIES
)
LV_BLOCK = RunConfig("block disabling", "block-disable", VoltageMode.LOW)
LV_BLOCK_V10 = RunConfig(
    "block disabling+V$ 10T", "block-disable", VoltageMode.LOW, VICTIM_ENTRIES
)
LV_BLOCK_V6 = RunConfig(
    "block disabling+V$ 6T",
    "block-disable",
    VoltageMode.LOW,
    VICTIM_ENTRIES_6T_LOW_VOLTAGE,
)
LV_INCREMENTAL = RunConfig(
    "incremental word disabling", "incremental-word-disable", VoltageMode.LOW
)

# ----- high-voltage rows (Table III, top half) ------------------------------------

HV_BASELINE = RunConfig("baseline", "baseline", VoltageMode.HIGH)
HV_BASELINE_V = RunConfig("baseline+V$", "baseline", VoltageMode.HIGH, VICTIM_ENTRIES)
HV_WORD = RunConfig("word disabling", "word-disable", VoltageMode.HIGH)
HV_WORD_V = RunConfig(
    "word disabling+V$", "word-disable", VoltageMode.HIGH, VICTIM_ENTRIES
)
HV_BLOCK = RunConfig("block disabling", "block-disable", VoltageMode.HIGH)
HV_BLOCK_V = RunConfig(
    "block disabling+V$", "block-disable", VoltageMode.HIGH, VICTIM_ENTRIES
)

ALL_CONFIGS = (
    LV_BASELINE,
    LV_BASELINE_V,
    LV_WORD,
    LV_WORD_V,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_BLOCK_V6,
    LV_INCREMENTAL,
    HV_BASELINE,
    HV_BASELINE_V,
    HV_WORD,
    HV_WORD_V,
    HV_BLOCK,
    HV_BLOCK_V,
)
