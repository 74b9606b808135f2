"""Behavioural set-associative cache with per-set disabled ways.

This is the substrate every disabling scheme runs on.  The cache itself
knows nothing about faults or voltage: it is configured with a boolean
*enabled-way* matrix (num_sets x ways) and simply never allocates into a
disabled way.  Block-disabling hands it a fault-derived matrix (variable
associativity per set, Section III); word-disabling hands it a halved
geometry with all ways enabled; the baseline enables everything.

Addresses are *block addresses* (byte address >> offset bits) — the
hierarchy layer does the shifting once so the hot loop stays cheap.

State is stored **flat**: ``_tags``/``_dirty``/``_last_touch``/
``_fill_time`` are single lists indexed ``set * ways + way``, and an
invalid way holds the sentinel tag -1 (block-address tags are
non-negative, so the sentinel can never alias a resident block).  A way
that is *disabled* also holds -1 forever: fills never select it, so
lookups need no usable-way filtering at all.

The flat state (those lists, the ``_resident`` index and the per-set
``_usable_ways``/``_fully_enabled`` tables) is built **lazily**, on the
first read of any of them, by :meth:`SetAssociativeCache._materialise`:

* a fresh cache builds its construction defaults, so building a
  hierarchy costs O(1) however large its L2 is;
* after a lane-kernel pass (:mod:`repro.cache.engine`) the cache holds a
  *pending view* instead — its lane of the pass's arrays — and builds
  the lists from that lane's final contents.

A campaign reads only the statistics of a pass, which are written
eagerly, so its caches never build a list.  Materialised state lives in
plain instance attributes: ``__getattr__`` runs only while an attribute
is missing, never once the lists exist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cache.replacement import ReplacementPolicy, make_policy
from repro.cache.stats import CacheStats
from repro.faults.geometry import CacheGeometry

if TYPE_CHECKING:
    from repro.cache.engine import VectorCache

#: The lazily built flat state (see module docstring).
_LAZY_STATE = frozenset(
    (
        "_tags",
        "_dirty",
        "_last_touch",
        "_fill_time",
        "_resident",
        "_usable_ways",
        "_fully_enabled",
    )
)


class SetAssociativeCache:
    """A set-associative cache over block addresses.

    Parameters
    ----------
    geometry:
        Shape of the cache (sets/ways/block size).
    enabled_ways:
        Optional boolean matrix ``(num_sets, ways)``; ``False`` marks a way
        that must never hold data (a disabled block).  ``None`` enables all.
    policy:
        Replacement policy name (``lru``/``fifo``/``random``) or instance.
    name:
        Label used in stats and error messages.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        enabled_ways: np.ndarray | None = None,
        policy: str | ReplacementPolicy = "lru",
        name: str = "cache",
        seed: int = 0,
    ) -> None:
        self.geometry = geometry
        self.name = name
        self.stats = CacheStats()
        num_sets = geometry.num_sets
        ways = geometry.ways

        if enabled_ways is not None:
            enabled_ways = np.asarray(enabled_ways, dtype=bool)
            if enabled_ways.shape != (num_sets, ways):
                raise ValueError(
                    f"enabled_ways shape {enabled_ways.shape} does not match "
                    f"({num_sets}, {ways})"
                )
        # ``None`` is the fully-enabled case (baseline, word-disable,
        # every high-voltage cache, the L2).
        self._enabled = enabled_ways

        if isinstance(policy, str):
            policy = make_policy(policy, seed=seed)
        self._policy = policy

        # The flat state is built on first read (see module docstring);
        # until then a finished lane-kernel pass may leave its lane here.
        self._pending: "tuple[VectorCache, int] | None" = None
        self._clock = 0

        self._ways = ways
        self._set_mask = num_sets - 1
        # tag of a block address = block_addr >> index_bits
        self._tag_shift = geometry.index_bits

    # ----- lazy flat state ------------------------------------------------------

    def __getattr__(self, name: str):
        # Reached only when ``name`` is not an instance attribute yet: the
        # first read of the lazy state builds all of it.
        if name not in _LAZY_STATE:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._materialise()
        return self.__dict__[name]

    def _materialise(self) -> None:
        """Build the flat state: construction defaults for a fresh cache,
        or the final contents of the pending kernel lane."""
        num_sets = self.geometry.num_sets
        ways = self._ways
        if self._enabled is None:
            all_ways = tuple(range(ways))
            usable: list[tuple[int, ...]] = [all_ways] * num_sets
            fully_enabled = [True] * num_sets
        else:
            # Usable way indices per set (hot path reads only; tuples are
            # cheaper to iterate and can never be mutated by a scheme).
            usable = [tuple(np.flatnonzero(row).tolist()) for row in self._enabled]
            fully_enabled = [len(u) == ways for u in usable]
        state = self.__dict__
        state["_usable_ways"] = usable
        state["_fully_enabled"] = fully_enabled
        pending = self._pending
        if pending is None:
            n = num_sets * ways
            # -1 tags mark both invalid and disabled ways, so the lookup
            # probe needs no validity or usability scan.
            state["_tags"] = [-1] * n
            state["_dirty"] = [False] * n
            state["_last_touch"] = [0] * n
            state["_fill_time"] = [0] * n
            # Residency index: block address -> flat way index.  Kept
            # exactly in sync with ``_tags`` by fill/invalidate/flush, it
            # turns the hit probe into a single dict lookup without
            # touching any decision the per-set state makes.
            state["_resident"] = {}
        else:
            view, lane = pending
            self._pending = None
            state.update(view.lane_state(lane))

    def adopt_lane(self, view: "VectorCache", lane: int, clock: int) -> None:
        """Take lane ``lane`` of a finished lane-kernel pass as this cache's
        contents, pending until the flat state is next read (the lane
        engine's write-back path)."""
        state = self.__dict__
        for name in _LAZY_STATE:
            state.pop(name, None)
        self._pending = (view, lane)
        self._clock = clock

    # ----- capacity/introspection --------------------------------------------------

    @property
    def usable_blocks(self) -> int:
        """Number of ways that may hold data (== capacity in blocks)."""
        if self._enabled is None:
            return self.geometry.num_blocks
        return int(self._enabled.sum())

    @property
    def capacity_fraction(self) -> float:
        return self.usable_blocks / self.geometry.num_blocks

    def usable_ways_in_set(self, set_index: int) -> int:
        return len(self._usable_ways[set_index])

    def resident_blocks(self) -> set[int]:
        """Block addresses currently cached (for invariant checks)."""
        return set(self._resident)

    # ----- core operations ----------------------------------------------------------

    def lookup(self, block_addr: int, is_write: bool = False) -> bool:
        """Probe for ``block_addr``; update recency and stats.  Returns hit."""
        self._clock += 1
        self.stats.accesses += 1
        index = self._resident.get(block_addr)
        if index is not None:
            self._last_touch[index] = self._clock
            if is_write:
                self._dirty[index] = True
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def fill(self, block_addr: int, is_write: bool = False) -> int | None:
        """Allocate ``block_addr``, evicting if needed.

        Returns the evicted block address, or ``None`` if nothing (valid)
        was evicted.  If the set has zero usable ways the fill is *bypassed*
        (the access was already counted as a miss; the block simply cannot
        be cached) — this is how a fully-disabled set behaves under
        block-disabling.
        """
        self._clock += 1
        index = self._resident.get(block_addr)
        if index is not None:
            # Refill of an already-resident block.  The demand path never
            # does this (fills follow misses; the prefetcher checks
            # contains() first), but direct API use can: refresh the
            # existing way rather than allocating a duplicate — the
            # residency index is single-valued by construction.
            if is_write:
                self._dirty[index] = True
            self._last_touch[index] = self._clock
            self._fill_time[index] = self._clock
            self.stats.fills += 1
            return None
        s = block_addr & self._set_mask
        usable = self._usable_ways[s]
        if not usable:
            self.stats.bypassed_fills += 1
            return None
        tag = block_addr >> self._tag_shift
        ways = self._ways
        base = s * ways
        tags = self._tags
        # Prefer an invalid usable way.
        victim_way = -1
        segment = tags[base : base + ways]
        if -1 in segment:
            if self._fully_enabled[s]:
                victim_way = segment.index(-1)
            else:
                for w in usable:
                    if tags[base + w] == -1:
                        victim_way = w
                        break
        evicted = None
        if victim_way < 0:
            victim_way = self._policy.victim(
                usable,
                self._last_touch[base : base + ways],
                self._fill_time[base : base + ways],
            )
            index = base + victim_way
            evicted = (tags[index] << self._tag_shift) | s
            del self._resident[evicted]
            if self._dirty[index]:
                self.stats.writebacks += 1
            self.stats.evictions += 1
        index = base + victim_way
        tags[index] = tag
        self._resident[block_addr] = index
        self._dirty[index] = is_write
        self._last_touch[index] = self._clock
        self._fill_time[index] = self._clock
        self.stats.fills += 1
        return evicted

    def invalidate(self, block_addr: int) -> bool:
        """Drop ``block_addr`` if present.  Returns whether it was resident."""
        index = self._resident.pop(block_addr, None)
        if index is None:
            return False
        self._tags[index] = -1
        self._dirty[index] = False
        return True

    def contains(self, block_addr: int) -> bool:
        """Non-mutating probe (no stats, no recency update)."""
        return block_addr in self._resident

    def flush(self) -> None:
        """Invalidate everything (keeps stats)."""
        n = len(self._tags)
        self._tags[:] = [-1] * n
        self._dirty[:] = [False] * n
        self._resident.clear()
