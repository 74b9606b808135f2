"""Lane-batched cache state: N hierarchies as NumPy arrays with a lane axis.

The object model (:class:`~repro.cache.set_assoc.SetAssociativeCache`,
:class:`~repro.cache.hierarchy.CachePort`, victim cache, prefetcher) is the
construction and verification substrate: schemes configure it, tests
introspect it, its semantics define correctness, and the pipeline's
reference loop drives it access by access.

:class:`BulkLanes` compiles N structurally identical hierarchies — one
per fault map — into lane-major arrays the compiled lane kernel
(:mod:`repro.cpu.lane_kernel`) updates in place.  After the pass
:meth:`BulkLanes.finalize` writes every lane's statistics to its object
hierarchy, and leaves the cache contents *pending*: each object cache
takes the pass's final clock and keeps a view of its lane (the
:class:`VectorCache` and the lane index), from which it builds its flat
lists only when something reads them — a warm rerun, a test inspecting
tags.  A campaign
reads only the statistics, so its caches never build the lists and the
pass's arrays are freed with its hierarchies.  A single
:meth:`OutOfOrderPipeline.run <repro.cpu.pipeline.OutOfOrderPipeline.run>`
is a one-lane batch.

Bit-identity with the object model is the contract: cycles,
hit/miss/eviction/writeback counts, every LRU decision, and victim
behaviour all match.  :func:`bulk_signature` names what the lanes do not
model (non-LRU policies, a fault-disabled L2); such hierarchies stay on
the reference loop.  ``tests/integration/test_golden_sim.py`` pins both
paths to the same goldens.
"""

from __future__ import annotations

import numpy as np

from repro.cache.hierarchy import MemoryHierarchy
from repro.cache.replacement import LRUPolicy
from repro.cache.set_assoc import SetAssociativeCache
from repro.cache.victim import VictimCache

# The bulk engine widens the object caches' flat state (the ``set * ways
# + way`` layout :class:`SetAssociativeCache` stores) by one axis: every
# per-way quantity becomes a NumPy array with a *lane* dimension, one lane
# per fault map.  The compiled lane kernel (:mod:`repro.cpu.lane_kernel`)
# works on these arrays in place through raw pointers: it probes each
# lane's set, and services a lane's miss — victim swap, shared-L2 probe
# and refill, L1 refill, evictee insertion — before moving to the next.
#
# Recency is tracked with *stamps* instead of per-lane clocks: the stamp
# of an access is a trace-static, strictly increasing function of the
# instruction index, identical in every lane.  Within one lane each cache
# sees at most one stamped event per instruction, so stamp order equals
# the object caches' clock order and every LRU decision — including
# the invalid-way preference, encoded by initialising invalid usable ways
# to a stamp below any real one, and disabled ways to one above all
# (``BIG_STAMP``) — is bit-identical.  Statistics are per-lane ``int64``
# counters (:data:`LANE_COUNTERS`) the kernel bumps for measured-region
# events only; :meth:`BulkLanes.finalize` turns them into ``CacheStats``.

#: Stamp sentinel ordering: disabled ways stay above every real stamp
#: (never chosen by the LRU argmin), invalid usable ways below (always
#: preferred, first index winning ties exactly like the sequential scan).
BIG_STAMP = 1 << 62


class VectorCache:
    """Multi-lane flat state of one cache level.

    Every array is lane-major and C-contiguous — ``tags``/``last``/
    ``dirty``/``fillt`` all ``[lane, flat_index]`` with ``flat_index =
    set * ways + way`` — so one offset (``lane * n + set_base + way``)
    addresses a way across all four arrays, and a set's ways are
    contiguous for the probe and the LRU argmin.
    """

    __slots__ = (
        "caches",
        "ways",
        "set_mask",
        "tag_shift",
        "n",
        "tags",
        "last",
        "dirty",
        "fillt",
        "orig_last",
    )

    def __init__(self, caches: list[SetAssociativeCache]) -> None:
        geometry = caches[0].geometry
        for cache in caches:
            if cache.geometry != geometry:
                raise ValueError("lane caches must share one geometry")
        self.caches = list(caches)
        self.ways = geometry.ways
        self.set_mask = geometry.num_sets - 1
        self.tag_shift = geometry.index_bits
        n = geometry.num_sets * geometry.ways
        self.n = n
        lanes = len(caches)
        self.tags = np.full((lanes, n), -1, dtype=np.int64)
        self.last = np.zeros((lanes, n), dtype=np.int64)
        self.dirty = np.zeros((lanes, n), dtype=np.bool_)
        self.fillt = np.zeros((lanes, n), dtype=np.int64)
        # A cache whose clock never moved still holds its construction
        # defaults (-1/0/False/0), which the arrays start with: reading
        # nothing from it keeps a fresh campaign batch O(lanes) and never
        # builds its lists.
        warm = False
        for lane, cache in enumerate(caches):
            if cache._clock == 0:
                continue
            warm = True
            self.tags[lane] = cache._tags
            self.last[lane] = cache._last_touch
            self.dirty[lane] = cache._dirty
            self.fillt[lane] = cache._fill_time
        # Recency the pass leaves at still-invalid positions (all zero
        # when every lane started fresh).
        self.orig_last = self.last.copy() if warm else None
        # Stamp sentinels (see module comment).  A set with no usable way
        # in a lane is all ``BIG_STAMP`` there, which is how the kernel
        # recognises a fill bypass.
        self.last[self.tags == -1] = -1
        for lane, cache in enumerate(caches):
            if cache._enabled is not None:
                disabled = ~cache._enabled.reshape(-1)
                self.last[lane, disabled] = BIG_STAMP

    def max_clock(self) -> int:
        return max(cache._clock for cache in self.caches)

    def sync(self, clock: int) -> None:
        """Leave every lane's contents pending on its object cache, which
        builds them (:meth:`lane_state`) only if its flat state is ever
        read.  The caches are released so the pending views hold no
        reference cycle: the arrays go as soon as the last cache does."""
        for lane, cache in enumerate(self.caches):
            cache.adopt_lane(self, lane, clock)
        self.caches = []

    def lane_state(self, lane: int) -> dict:
        """Lane ``lane``'s contents in the object cache's flat layout.
        Stamp sentinels at still-invalid/disabled positions are replaced
        by the original recency (those ways were never touched)."""
        tags = self.tags[lane]
        valid = tags >= 0
        orig_last = 0 if self.orig_last is None else self.orig_last[lane]
        index = np.flatnonzero(valid)
        blocks = (tags[index] << self.tag_shift) | (index // self.ways)
        return {
            "_tags": tags.tolist(),
            "_dirty": self.dirty[lane].tolist(),
            "_last_touch": np.where(valid, self.last[lane], orig_last).tolist(),
            "_fill_time": self.fillt[lane].tolist(),
            "_resident": dict(zip(blocks.tolist(), index.tolist())),
        }


class VectorVictims:
    """Multi-lane victim-cache state.

    The LRU list becomes ``tags[lane, slot]`` plus an insertion stamp per
    slot: eviction picks the minimal stamp (the list head), empty slots
    carry the stamp sentinel ``empty_stamp = -(entries + 1)`` — strictly
    below every occupied stamp — so they are preferred exactly like an
    append, and a hit extracts by writing the slot back to empty.
    Initial contents get stamps ``position - entries`` (above the empty
    sentinel, below any run stamp), preserving their order.  Slot
    positions themselves carry no meaning — all operations are
    content-based — so lanes stay bit-identical to the sequential list
    implementation, including partially warm victim caches.

    Lanes need not share one sizing: the slot axis is padded to the
    largest lane's entry count, and a lane's slots beyond its own
    capacity carry tag ``-1`` (probes never match) with stamp
    ``BIG_STAMP`` (strictly above every run stamp, so the insert-path
    ``argmin`` never evicts into them).  Lanes with *no* victim cache
    (``None``, the 0-entry configuration) additionally skip inserts via
    the :attr:`insertable` mask, so 0/8/16-entry configurations — e.g.
    the paper's three disabling schemes — batch as one lane group.
    """

    __slots__ = (
        "victims",
        "entries",
        "tags",
        "stamp",
        "empty_stamp",
        "insertable",
    )

    def __init__(self, victims: "list[VictimCache | None]") -> None:
        lane_entries = [v.entries if v is not None else 0 for v in victims]
        entries = max(lane_entries)
        if entries == 0:
            raise ValueError("need at least one lane with victim entries")
        self.victims = list(victims)
        self.entries = entries
        self.empty_stamp = -(entries + 1)
        lanes = len(victims)
        self.tags = np.full((lanes, entries), -1, dtype=np.int64)
        self.stamp = np.full((lanes, entries), self.empty_stamp, dtype=np.int64)
        for lane, victim in enumerate(victims):
            if victim is None:
                continue
            cap = victim.entries
            self.stamp[lane, cap:entries] = BIG_STAMP  # padded slots
            for j, block in enumerate(victim._tags):  # LRU -> MRU order
                self.tags[lane, j] = block
                self.stamp[lane, j] = j - entries
        #: Per-lane insert eligibility: ``False`` for lanes with no
        #: victim cache, whose L1 evictees are dropped.
        self.insertable = np.array([e > 0 for e in lane_entries], dtype=np.bool_)

    def sync(self) -> None:
        for lane, victim in enumerate(self.victims):
            if victim is None:
                continue
            occupied = [
                (int(self.stamp[lane, j]), int(self.tags[lane, j]))
                for j in range(victim.entries)
                if self.tags[lane, j] >= 0
            ]
            occupied.sort()
            victim._tags[:] = [block for _, block in occupied]


def bulk_signature(hierarchy: MemoryHierarchy) -> "tuple | None":
    """The hierarchy's bulk-engine eligibility signature, or ``None``.

    Two hierarchies can share one lane batch iff both return
    equal non-``None`` signatures: LRU replacement everywhere (the stamp
    encoding is an LRU-order argument) and a fully-enabled L2 (the kernel's
    L2 refill has no fill-bypass port; the paper's L2 is always
    fault-free) are hard requirements.  Victim sizing is *not* part of
    the signature: :class:`VectorVictims` pads heterogeneous sizings to
    the largest lane's entry count (masked invalid slots), so 0/8/16-
    entry configurations — contents may differ arbitrarily too — merge
    into one lane group.  The mega-batch planner groups campaign work
    items by this key, so configurations that diverge structurally land
    in separate batches instead of tripping the sequential fallback.
    """
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        if type(cache._policy) is not LRUPolicy:
            return None
    if hierarchy.l2._enabled is not None:
        return None
    return ()


#: Per-lane statistics the lane kernel accumulates for the measured
#: region, one ``[port, counter, lane]`` row per name (port 0 is the
#: I-side, 1 the D-side).  The L2 rows count the port's own L2 traffic.
LANE_COUNTERS = (
    "misses",
    "bypassed",
    "evictions",
    "writebacks",
    "victim_hits",
    "victim_evictions",
    "l2_hits",
    "l2_evictions",
)


class BulkLanes:
    """N structurally identical hierarchies compiled for one batched run.

    Lanes may differ in cache *contents* — fault maps, enabled ways,
    victim/L2 residency — and in victim *sizing* (padded to the largest
    lane, see :class:`VectorVictims`), but share geometry, latencies,
    and LRU policies (checked by :func:`bulk_signature` inside
    :meth:`OutOfOrderPipeline.batch_key
    <repro.cpu.pipeline.OutOfOrderPipeline.batch_key>`).  :attr:`counts` holds the
    per-lane :data:`LANE_COUNTERS` the lane kernel fills in.
    """

    def __init__(self, hierarchies: list[MemoryHierarchy]) -> None:
        if not hierarchies:
            raise ValueError("need at least one lane")
        self.hierarchies = list(hierarchies)
        lanes = len(hierarchies)
        self.lanes = lanes
        self.l1i = VectorCache([h.l1i for h in hierarchies])
        self.l1d = VectorCache([h.l1d for h in hierarchies])
        self.l2 = VectorCache([h.l2 for h in hierarchies])
        vi = [h.victim_i for h in hierarchies]
        vd = [h.victim_d for h in hierarchies]
        self.victims_i = (
            VectorVictims(vi) if any(v is not None for v in vi) else None
        )
        self.victims_d = (
            VectorVictims(vd) if any(v is not None for v in vd) else None
        )
        #: Stamps start above twice every initial clock so they dominate
        #: every pre-existing recency value in every lane (see module
        #: comment; instruction i stamps 2i/2i+1 on the I/D side).
        self.stamp_base = (
            2 * max(self.l1i.max_clock(), self.l1d.max_clock(), self.l2.max_clock())
            + 2
        )
        self.counts = np.zeros((2, len(LANE_COUNTERS), lanes), dtype=np.int64)

    def finalize(self, measured_i_accesses: int, measured_d_accesses: int, clock: int) -> None:
        """Turn the measured-region counters into every lane's statistics,
        written to the object hierarchies, and leave each cache's contents
        pending on it (:meth:`VectorCache.sync`); victim caches, a few
        entries each, are written back directly."""
        rows = [
            dict(zip(LANE_COUNTERS, port.tolist())) for port in self.counts
        ]
        ports = tuple(
            zip((measured_i_accesses, measured_d_accesses), rows)
        )
        for lane, hierarchy in enumerate(self.hierarchies):
            l2_accesses = l2_hits = l2_evictions = 0
            sides = (
                (hierarchy.l1i, hierarchy.victim_i, hierarchy.iport),
                (hierarchy.l1d, hierarchy.victim_d, hierarchy.dport),
            )
            for (cache, victim, port), (accesses, c) in zip(sides, ports):
                misses = c["misses"][lane]
                bypassed = c["bypassed"][lane]
                evictions = c["evictions"][lane]
                stats = cache.stats
                stats.accesses = accesses
                stats.misses = misses
                stats.hits = accesses - misses
                stats.bypassed_fills = bypassed
                stats.fills = misses - bypassed
                stats.evictions = evictions
                stats.writebacks = c["writebacks"][lane]
                victim_hits = 0
                if victim is not None:
                    victim_hits = c["victim_hits"][lane]
                    stats = victim.stats
                    stats.accesses = misses
                    stats.hits = victim_hits
                    stats.misses = misses - victim_hits
                    stats.fills = evictions
                    stats.evictions = c["victim_evictions"][lane]
                    stats.bypassed_fills = 0
                    stats.writebacks = 0
                port_l2 = misses - victim_hits
                port.memory_accesses = port_l2 - c["l2_hits"][lane]
                l2_accesses += port_l2
                l2_hits += c["l2_hits"][lane]
                l2_evictions += c["l2_evictions"][lane]
            stats = hierarchy.l2.stats
            stats.accesses = l2_accesses
            stats.hits = l2_hits
            stats.misses = l2_accesses - l2_hits
            stats.fills = stats.misses
            stats.evictions = l2_evictions
            stats.bypassed_fills = 0
            stats.writebacks = 0
        self.l1i.sync(clock)
        self.l1d.sync(clock)
        self.l2.sync(clock)
        if self.victims_i is not None:
            self.victims_i.sync()
        if self.victims_d is not None:
            self.victims_d.sync()
