"""One-pass trace-driven out-of-order timing model (sim-alpha substitute).

The paper evaluates with sim-alpha, a validated cycle-accurate Alpha 21264
simulator.  We replace it with a deterministic one-pass timing model that
computes, for every committed instruction, its dispatch, issue, completion,
and commit cycles from predecessor state.  The model honours the Table II
resources:

* 15-stage pipeline: a fixed front-end depth plus the I-cache hit latency
  separate fetch from dispatch, so branch mispredictions pay a full refill
  (and word-disabling's +1-cycle I-cache lengthens it, one of the two ways
  its alignment network costs performance);
* 4-wide fetch (broken at cache-line boundaries and taken branches),
  6-wide issue, 4-wide commit;
* 128-entry ROB (dispatch stalls until the instruction 128 older commits);
* 40-entry INT and 20-entry FP issue queues (entries free at issue);
* FU pools: 4 INT ALUs (also AGUs and branches), 4 INT multipliers,
  1 FP ALU, 1 FP multiplier;
* gshare + RAS + line predictor front end;
* loads get their latency from the cache hierarchy, so dependence chains
  see L1 hits (3 or 4 cycles), victim-cache hits (+1), L2 hits (+20), and
  memory (+255/+51) exactly as Table III prescribes.

What it does *not* model: wrong-path execution, replay traps, finite MSHRs,
store-to-load forwarding conflicts, and DRAM bank contention.  These
second-order effects shift absolute IPC but affect every scheme's runs in
the same direction; the paper's conclusions rest on relative performance
between schemes sharing a trace, which this model resolves.

Execution engines
-----------------
``run`` takes one of two paths, bit-identical in cycles and every
reported statistic:

* the compiled lane kernel (:mod:`repro.cpu.lane_kernel`) whenever this
  pipeline has a :meth:`~OutOfOrderPipeline.batch_key` and the kernel is
  loaded: the run is a one-lane :meth:`~OutOfOrderPipeline.run_batch`
  pass, the same pass campaigns drive over many fault maps at once;
* the reference loop otherwise: one readable per-instruction loop over
  the object hierarchy's ``MemoryHierarchy.access_*`` chain.  It covers
  prefetchers, non-LRU policies, a fault-disabled L2, reused pipelines,
  and hosts without the kernel (no ``gcc``, ``REPRO_NO_CKERNEL=1``), and
  it is the oracle the kernel is tested against
  (``tests/integration/test_golden_sim.py`` pins both to the same golden
  cycle counts and statistics).

A kernel pass writes statistics to the object hierarchy at once, but
leaves cache contents as a pending view of the pass's lane arrays
(:mod:`repro.cache.engine`): a cache builds its flat lists only when they
are next read, e.g. by a warm rerun on the reference loop, so campaign
passes whose pipelines are dropped after the statistics never build them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cache.engine import BulkLanes, bulk_signature
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu import lane_kernel
from repro.cpu.branch import GsharePredictor, LinePredictor, ReturnAddressStack
from repro.cpu.config import PipelineConfig
from repro.cpu.frontend import (
    REG_FILE_SLOTS,
    frontend_schedule,
    operand_columns,
    structural_columns,
)
from repro.cpu.isa import EXECUTION_LATENCY, InstrClass
from repro.cpu.trace import Trace


@dataclass(frozen=True)
class SimResult:
    """Outcome of one pipeline run."""

    benchmark: str
    instructions: int
    cycles: int
    branch_mispredictions: int
    branch_predictions: int
    hierarchy_stats: dict = field(hash=False, default_factory=dict)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.instructions / self.cycles

    @property
    def misprediction_rate(self) -> float:
        if self.branch_predictions == 0:
            return 0.0
        return self.branch_mispredictions / self.branch_predictions

    def speedup_over(self, other: "SimResult") -> float:
        """This run's performance normalised to ``other`` (same trace)."""
        if self.instructions != other.instructions:
            raise ValueError("speedup requires runs over the same trace")
        if self.cycles == 0:
            raise ValueError("cannot normalise a zero-cycle run")
        return other.cycles / self.cycles


class OutOfOrderPipeline:
    """Timing model bound to one memory hierarchy instance.

    ``run(trace, measure_from=K)`` implements the SimPoint-style
    methodology the paper uses: the first ``K`` instructions execute
    normally (warming predictors, caches, and pipeline state) but cycle
    counts and statistics cover only the measured region that follows.
    The paper's 100M-instruction regions are measured with warm state; our
    much shorter traces need the explicit prefix or cold two-bit counters
    and compulsory misses dominate.

    The object hierarchy is the source of truth between runs on either
    execution path; after a kernel pass its caches build their contents
    from the pass on first read (see module docstring).
    """

    def __init__(self, config: PipelineConfig, hierarchy: MemoryHierarchy) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.gshare = GsharePredictor(config.gshare_history_bits)
        self.ras = ReturnAddressStack(config.ras_entries)
        self.line_predictor = LinePredictor(config.line_predictor_entries)
        self._runs = 0

    def _reset_measurement_state(self) -> None:
        """Zero every statistic at the warmup/measured-region boundary
        (microarchitectural state — caches, predictor tables, in-flight
        timing — is deliberately kept warm)."""
        self.gshare.predictions = 0
        self.gshare.mispredictions = 0
        self.ras.pops = 0
        self.ras.pushes = 0
        self.ras.mispredictions = 0
        self.line_predictor.lookups = 0
        self.line_predictor.misses = 0
        hier = self.hierarchy
        for cache in (hier.l1i, hier.l1d, hier.l2):
            cache.stats.reset()
        for victim in (hier.victim_i, hier.victim_d):
            if victim is not None:
                victim.stats.reset()
        hier.iport.memory_accesses = 0
        hier.dport.memory_accesses = 0

    def run(self, trace: Trace, measure_from: int = 0) -> SimResult:
        """Simulate the trace; report cycles/statistics for instructions
        ``measure_from..end`` (the measured region).  ``measure_from=0``
        measures everything (cold start)."""
        n = len(trace)
        if not 0 <= measure_from < max(n, 1):
            raise ValueError(
                f"measure_from must be in [0, {n}), got {measure_from}"
            )
        if n == 0:
            return SimResult(
                trace.name, 0, 0, 0, 0, self.hierarchy.stats().snapshot()
            )
        if self.batch_key() is not None and lane_kernel.load() is not None:
            return OutOfOrderPipeline._run_lanes([self], trace, measure_from)[0]
        return self._run_reference(trace, measure_from)

    def _run_reference(self, trace: Trace, measure_from: int = 0) -> SimResult:
        """The reference loop (see module docstring): every instruction
        walks fetch, dispatch, issue, execute and commit in order, and
        every cache access goes through the object hierarchy."""
        cfg = self.config
        hier = self.hierarchy
        n = len(trace)
        self._runs += 1

        pcs = trace.pc
        classes = trace.iclass
        mem_addrs = trace.mem_addr
        src1s = trace.src1
        src2s = trace.src2
        dests = trace.dest
        takens = trace.taken

        # Local bindings: the loop below runs once per instruction.
        predict_branch = self.gshare.predict_and_update
        lp_check = self.line_predictor.predict_and_update
        ras_push = self.ras.push
        ras_pop = self.ras.pop_and_check
        access_inst = hier.access_instruction
        access_data = hier.access_data

        i_shift = hier.l1i.geometry.offset_bits
        d_shift = hier.l1d.geometry.offset_bits
        l1i_lat = hier.latencies.l1i
        frontend_delay = cfg.frontend_stages + l1i_lat

        exec_lat = [EXECUTION_LATENCY[InstrClass(c)] for c in range(9)]
        # FU pool per class index (see isa.FU_OF_CLASS, flattened for speed):
        #   0=INT_ALU 1=INT_MUL 2=FP_ALU 3=FP_MUL; mem/control use INT ALUs.
        fu_of = [0, 1, 2, 3, 0, 0, 0, 0, 0]
        fu_free: list[list[int]] = [
            [0] * cfg.int_alu_units,
            [0] * cfg.int_mul_units,
            [0] * cfg.fp_alu_units,
            [0] * cfg.fp_mul_units,
        ]
        ports = [0] * cfg.issue_width
        n_ports = cfg.issue_width

        reg_ready = [0] * 64

        rob_size = cfg.rob_entries
        rob_ring = [0] * rob_size

        int_iq = [0] * cfg.iq_int_entries
        fp_iq = [0] * cfg.iq_fp_entries
        int_iq_len = cfg.iq_int_entries
        fp_iq_len = cfg.iq_fp_entries
        int_count = 0
        fp_count = 0

        fetch_cycle = 0
        fetch_slot = 0
        fetch_width = cfg.fetch_width
        cur_line = -1

        last_commit = 0
        commit_slots = 0
        commit_width = cfg.commit_width

        LOAD = int(InstrClass.LOAD)
        STORE = int(InstrClass.STORE)
        BRANCH = int(InstrClass.BRANCH)
        CALL = int(InstrClass.CALL)
        FP_ALU = int(InstrClass.FP_ALU)
        FP_MUL = int(InstrClass.FP_MUL)

        cycles_base = 0

        for i in range(n):
            if i == measure_from and i > 0:
                cycles_base = last_commit
                self._reset_measurement_state()
            pc = pcs[i]
            cls = classes[i]

            # ---- fetch -------------------------------------------------------
            line = pc >> i_shift
            if line != cur_line:
                cur_line = line
                lat = access_inst(line)
                if lat > l1i_lat:
                    fetch_cycle += lat - l1i_lat  # miss stall cycles
                fetch_slot = 0  # fetch groups break at line boundaries
            if fetch_slot >= fetch_width:
                fetch_cycle += 1
                fetch_slot = 0
            fetch_slot += 1

            disp = fetch_cycle + frontend_delay

            # ---- dispatch: ROB and issue-queue occupancy ---------------------
            rob_slot = i % rob_size
            if i >= rob_size:
                freed = rob_ring[rob_slot] + 1
                if freed > disp:
                    disp = freed
            if cls == FP_ALU or cls == FP_MUL:
                slot = fp_count % fp_iq_len
                if fp_count >= fp_iq_len and fp_iq[slot] > disp:
                    disp = fp_iq[slot]
                fp_count += 1
                iq_ring, iq_slot = fp_iq, slot
            else:
                slot = int_count % int_iq_len
                if int_count >= int_iq_len and int_iq[slot] > disp:
                    disp = int_iq[slot]
                int_count += 1
                iq_ring, iq_slot = int_iq, slot

            # ---- ready: operand dependences ----------------------------------
            ready = disp
            r = src1s[i]
            if r >= 0 and reg_ready[r] > ready:
                ready = reg_ready[r]
            r = src2s[i]
            if r >= 0 and reg_ready[r] > ready:
                ready = reg_ready[r]

            # ---- issue: FU and issue-port structural hazards ------------------
            # Min-scans unrolled for the fixed Table II pool widths (4 INT
            # ALUs/multipliers, single FP units, 6 issue ports); other
            # widths take the generic loop.  Tie-breaking (first minimum)
            # matches min()/the loop exactly.
            units = fu_free[fu_of[cls]]
            n_units = len(units)
            if n_units == 1:
                best_u = 0
                best_t = units[0]
            elif n_units == 4:
                best_u = 0
                best_t = units[0]
                t = units[1]
                if t < best_t:
                    best_t = t
                    best_u = 1
                t = units[2]
                if t < best_t:
                    best_t = t
                    best_u = 2
                t = units[3]
                if t < best_t:
                    best_t = t
                    best_u = 3
            else:
                best_u = 0
                best_t = units[0]
                for j in range(1, n_units):
                    if units[j] < best_t:
                        best_t = units[j]
                        best_u = j
            start = ready if ready > best_t else best_t

            if n_ports == 6:
                best_p = 0
                best_t = ports[0]
                t = ports[1]
                if t < best_t:
                    best_t = t
                    best_p = 1
                t = ports[2]
                if t < best_t:
                    best_t = t
                    best_p = 2
                t = ports[3]
                if t < best_t:
                    best_t = t
                    best_p = 3
                t = ports[4]
                if t < best_t:
                    best_t = t
                    best_p = 4
                t = ports[5]
                if t < best_t:
                    best_t = t
                    best_p = 5
            else:
                best_p = 0
                best_t = ports[0]
                for j in range(1, n_ports):
                    if ports[j] < best_t:
                        best_t = ports[j]
                        best_p = j
            if best_t > start:
                start = best_t

            units[best_u] = start + 1  # fully pipelined units
            ports[best_p] = start + 1
            iq_ring[iq_slot] = start + 1  # IQ entry frees at issue

            # ---- execute / complete ------------------------------------------
            if cls < 4:  # ALU/MUL classes 0-3: fixed latencies
                comp = start + exec_lat[cls]
            elif cls == LOAD:
                comp = start + access_data(mem_addrs[i] >> d_shift, False)
            elif cls == STORE:
                access_data(mem_addrs[i] >> d_shift, True)
                comp = start + 1  # retires via the store buffer
            else:  # control classes 6-8: single-cycle execute
                comp = start + 1

            r = dests[i]
            if r >= 0:
                reg_ready[r] = comp

            # ---- commit: in-order, bounded width ------------------------------
            if comp > last_commit:
                last_commit = comp
                commit_slots = 1
            elif commit_slots >= commit_width:
                last_commit += 1
                commit_slots = 1
            else:
                commit_slots += 1
            rob_ring[rob_slot] = last_commit

            # ---- control flow -------------------------------------------------
            if cls > 5:  # one test gates all branch/call/return bookkeeping
                if cls == BRANCH:
                    taken = takens[i]
                    if not predict_branch(pc, taken):
                        # Redirect: fetch restarts after resolution.
                        redirect = comp + 1
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                        fetch_slot = 0
                        cur_line = -1
                    elif taken:
                        target_line = (pcs[i + 1] >> i_shift) if i + 1 < n else line
                        if not lp_check(pc, target_line):
                            fetch_cycle += 1  # taken-branch fetch bubble
                        fetch_slot = 0
                elif cls == CALL:
                    ras_push(pc + 4)
                    fetch_slot = 0
                else:  # RETURN
                    actual = pcs[i + 1] if i + 1 < n else pc + 4
                    if not ras_pop(actual):
                        redirect = comp + 1
                        if redirect > fetch_cycle:
                            fetch_cycle = redirect
                        fetch_slot = 0
                        cur_line = -1
                    else:
                        fetch_slot = 0

        return SimResult(
            benchmark=trace.name,
            instructions=n - measure_from,
            cycles=last_commit - cycles_base,
            branch_mispredictions=self.gshare.mispredictions
            + self.ras.mispredictions,
            branch_predictions=self.gshare.predictions + self.ras.pops,
            hierarchy_stats=hier.stats().snapshot(),
        )

    # ----- lane-batched execution ------------------------------------------

    def batch_key(self) -> "tuple | None":
        """Hashable lane-compatibility signature, or ``None`` when this
        pipeline cannot join any vectorised batch.

        Pipelines with equal non-``None`` keys may be driven over one
        trace as lanes of a single :meth:`run_batch` pass — even when
        their *configurations* differ (mixed schemes, mixed fault maps,
        the fault-free normalisation baseline): lane state is fully
        per-lane; only the structure the key captures must agree.  The
        key requires a fresh pipeline (the schedule replays predictors
        from their pristine construction state), a positive front-end
        depth (the kernel drops the reference loop's ring-occupancy
        guards, which relies on dispatch cycles being >= 1), no
        prefetchers (they hook demand hits, which the lane kernel does
        not model), and folds in the shared
        pipeline config, the latency set, the per-level geometries, and
        the bulk engine's own coverage signature (LRU replacement,
        fully-enabled L2 — see
        :func:`repro.cache.engine.bulk_signature`; victim *sizings* may
        differ per lane, padded by the vector engine).  The mega-batch
        planner groups campaign work items by this key, and :meth:`run`
        takes a one-lane kernel pass whenever it is not ``None``.
        """
        h = self.hierarchy
        if self._runs != 0:
            return None
        if self.config.frontend_stages + h.latencies.l1i < 1:
            return None
        if h.iport.prefetcher is not None or h.dport.prefetcher is not None:
            return None
        bulk = bulk_signature(h)
        if bulk is None:
            return None
        return (
            self.config,
            h.latencies,
            h.l1i.geometry,
            h.l1d.geometry,
            h.l2.geometry,
            bulk,
        )

    @staticmethod
    def _can_run_batch(pipelines: "Sequence[OutOfOrderPipeline]") -> bool:
        """Whether the lane-batched loop applies: every pipeline carries
        the same non-``None`` :meth:`batch_key` (contents — fault maps,
        resident blocks, recency — may still differ per lane)."""
        key = pipelines[0].batch_key()
        if key is None:
            return False
        return all(p.batch_key() == key for p in pipelines[1:])

    @staticmethod
    def run_batch(
        pipelines: "Sequence[OutOfOrderPipeline]",
        trace: Trace,
        measure_from: int = 0,
    ) -> list[SimResult]:
        """Simulate N lanes — one pipeline per fault map — in a single
        pass over the shared front-end schedule.

        Per-lane state (flat cache tags/recency, victim entries,
        ROB/IQ/FU occupancy, statistics) lives in NumPy arrays with a
        lane axis, and one call into the compiled lane kernel
        (:mod:`repro.cpu.lane_kernel`) advances every lane through the
        whole trace, cache misses included.  Results are bit-identical
        to running each pipeline sequentially (golden-pinned).

        Lanes need not share a *configuration*: any pipelines with equal
        non-``None`` :meth:`batch_key` signatures batch together (mixed
        schemes, mixed victim contents *and sizings* — 0/8/16-entry
        lanes pad to one slot axis — fault-free baselines); a single
        lane is a one-lane pass.  Batches the kernel cannot take — mixed
        latencies/geometries, prefetchers, non-LRU policies, reused
        pipelines, or no compiled kernel at all — run each lane through
        :meth:`run` instead.
        """
        pipelines = list(pipelines)
        if not pipelines:
            return []
        if (
            len(trace) == 0
            or not OutOfOrderPipeline._can_run_batch(pipelines)
            or lane_kernel.load() is None
        ):
            return [p.run(trace, measure_from) for p in pipelines]
        return OutOfOrderPipeline._run_lanes(pipelines, trace, measure_from)

    @staticmethod
    def _kernel_context(
        pipelines: "Sequence[OutOfOrderPipeline]",
        trace: Trace,
        measure_from: int,
    ):
        """Set up one lane-batched pass for the compiled kernel.

        Returns ``(ctx, arrays, lanes, schedule)``: the ``int64`` context
        array holding every scalar and raw array address the kernel
        reads (see :mod:`repro.cpu.lane_kernel` for the layout); the
        ``P_*`` slot name -> array map those addresses come from, which
        the caller must keep alive for the duration of the call; the
        :class:`~repro.cache.engine.BulkLanes` cache state the kernel
        updates in place; and the front-end schedule.

        Every timing quantity is tracked *scaled by the commit width W*
        (dispatch, ready, issue, completion all stay multiples of W), and
        commit state per lane is ``v = last_commit * W + commit_slots``.
        The three-way commit branch then collapses to ``v' = max(v,
        comp_scaled) + 1`` — algebraically identical to the reference rule
        for ``slots`` in ``1..W`` — and the ROB ring stores the scaled
        dispatch bound ``(last_commit + 1) * W`` directly.  FU pools and
        issue ports are earliest-free multisets updated by argmin-replace
        (the reference loop's first-minimum scan).  Cache
        recency uses the bulk engine's trace-static stamps (see
        :mod:`repro.cache.engine`), so no per-lane clocks are maintained.
        """
        cfg = pipelines[0].config
        hier0 = pipelines[0].hierarchy
        n_lanes = len(pipelines)
        C = lane_kernel.CTX
        I64 = np.int64

        def i64(x):
            return np.ascontiguousarray(np.asarray(x, dtype=I64))

        i_geom = hier0.l1i.geometry
        d_geom = hier0.l1d.geometry
        l2_geom = hier0.l2.geometry
        commit_width = cfg.commit_width
        frontend_delay = cfg.frontend_stages + hier0.latencies.l1i
        schedule = frontend_schedule(trace, cfg, i_geom.offset_bits, measure_from)

        # Per-trace columns are built once and memoised on the trace.
        key = (
            cfg.rob_entries, cfg.iq_int_entries, cfg.iq_fp_entries,
            d_geom.offset_bits,
        )
        memo = trace.__dict__.setdefault("_kernel_columns_i64", {})
        cols = memo.get(key)
        if cols is None:
            rob_col, iq_col = structural_columns(
                trace, cfg.rob_entries, cfg.iq_int_entries, cfg.iq_fp_entries
            )
            cols = tuple(
                i64(c)
                for c in (trace.iclass, *operand_columns(trace), rob_col, iq_col)
            ) + (i64(trace.mem_addr) >> d_geom.offset_bits,)
            memo[key] = cols
        arrays = dict(
            zip(
                ("P_CLS", "P_SRC1", "P_SRC2", "P_DEST", "P_ROBCOL",
                 "P_IQCOL", "P_DBLOCKS"),
                cols,
            )
        )
        # The static-fetch column is the schedule's own int64 array (no
        # copy); the sparse columns are small (one entry per I-access /
        # redirect), so converting them per call keeps the memo simple.
        arrays["P_SPS"] = i64(schedule.static_fetch)
        arrays["P_IAIDX"] = i64(schedule.iaccess_index)
        arrays["P_IALINES"] = i64(schedule.iaccess_line)
        arrays["P_RDIDX"] = i64(schedule.redirect_index)
        arrays["P_RDSNEXT"] = i64(schedule.redirect_static_next)

        arrays["P_REG"] = np.zeros((REG_FILE_SLOTS, n_lanes), I64)
        arrays["P_ROB"] = np.zeros((cfg.rob_entries, n_lanes), I64)
        arrays["P_IQINT"] = np.zeros((cfg.iq_int_entries, n_lanes), I64)
        arrays["P_IQFP"] = np.zeros((cfg.iq_fp_entries, n_lanes), I64)
        pool_widths = (
            cfg.int_alu_units, cfg.int_mul_units, cfg.fp_alu_units,
            cfg.fp_mul_units,
        )
        for j, width in enumerate(pool_widths):
            arrays[f"P_POOL{j}"] = np.zeros((n_lanes, width), I64)
        arrays["P_PORTS"] = np.zeros((n_lanes, cfg.issue_width), I64)
        arrays["P_DYN"] = np.full(n_lanes, frontend_delay * commit_width, I64)
        arrays["P_FETCHBASE"] = np.zeros(n_lanes, I64)
        arrays["P_V"] = np.zeros(n_lanes, I64)  # last_commit * W + slots
        arrays["P_CBASE"] = np.zeros(n_lanes, I64)

        lanes = BulkLanes([p.hierarchy for p in pipelines])
        for side, cache in (("I", lanes.l1i), ("D", lanes.l1d)):
            arrays[f"P_{side}TAGS"] = cache.tags
            arrays[f"P_{side}LAST"] = cache.last
            arrays[f"P_{side}DIRTY"] = cache.dirty
            arrays[f"P_{side}FILLT"] = cache.fillt
        arrays["P_L2TAGS"] = lanes.l2.tags
        arrays["P_L2LAST"] = lanes.l2.last
        arrays["P_L2FILLT"] = lanes.l2.fillt
        arrays["P_COUNTS"] = lanes.counts

        ctx = np.zeros(lane_kernel.CTX_SLOTS, dtype=I64)
        ctx[C["N"]] = len(trace)
        ctx[C["NLANES"]] = n_lanes
        ctx[C["WSCALE"]] = commit_width
        ctx[C["WM1"]] = commit_width - 1
        ctx[C["WPOW2"]] = int(commit_width & (commit_width - 1) == 0)
        ctx[C["FDELAY"]] = frontend_delay
        ctx[C["KSTAMP"]] = lanes.stamp_base
        ctx[C["DHIT"]] = (hier0.latencies.l1d - 1) * commit_width
        ctx[C["NPORTS"]] = cfg.issue_width
        ctx[C["BOUNDARY"]] = measure_from if measure_from > 0 else -1
        for prefix, geom in (("I", i_geom), ("D", d_geom), ("L2", l2_geom)):
            ctx[C[f"{prefix}WAYS"]] = geom.ways
            ctx[C[f"{prefix}SETMASK"]] = geom.num_sets - 1
            ctx[C[f"{prefix}TAGSHIFT"]] = geom.index_bits
        for side, victims, port in (
            ("I", lanes.victims_i, hier0.iport),
            ("D", lanes.victims_d, hier0.dport),
        ):
            ctx[C[f"{side}VICLAT"]] = port.victim_latency * commit_width
            ctx[C[f"{side}L2LAT"]] = port.l2_latency * commit_width
            ctx[C[f"{side}MEMLAT"]] = port.memory_latency * commit_width
            if victims is not None:
                ctx[C[f"V{side}ENT"]] = victims.entries
                ctx[C[f"V{side}EMPTY"]] = victims.empty_stamp
                arrays[f"P_V{side}TAGS"] = victims.tags
                arrays[f"P_V{side}STAMP"] = victims.stamp
                arrays[f"P_V{side}INS"] = victims.insertable
        exec_lat = (EXECUTION_LATENCY[InstrClass(c)] for c in range(9))
        for j, lat in enumerate(exec_lat):
            ctx[C["EXECLAT"] + j] = (lat - 1) * commit_width
        for j, fu in enumerate((0, 1, 2, 3, 0, 0, 0, 0, 0)):
            ctx[C["FUOF"] + j] = fu
        for j, width in enumerate(pool_widths):
            ctx[C["POOLW"] + j] = width
        for name, arr in arrays.items():
            # The kernel reads the masks as uint8 and all else as int64.
            want = np.bool_ if name.endswith(("DIRTY", "INS")) else I64
            if arr.dtype != want or not arr.flags.c_contiguous:
                raise ValueError(f"{name} must be a C-contiguous {np.dtype(want)} array")
            ctx[C[name]] = arr.ctypes.data
        return ctx, arrays, lanes, schedule

    @staticmethod
    def _run_lanes(
        pipelines: "Sequence[OutOfOrderPipeline]",
        trace: Trace,
        measure_from: int,
    ) -> list[SimResult]:
        """One lane-batched pass: a single call into the compiled lane
        kernel, which runs every lane over the whole trace; then the
        statistics are written back to each lane's hierarchy and its cache
        contents left pending there.  Cycle counts are recovered as
        ``(v - 1) // W`` minus the boundary snapshot."""
        n = len(trace)
        if not 0 <= measure_from < n:
            raise ValueError(
                f"measure_from must be in [0, {n}), got {measure_from}"
            )
        kernel = lane_kernel.load()
        if kernel is None:
            raise RuntimeError("the lane-batched pass needs the compiled lane kernel")
        ctx, arrays, lanes, schedule = OutOfOrderPipeline._kernel_context(
            pipelines, trace, measure_from
        )
        kernel(ctx.ctypes.data)
        if ctx[lane_kernel.CTX["RET"]] != lane_kernel.RET_DONE:
            raise RuntimeError("the lane kernel did not complete its pass")
        lanes.finalize(
            schedule.iaccess_measured,
            schedule.daccess_measured,
            clock=lanes.stamp_base + 2 * n,
        )

        commit_width = pipelines[0].config.commit_width
        cycles = ((arrays["P_V"] - 1) // commit_width - arrays["P_CBASE"]).tolist()
        mispredictions = (
            schedule.gshare_mispredictions + schedule.ras_mispredictions
        )
        predictions = schedule.gshare_predictions + schedule.ras_pops
        results = []
        for lane, p in enumerate(pipelines):
            p._runs += 1
            schedule.install(p.gshare, p.ras, p.line_predictor)
            results.append(
                SimResult(
                    benchmark=trace.name,
                    instructions=n - measure_from,
                    cycles=cycles[lane],
                    branch_mispredictions=mispredictions,
                    branch_predictions=predictions,
                    hierarchy_stats=p.hierarchy.stats().snapshot(),
                )
            )
        return results
