"""The campaign Session: one handle over store, caches, and execution.

A :class:`Session` opens everything a campaign needs exactly once — the
result store, the persistent trace/schedule caches, the fault-map
provider — and exposes the whole experiment surface behind two layers:

* **point API** (:meth:`simulate`, :meth:`simulate_maps`,
  :meth:`run_group`) — single sequential points and cross-point
  mega-batches, all through the same store dedup and bit-identical to
  each other;
* **campaign API** (:meth:`plan`, :meth:`run`) — declarative:
  :meth:`run` takes a :class:`~repro.campaign.spec.CampaignSpec`,
  resolves it through the unified :class:`~repro.campaign.plan.Planner`,
  and streams typed :mod:`~repro.campaign.events` while a pluggable
  executor (serial in-process by default, a process pool via
  ``PoolExecutor``) drives the plan's groups.

Sessions are context managers: ``with Session(...) as session`` flushes
and closes the store on exit (the ``ResultStore`` context-manager
satellite), so campaign scripts never leak half-flushed JSONL handles.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.cache.hierarchy import MemoryHierarchy
from repro.core import SCHEMES
from repro.core.schemes import VoltageMode
from repro.cpu.config import (
    HIGH_VOLTAGE,
    L1_GEOMETRY,
    L2_GEOMETRY,
    LOW_VOLTAGE,
    PAPER_PIPELINE,
    OperatingPoint,
    PipelineConfig,
)
from repro.cpu.pipeline import OutOfOrderPipeline, SimResult
from repro.cpu.trace import Trace
from repro.experiments.configs import RunConfig
from repro.experiments.providers import FaultMapProvider, TraceProvider
from repro.experiments.keys import task_key
from repro.store import MemoryStore, ResultStore
from repro.faults.fault_map import FaultMap, FaultMapPair

from repro.campaign.events import (
    Event,
    PlanReady,
    PointResult,
    Progress,
    StoreCorruption,
    TaskFailed,
)
from repro.campaign.plan import Plan, PlanGroup, Planner, WorkItem
from repro.campaign.resilience import CampaignError, Quarantined
from repro.campaign.spec import CampaignSpec, RunnerSettings

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.campaign.executors import Executor


@dataclass(frozen=True)
class NormalizedSeries:
    """Per-benchmark normalized performance of one configuration."""

    config_label: str
    benchmarks: tuple[str, ...]
    average: tuple[float, ...]
    minimum: tuple[float, ...]

    @property
    def mean_average(self) -> float:
        return sum(self.average) / len(self.average)

    @property
    def mean_penalty(self) -> float:
        """Average performance *loss* vs the normalisation baseline (the
        paper's headline metric, e.g. 11.2% for word-disabling)."""
        return 1.0 - self.mean_average


class Session:
    """One campaign context: store + input providers + counters + planner.

    Opens the result store, trace/schedule caches, and fault-map
    provider once; every experiment — a lazy single point, a mega-batch,
    or a declarative spec streamed through :meth:`run` — reads and
    writes through the same handles and the same dedup keys.
    """

    def __init__(
        self,
        settings: RunnerSettings | None = None,
        pipeline_config: PipelineConfig = PAPER_PIPELINE,
        store: ResultStore | None = None,
        trace_cache: str | None = None,
    ) -> None:
        self.settings = settings or RunnerSettings.from_env()
        self.pipeline_config = pipeline_config
        # trace_cache=None falls back to $REPRO_TRACE_CACHE (see providers).
        self.traces = TraceProvider(self.settings, cache_dir=trace_cache)
        self.maps = FaultMapProvider(self.settings)
        #: Whether this session owns its store's lifetime: stores the
        #: session built itself are closed on :meth:`close`; stores the
        #: caller handed in stay open (the caller may share them).
        self.owns_store = store is None
        self.store = store if store is not None else MemoryStore()
        # Under armed I/O chaos (REPRO_CHAOS=torn-write:...), checkpoint
        # writes go through the fault-injecting wrapper so the executor's
        # store-retry path is exercised exactly like worker faults are.
        # Only the parent session wraps: pool workers' private stores are
        # not the durable checkpoint path (see chaos.in_worker), and a
        # store handed down from another session is already wrapped.
        from repro.testing import chaos as _chaos

        _chaos_config = _chaos.config_from_env()
        if (
            _chaos_config is not None
            and _chaos_config.io_active
            and not _chaos.in_worker()
            and not isinstance(self.store, _chaos.ChaosStore)
        ):
            self.store = _chaos.ChaosStore(self.store, _chaos_config)
        #: Batch signature per RunConfig (memoised — building the
        #: representative pipeline is cheap but not free).
        self._signature_cache: dict[RunConfig, "tuple | None"] = {}
        # Content-hash keys are ~30us to compute (canonical JSON + sha256
        # over per-session constants); memoise them so warm-store reads
        # stay dict-lookup cheap.
        self._key_cache: dict[tuple, str] = {}
        #: Simulations actually executed (not read from the store): lazy
        #: :meth:`simulate` misses plus what executors ran — the pool
        #: executor adds workers' results as it checkpoints them.  Store
        #: hits never count.
        self.simulations_executed = 0
        #: Walks of a compiled front-end schedule this session paid for:
        #: +1 per sequential :meth:`OutOfOrderPipeline.run` and +1 per
        #: *vectorised* :meth:`OutOfOrderPipeline.run_batch` pass however
        #: many lanes it drives.  The mega-batch smoke asserts a
        #: multi-point campaign needs strictly fewer passes than points.
        self.schedule_passes = 0
        #: Quarantine ledger: every task a resilient executor gave up on
        #: across this session's runs (see
        #: :class:`~repro.campaign.resilience.Quarantined`).  Healthy
        #: results around a failure are always durable in the store.
        self.failures: list[Quarantined] = []
        self._closed = False

    # ----- remote sessions ------------------------------------------------------

    @classmethod
    def connect(cls, url: str, timeout: "float | None" = 600.0):
        """A :class:`~repro.service.client.RemoteSession` for the
        campaign server at ``url`` — same streaming ``run(spec)`` /
        ``run_all(spec)`` surface as a local session, with the server
        doing the simulating (and the coalescing, when other clients
        overlap)::

            with Session.connect("http://127.0.0.1:8631") as remote:
                for event in remote.run(spec):
                    ...
        """
        from repro.service.client import RemoteSession

        return RemoteSession(url, timeout=timeout)

    # ----- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def flush(self) -> None:
        """Flush the result store's buffers (durable checkpoint)."""
        self.store.flush()

    def close(self) -> None:
        """Flush and, when this session opened the store itself, close it.
        Idempotent; the session's in-memory caches stay readable."""
        if self._closed:
            return
        self._closed = True
        self.store.flush()
        if self.owns_store:
            self.store.close()

    # ----- inputs -------------------------------------------------------------

    def trace(self, benchmark: str) -> Trace:
        """Warmup prefix + measured region, generated once per benchmark."""
        return self.traces.get(benchmark)

    def fault_maps(self) -> list[FaultMapPair]:
        return self.maps.pairs()

    # ----- cache API ------------------------------------------------------------

    @staticmethod
    def _normalize_map_index(config: RunConfig, map_index: int | None) -> int | None:
        """``map_index`` is required iff performance depends on the fault
        draw; fault-independent configs canonicalise to ``None`` so every
        caller agrees on one key per physical simulation."""
        if config.needs_fault_map:
            if map_index is None:
                raise ValueError(f"{config.label} requires a fault-map index")
            return map_index
        return None

    def task_key(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> str:
        """Stable store key of one simulation point (see
        :func:`repro.experiments.keys.task_key`)."""
        map_index = self._normalize_map_index(config, map_index)
        cache_key = (benchmark, config, map_index)
        key = self._key_cache.get(cache_key)
        if key is None:
            key = task_key(
                self.settings, benchmark, config, map_index, self.pipeline_config
            )
            self._key_cache[cache_key] = key
        return key

    def cached(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> SimResult | None:
        """The stored result for this point, or ``None`` if unsimulated."""
        return self.store.get(self.task_key(benchmark, config, map_index))

    def store_result(
        self,
        benchmark: str,
        config: RunConfig,
        map_index: int | None,
        result: SimResult,
    ) -> None:
        """Checkpoint an externally-computed result (parallel workers)."""
        self.store.put(self.task_key(benchmark, config, map_index), result)

    # ----- point API ------------------------------------------------------------

    def simulate(
        self, benchmark: str, config: RunConfig, map_index: int | None = None
    ) -> SimResult:
        """Simulate one (benchmark, configuration, fault map) point,
        reading/writing through the result store.

        ``map_index`` is required iff the configuration's performance
        depends on the fault draw (see :meth:`RunConfig.needs_fault_map`).
        """
        map_index = self._normalize_map_index(config, map_index)
        key = self.task_key(benchmark, config, map_index)
        result = self.store.get(key)
        if result is None:
            result = self._simulate(benchmark, config, map_index)
            self.store.put(key, result)
            self.simulations_executed += 1
        return result

    def _simulate(
        self, benchmark: str, config: RunConfig, map_index: int | None
    ) -> SimResult:
        pipeline = self.build_pipeline(config, map_index)
        self.schedule_passes += 1
        return pipeline.run(
            self.trace(benchmark), measure_from=self.settings.warmup_instructions
        )

    def simulate_maps(
        self,
        benchmark: str,
        config: RunConfig,
        map_indices: "list[int] | range | None" = None,
    ) -> list[SimResult]:
        """Simulate many fault-map lanes of one (benchmark, config) point
        as one :meth:`run_group` mega-batch.

        ``map_indices`` defaults to every map of the campaign
        (``range(n_fault_maps)``).  Lanes already in the store are never
        re-simulated.  Results return in ``map_indices`` order,
        bit-identical to per-map :meth:`simulate` calls.
        Fault-independent configurations collapse to the single
        :meth:`simulate` point.
        """
        if not config.needs_fault_map:
            return [self.simulate(benchmark, config)]
        if map_indices is None:
            map_indices = range(self.settings.n_fault_maps)
        return self.run_group(benchmark, [(config, m) for m in map_indices])

    # ----- mega-batching: cross-point lane groups -------------------------------

    def batch_signature(self, config: RunConfig) -> "tuple | None":
        """The batch-compatibility signature of ``config``'s lanes (see
        :meth:`OutOfOrderPipeline.batch_key`), or ``None`` when they
        cannot take the vectorised path.  The signature is a pure
        function of the configuration's *structure* — latencies,
        geometries, victim sizing, replacement policies — never of the
        fault draw, so one representative pipeline decides it for every
        map index.  Memoised per config."""
        if config not in self._signature_cache:
            representative = self.build_pipeline(
                config, 0 if config.needs_fault_map else None
            )
            self._signature_cache[config] = representative.batch_key()
        return self._signature_cache[config]

    def run_group(
        self, benchmark: str, items: "list[tuple[RunConfig, int | None]]"
    ) -> list[SimResult]:
        """Execute one mega-batch: all ``(config, map_index)`` lanes of
        a trace-group in (ideally) a single vectorised schedule pass.

        Lanes already in the store are never re-simulated.  The rest are
        sub-grouped by :meth:`batch_signature` — a heterogeneous item
        list (say a word-disabling lane among block-disabling ones)
        splits into compatible sub-batches instead of tripping the
        engine's sequential fallback.  Each non-``None`` sub-batch costs
        one schedule pass through :meth:`OutOfOrderPipeline.run_batch`
        (a single lane is a one-lane pass); ``None``-signature lanes run
        one :meth:`simulate` each.  Results scatter back to the
        store under their own per-point keys and return in ``items``
        order, bit-identical to per-point :meth:`simulate` calls.
        """
        results: dict[str, SimResult | None] = {}
        subgroups: dict["tuple | None", list] = {}
        sub_order: list["tuple | None"] = []
        resolved: list[str] = []
        for config, m in items:
            m = self._normalize_map_index(config, m)
            key = self.task_key(benchmark, config, m)
            resolved.append(key)
            if key in results:
                continue
            cached = self.store.get(key)
            if cached is not None:
                results[key] = cached
                continue
            results[key] = None  # claimed; simulated below
            signature = self.batch_signature(config)
            if signature not in subgroups:
                subgroups[signature] = []
                sub_order.append(signature)
            subgroups[signature].append((config, m, key))
        warmup = self.settings.warmup_instructions
        for signature in sub_order:
            pending = subgroups[signature]
            if signature is None:
                for config, m, key in pending:
                    results[key] = self.simulate(benchmark, config, m)
                continue
            pipelines = [self.build_pipeline(c, m) for c, m, _ in pending]
            self.schedule_passes += 1
            outs = OutOfOrderPipeline.run_batch(
                pipelines, self.trace(benchmark), measure_from=warmup
            )
            for (_, _, key), result in zip(pending, outs):
                self.store.put(key, result)
                self.simulations_executed += 1
                results[key] = result
        return [results[key] for key in resolved]

    def execute_group(
        self, group: PlanGroup
    ) -> list[tuple[WorkItem, SimResult]]:
        """Execute one plan group through :meth:`run_group`.  Returns
        item/result pairs in plan order."""
        results = self.run_group(
            group.benchmark,
            [(item.config, item.map_index) for item in group.items],
        )
        return list(zip(group.items, results))

    # ----- campaign API ---------------------------------------------------------

    def spec(
        self,
        configs: "tuple[RunConfig, ...] | list[RunConfig]",
        benchmarks: "tuple[str, ...] | None" = None,
        figure: str | None = None,
    ) -> CampaignSpec:
        """A :class:`CampaignSpec` sweeping ``configs`` at this session's
        fidelity and (default) benchmark scope."""
        return CampaignSpec.from_settings(
            self.settings, configs, benchmarks=benchmarks, figure=figure
        )

    def plan(self, spec: CampaignSpec) -> Plan:
        """Resolve ``spec`` against the store via the unified
        :class:`~repro.campaign.plan.Planner` — no simulation."""
        return Planner(self).resolve(spec)

    def run(
        self, spec: CampaignSpec, executor: "Executor | None" = None
    ) -> Iterator[Event]:
        """Stream a campaign: resolve ``spec`` into a plan, then drive
        every pending group through ``executor`` (in-process serial by
        default; ``PoolExecutor(workers=N)`` fans groups across a
        process pool), yielding :class:`PlanReady` first, then
        :class:`PointResult`/:class:`Progress` events as simulations
        land in the store.

        A spec whose fidelity differs from this session's settings is
        rejected — open a :meth:`derived` session for it instead (the
        store and trace cache are shared, so nothing is recomputed).

        Validation and planning happen *eagerly*, at the call — only the
        execution streams — so a wrong-fidelity spec raises here, not at
        first iteration.
        """
        # Benchmarks only scope the campaign (a spec may sweep a subset of
        # the session's suite); the fidelity fields must agree or the
        # spec's task keys would not be this session's keys.
        theirs = dataclasses.replace(
            spec.settings(), benchmarks=self.settings.benchmarks
        )
        if theirs != self.settings:
            raise ValueError(
                "spec fidelity differs from this session's settings; "
                "use session.derived(spec) to open a matching session "
                "over the same store"
            )
        plan = self.plan(spec)
        if executor is None:
            from repro.campaign.executors import SerialExecutor

            executor = SerialExecutor()
        return self._stream(plan, executor)

    def _stream(self, plan: Plan, executor: "Executor") -> Iterator[Event]:
        yield PlanReady(plan)
        health = self.store.health()
        if health.damaged:
            # The store already contained the damage (nothing broken is
            # served); surface it so the operator learns a `store repair`
            # pass is due instead of silently re-simulating lost points.
            yield StoreCorruption(store=self.store.description, health=health)
        failed: list[Quarantined] = []
        try:
            for event in executor.run(self, plan):
                if isinstance(event, TaskFailed):
                    failed.append(event.quarantined)
                    self.failures.append(event.quarantined)
                yield event
        except KeyboardInterrupt:
            # Interrupted campaigns stay resumable: flush whatever the
            # executor already checkpointed and say so before unwinding.
            self.flush()
            print(
                f"[campaign] interrupted — {len(self.store)} result(s) "
                "durable in the store; re-run the same campaign to resume "
                "from the last checkpoint",
                file=sys.stderr,
            )
            raise
        if failed:
            # Raised only after the plan drained: every healthy sibling's
            # result is already durable, so handling this error and
            # re-running retries exactly the quarantined tasks.
            raise CampaignError(failed)

    def run_all(
        self, spec: CampaignSpec, executor: "Executor | None" = None
    ) -> Plan:
        """Drain :meth:`run` for its side effect (a filled store) and
        return the resolved plan."""
        plan: Plan | None = None
        for event in self.run(spec, executor=executor):
            if isinstance(event, PlanReady):
                plan = event.plan
        assert plan is not None  # run always yields PlanReady first
        return plan

    def derived(self, spec: CampaignSpec) -> "Session":
        """A session at ``spec``'s fidelity sharing this session's store
        and trace cache (content-hash keys keep mixed-fidelity campaigns
        from colliding).  The derived session never closes the shared
        store."""
        return Session(
            spec.settings(),
            pipeline_config=self.pipeline_config,
            store=self.store,
            trace_cache=self.traces.cache_dir,
        )

    # ----- simulator construction ----------------------------------------------

    def build_pipeline(
        self,
        config: RunConfig,
        map_index: int | None = None,
    ) -> OutOfOrderPipeline:
        """Construct the simulator for one configuration point.

        Public so benches and studies can time construction + run (one
        campaign point) without going through the result store.
        """
        scheme = SCHEMES.create(config.scheme)
        operating: OperatingPoint = (
            LOW_VOLTAGE if config.voltage is VoltageMode.LOW else HIGH_VOLTAGE
        )
        if map_index is not None:
            pair = self.fault_maps()[map_index]
            imap, dmap = pair.icache, pair.dcache
        elif config.voltage is VoltageMode.LOW:
            # Fault-independent low-voltage schemes (word-disabling's halved
            # cache, the baseline reference) still need a map object for
            # their usability checks; the empty map is the canonical one.
            imap = dmap = FaultMap.empty(L1_GEOMETRY)
        else:
            imap = dmap = None

        cfg_i = scheme.configure(L1_GEOMETRY, imap, config.voltage)
        cfg_d = scheme.configure(L1_GEOMETRY, dmap, config.voltage)
        latencies = operating.latencies(
            operating.l1_base_latency + cfg_i.latency_adder,
            operating.l1_base_latency + cfg_d.latency_adder,
        )
        hierarchy = MemoryHierarchy(
            cfg_i.build_cache("l1i", seed=self.settings.seed),
            cfg_d.build_cache("l1d", seed=self.settings.seed),
            L2_GEOMETRY,
            latencies,
            victim_entries_i=config.victim_entries,
            victim_entries_d=config.victim_entries,
        )
        return OutOfOrderPipeline(self.pipeline_config, hierarchy)

    # ----- normalized series (the figure bars) ---------------------------------

    def normalized_series(
        self,
        config: RunConfig,
        baseline: RunConfig,
        benchmarks: "tuple[str, ...] | None" = None,
    ) -> NormalizedSeries:
        """Per-benchmark average and minimum performance of ``config``
        normalized to ``baseline`` (which must be fault-independent).
        Reads pure store hits after :meth:`run`; simulates lazily
        otherwise."""
        if baseline.needs_fault_map:
            raise ValueError("normalisation baseline must be fault-independent")
        if benchmarks is None:
            benchmarks = self.settings.benchmarks
        averages = []
        minimums = []
        for benchmark in benchmarks:
            base_cycles = self.simulate(benchmark, baseline).cycles
            if config.needs_fault_map:
                # One lane-batched pass drives every fault map of the
                # point (store hits excluded), instead of n_fault_maps
                # separate schedule walks.
                normalized = [
                    base_cycles / result.cycles
                    for result in self.simulate_maps(benchmark, config)
                ]
            else:
                normalized = [
                    base_cycles / self.simulate(benchmark, config).cycles
                ]
            averages.append(sum(normalized) / len(normalized))
            minimums.append(min(normalized))
        return NormalizedSeries(
            config_label=config.label,
            benchmarks=tuple(benchmarks),
            average=tuple(averages),
            minimum=tuple(minimums),
        )
