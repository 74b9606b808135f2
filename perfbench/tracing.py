"""Span recording for the traced benchmark run, installed from outside ``src/``.

:func:`install` wraps the public entry points of each ``repro`` layer
(campaign planning and group execution, trace generation and trace-cache
I/O, fault-map sampling, front-end schedule compilation, the pipeline's
sequential and lane-batched runs, the result stores, partition loading,
figure rendering and the ablation studies).  Every call becomes a span
``(id, parent, name, start_ns, end_ns, notes)`` kept in memory; parents
come from a per-thread stack, so a layer's *self* time excludes the
layers it called (a sequential fallback nested in ``run_batch`` counts
as ``cpu.seq_s``, not ``cpu.batch_s``).  :func:`layer_metrics` folds the
spans into the per-layer metrics named in ``BENCHMARK.json``.

A wrapped name that no longer exists is reported in ``Tracer.missing``
with the reason, never raised: later refactors may delete layers.

The same wrappers, in capture-only mode (:func:`install_capture`), record
the ``SimResult`` of every store write or sequential run so the untraced
run can check its outputs; capture adds one Python call per simulation
point and records no time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import multiprocessing.util
import os
import sys
import threading
import time

#: Spans whose peak-RSS growth is attributed to a memory phase.
MEM_PHASES = {
    "workloads.generate": "traces",
    "workloads.load": "traces",
    "faults.sample": "maps",
    "campaign.execute_group": "execute",
    "cpu.run": "execute",
    "cpu.run_batch": "execute",
}


def vm_hwm_mb(pid: "int | str" = "self") -> float:
    """High-water resident set size of ``pid`` in MiB (``/proc`` VmHWM)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class Tracer:
    """In-memory span registry with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: "list[tuple]" = []
        self.missing: "dict[str, str]" = {}
        self.mem_growth_mb: "dict[str, float]" = {}
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, note):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else (0, "")
        phase = MEM_PHASES.get(name)
        # Attribute RSS growth only to the outermost span of a phase.
        track_mem = phase is not None and not any(
            MEM_PHASES.get(entry[1]) == phase for entry in stack
        )
        hwm0 = vm_hwm_mb() if track_mem else 0.0
        stack.append((span_id, name))
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
        notes = note(args, kwargs, result) if note is not None else None
        if track_mem:
            grown = vm_hwm_mb() - hwm0
            with self._lock:
                self.mem_growth_mb[phase] = self.mem_growth_mb.get(phase, 0.0) + grown
        self.spans.append((span_id, parent[0], name, t0, t1, notes))
        return result

    def root(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a root span (its self time is the work no
        wrapped layer claims)."""
        return self.call(name, fn, args, kwargs, None)

    def dump(self, path: str) -> None:
        payload = {
            "pid": os.getpid(),
            "spans": self.spans,
            "missing": self.missing,
            "mem_growth_mb": self.mem_growth_mb,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)


def _resolve(dotted: str):
    """``module:Class.attr`` -> (owner, attr name, raw attribute)."""
    module_name, _, qual = dotted.partition(":")
    owner = importlib.import_module(module_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, parts[-1])
    return owner, parts[-1], raw


def _replace_everywhere(original, replacement) -> None:
    """Rebind every ``repro`` module global that names ``original``
    (``from x import f`` copies the reference into the importer)."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement


def wrap(tracer: Tracer, dotted: str, name: str, note=None) -> None:
    """Wrap the function, method, staticmethod or classmethod ``dotted``
    so each call records span ``name``."""
    try:
        owner, attr, raw = _resolve(dotted)
    except (ImportError, AttributeError) as exc:
        tracer.missing[dotted] = f"not found: {exc}"
        return
    kind = type(raw)
    fn = raw.__func__ if kind in (staticmethod, classmethod) else raw

    if kind is classmethod:

        @functools.wraps(fn)
        def wrapped_cls(cls, *args, **kwargs):
            return tracer.call(name, fn, (cls, *args), kwargs, note)

        setattr(owner, attr, classmethod(wrapped_cls))
        return

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, note)

    if kind is staticmethod:
        setattr(owner, attr, staticmethod(wrapped))
    elif inspect.isclass(owner):
        setattr(owner, attr, wrapped)
    else:
        _replace_everywhere(fn, wrapped)


def wrap_registry(tracer: Tracer, dotted: str, name: str) -> None:
    """Wrap every callable value of the dict ``dotted`` (figure and
    ablation registries dispatch through them)."""
    try:
        _, _, registry = _resolve(dotted)
    except (ImportError, AttributeError) as exc:
        tracer.missing[dotted] = f"not found: {exc}"
        return
    for key, fn in list(registry.items()):

        def wrapped(*args, _fn=fn, **kwargs):
            return tracer.call(name, _fn, args, kwargs, None)

        registry[key] = functools.wraps(fn)(wrapped)


# ----- notes: counts recorded at the span boundary -------------------------------


def _note_plan(args, kwargs, plan):
    return {"groups": len(plan.groups), "points": plan.total_points}


def _note_group(args, kwargs, result):
    return {"items": len(result)}


def _note_generate(args, kwargs, trace):
    return {"instructions": len(trace)}


def _note_maps(args, kwargs, result):
    return {"maps": len(result) if isinstance(result, (list, tuple)) else 1}


def _note_batch(args, kwargs, results):
    pipelines = args[0] if args else kwargs["pipelines"]
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return {"lanes": len(list(pipelines)), "instructions": len(trace)}


def _note_run(args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    return {"instructions": len(trace)}


def _note_get(args, kwargs, result):
    return {"hit": result is not None}


def _note_kernel(args, kwargs, fn):
    return {"loaded": fn is not None}


def _note_partitions(args, kwargs, merged):
    return {"merged": len(merged)}


STORE_CLASSES = (
    "repro.store.base:MemoryStore",
    "repro.store.jsonl:DiskStore",
    "repro.store.sharded:ShardedDiskStore",
    "repro.store.sqlite:SqliteStore",
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary the per-layer metrics need."""
    wrap(tracer, "repro.campaign.session:Session.plan", "campaign.plan", _note_plan)
    wrap(
        tracer,
        "repro.campaign.session:Session.execute_group",
        "campaign.execute_group",
        _note_group,
    )
    wrap(tracer, "repro.experiments.providers:TraceProvider.get", "workloads.provide")
    wrap(tracer, "repro.cpu.trace:Trace.load", "workloads.load", _note_generate)
    wrap(
        tracer,
        "repro.workloads.generator:TraceGenerator.__init__",
        "workloads.generator_init",
    )
    wrap(
        tracer,
        "repro.workloads.generator:TraceGenerator.generate",
        "workloads.generate",
        _note_generate,
    )
    wrap(tracer, "repro.faults.fault_map:FaultMap.generate", "faults.sample", _note_maps)
    wrap(
        tracer,
        "repro.faults.fault_map:FaultMap.generate_batch",
        "faults.sample",
        _note_maps,
    )
    wrap(tracer, "repro.cpu.frontend:frontend_schedule", "cpu.schedule")
    wrap(tracer, "repro.cpu.pipeline:OutOfOrderPipeline.run", "cpu.run", _note_run)
    wrap(
        tracer,
        "repro.cpu.pipeline:OutOfOrderPipeline.run_batch",
        "cpu.run_batch",
        _note_batch,
    )
    wrap(tracer, "repro.cpu.lane_kernel:load", "cpu.kernel_load", _note_kernel)
    for cls in STORE_CLASSES:
        module, _, name = cls.partition(":")
        try:
            klass = getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError) as exc:
            tracer.missing[cls] = f"not found: {exc}"
            continue
        for method, note in (("get", _note_get), ("put", None), ("flush", None)):
            if method in vars(klass):
                wrap(tracer, f"{cls}.{method}", f"store.{method}", note)
    wrap(
        tracer,
        "repro.store.tools:load_partitions",
        "store.merge",
        _note_partitions,
    )
    wrap(tracer, "repro.experiments.report:reproduction_report", "experiments.render")
    wrap_registry(
        tracer, "repro.experiments.figures:PERFORMANCE_FIGURES", "experiments.render"
    )
    wrap_registry(
        tracer, "repro.experiments.ablation:ABLATION_STUDIES", "experiments.ablation"
    )
    return tracer


def dump_forked_children(tracer: Tracer, directory: str) -> None:
    """Forked pool workers inherit the wrappers: give each a fresh span
    list and write it to ``directory`` when the worker exits cleanly.
    (multiprocessing clears inherited finalizers in a forked child, then
    runs its after-fork hooks, so the finalizer is registered there.)"""

    def after_fork(tracer: Tracer) -> None:
        tracer.spans = []
        tracer.mem_growth_mb = {}
        tracer._local = threading.local()
        path = os.path.join(directory, f"spans-{os.getpid()}.json")
        multiprocessing.util.Finalize(tracer, tracer.dump, args=(path,), exitpriority=0)

    multiprocessing.util.register_after_fork(tracer, after_fork)


# ----- capture-only hooks for the untraced run's correctness gate -----------------


def install_capture(sink: dict, runs: list) -> None:
    """Record ``store.put(key, result)`` into ``sink`` and every
    outermost sequential ``OutOfOrderPipeline.run`` result into ``runs``
    (the ablations simulate outside any store)."""
    from repro.cpu.pipeline import OutOfOrderPipeline
    from repro.store.base import MemoryStore

    put = MemoryStore.put

    @functools.wraps(put)
    def capture_put(self, key, result):
        put(self, key, result)
        sink[key] = result

    MemoryStore.put = capture_put

    run = OutOfOrderPipeline.run
    depth = threading.local()

    @functools.wraps(run)
    def capture_run(self, trace, *args, **kwargs):
        level = getattr(depth, "level", 0)
        depth.level = level + 1
        try:
            result = run(self, trace, *args, **kwargs)
        finally:
            depth.level = level
        if level == 0:
            runs.append((len(trace), result))
        return result

    OutOfOrderPipeline.run = capture_run


# ----- folding spans into per-layer metrics ---------------------------------------


def self_times(spans: "list[tuple]") -> "dict[int, float]":
    """Span id -> duration minus its direct children's durations (s)."""
    child_ns: "dict[int, int]" = {}
    for _, parent, _, t0, t1, _ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    return {
        span_id: max(0, (t1 - t0) - child_ns.get(span_id, 0)) / 1e9
        for span_id, _, _, t0, t1, _ in spans
    }


def nearest_rank(values: "list[float]", q: float) -> float:
    """The smallest value with at least a share ``q`` of ``values`` at or
    below it (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[max(0, rank - 1)]


def layer_metrics(spans: "list[tuple]", mem_growth_mb: "dict[str, float]") -> dict:
    """Per-layer metrics from the spans of one iteration: ``*_s`` are
    self times, counts take only the outermost span of a name (a store
    subclass calling ``super().put`` is one put)."""
    by_id = {span[0]: span for span in spans}
    own = self_times(spans)

    def ancestors(span):
        while span[1] in by_id:
            span = by_id[span[1]]
            yield span

    # run_batch passes that fell back to sequential runs are no passes.
    fell_back = {
        above[0]
        for span in spans
        if span[2] == "cpu.run"
        for above in ancestors(span)
        if above[2] == "cpu.run_batch"
    }
    total: "dict[str, float]" = {}
    count: "dict[str, int]" = {}
    n = dict.fromkeys(
        ("gen_instr", "sim_instr", "lanes", "passes", "fallback_runs", "seq_runs",
         "gets", "hits", "groups", "points", "merged", "maps", "kernel_loaded"),
        0,
    )
    group_durations: "list[float]" = []
    for span in spans:
        span_id, _, name, t0, t1, notes = span
        total[name] = total.get(name, 0.0) + own[span_id]
        above = {entry[2] for entry in ancestors(span)}
        if name in above:
            continue
        count[name] = count.get(name, 0) + 1
        notes = notes or {}
        if name == "workloads.generate":
            n["gen_instr"] += notes["instructions"]
        elif name == "cpu.run_batch" and span_id not in fell_back:
            n["passes"] += 1
            n["lanes"] += notes["lanes"]
            n["sim_instr"] += notes["lanes"] * notes["instructions"]
        elif name == "cpu.run":
            n["fallback_runs" if "cpu.run_batch" in above else "seq_runs"] += 1
            n["sim_instr"] += notes["instructions"]
        elif name == "store.get":
            n["gets"] += 1
            n["hits"] += int(notes["hit"])
        elif name == "campaign.plan":
            n["groups"] += notes["groups"]
            n["points"] += notes["points"]
        elif name == "campaign.execute_group":
            group_durations.append((t1 - t0) / 1e9)
        elif name == "store.merge":
            n["merged"] += notes["merged"]
        elif name == "faults.sample":
            n["maps"] += notes["maps"]
        elif name == "cpu.kernel_load":
            n["kernel_loaded"] = int(notes["loaded"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gen_s = total.get("workloads.generate", 0.0) + total.get(
        "workloads.generator_init", 0.0
    )
    sim_s = total.get("cpu.run_batch", 0.0) + total.get("cpu.run", 0.0)
    m = {
        "workloads.gen_s": gen_s,
        "workloads.generated": count.get("workloads.generate", 0),
        "workloads.gen_kinstr_per_s": ratio(n["gen_instr"], gen_s) / 1e3,
        "workloads.load_s": total.get("workloads.load", 0.0)
        + total.get("workloads.provide", 0.0),
        "workloads.loaded": count.get("workloads.load", 0),
        "faults.sample_s": total.get("faults.sample", 0.0),
        "faults.maps": n["maps"],
        "cpu.kernel_build_s": total.get("cpu.kernel_load", 0.0),
        "cpu.kernel_loaded": n["kernel_loaded"],
        "cpu.schedule_s": total.get("cpu.schedule", 0.0),
        "cpu.schedules": count.get("cpu.schedule", 0),
        "cpu.batch_s": total.get("cpu.run_batch", 0.0),
        "cpu.batch_calls": count.get("cpu.run_batch", 0),
        "cpu.passes": n["passes"],
        "cpu.lanes_per_pass": ratio(n["lanes"], n["passes"]),
        "cpu.kips": ratio(n["sim_instr"], sim_s) / 1e3,
        "cpu.seq_s": total.get("cpu.run", 0.0),
        "cpu.seq_runs": n["seq_runs"],
        "cpu.fallback_runs": n["fallback_runs"],
        "campaign.plan_s": total.get("campaign.plan", 0.0),
        "campaign.groups": n["groups"],
        "campaign.points": n["points"],
        "campaign.execute_s": total.get("campaign.execute_group", 0.0),
        "campaign.group_p50_s": nearest_rank(group_durations, 0.5),
        "campaign.group_p90_s": nearest_rank(group_durations, 0.9),
        "store.put_s": total.get("store.put", 0.0),
        "store.puts": count.get("store.put", 0),
        "store.get_s": total.get("store.get", 0.0),
        "store.gets": n["gets"],
        "store.hit_ratio": ratio(n["hits"], n["gets"]),
        "store.flush_s": total.get("store.flush", 0.0),
        "store.merge_s": total.get("store.merge", 0.0),
        "store.merged": n["merged"],
        "experiments.render_s": total.get("experiments.render", 0.0),
        "experiments.ablation_s": total.get("experiments.ablation", 0.0),
        "trace.self_sum_s": sum(own.values()),
        "trace.spans": len(spans),
    }
    for phase in ("traces", "maps", "execute"):
        m[f"mem.{phase}_mb"] = mem_growth_mb.get(phase, 0.0)
    return m
