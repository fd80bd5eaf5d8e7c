"""Span tracer: wraps each layer's public functions from outside ``src/``.

:func:`install` replaces the functions named in :data:`LAYERS` with
wrappers that open a span on entry and close it on exit.  Spans nest on
one stack, so a span's *self* time is its duration minus its children's;
every host second inside a traced ``api.run`` therefore lands in exactly
one layer — the innermost wrapped function on the stack.  Spans (name,
parent, start, end) are kept in flat arrays and written out after the
run by :meth:`SpanRecorder.write`.

Wrapping a method wraps it on the named class and on every subclass
that overrides it; an override defined in ``repro.serve.disagg`` (the
decode-import preemption policy) counts as ``serve.disagg``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

#: layer -> (module, function or Class.method names).  The counts each
#: layer also reports are derived in :func:`layer_metrics`.
LAYERS = {
    "core.gmlake": ("repro.core.allocator", (
        "GMLakeAllocator.malloc", "GMLakeAllocator.free",
        "GMLakeAllocator.empty_cache")),
    "allocators.caching": ("repro.allocators.caching", (
        "CachingAllocator.malloc", "CachingAllocator.free",
        "CachingAllocator.empty_cache")),
    "gpu.vmm": ("repro.gpu.vmm", tuple(
        f"CudaVmm.{name}" for name in (
            "mem_address_reserve", "mem_create", "mem_map",
            "mem_set_access", "mem_unmap", "mem_release",
            "mem_address_free"))),
    "gpu.runtime": ("repro.gpu.runtime", (
        "CudaRuntime.cuda_malloc", "CudaRuntime.cuda_free")),
    "sim": ("repro.sim.engine", ("run_trace",)),
    "workloads": ("repro.workloads.training", ("TrainingWorkload.build_trace",)),
    "serve.simulator": ("repro.serve.simulator", tuple(
        f"ServingSimulator.{name}"
        for name in ("run", "tick", "start", "finish", "inject", "cancel"))),
    "serve.kvcache": ("repro.serve.kvcache", tuple(
        f"KVCacheModel.{name}" for name in (
            "admit", "grow", "release", "headroom_bytes",
            "note_decode_step"))),
    "serve.scheduler": ("repro.serve.scheduler", ("Scheduler.select",)),
    "serve.preemption": ("repro.serve.preemption", tuple(
        f"PreemptionPolicy.{name}"
        for name in ("select_victim", "evict", "restore_us", "forget"))),
    "serve.memtier": ("repro.serve.memtier", tuple(
        f"TierHierarchy.{name}" for name in ("demote", "promote", "discard"))),
    "serve.cluster": ("repro.serve.cluster", (
        "run_serving_cluster", "dispatch_requests")),
    "serve.disagg": ("repro.serve.disagg", ("run_serving_disagg",)),
    "serve.interconnect": ("repro.serve.interconnect", (
        "Interconnect.transfer_us",)),
    "obs.trace": ("repro.obs.trace", (
        "TraceRecorder.record", "TraceRecorder.request_event",
        "AllocatorTraceObserver.on_alloc", "AllocatorTraceObserver.on_free",
        "AllocatorTraceObserver.on_empty_cache",
        "AllocatorTraceObserver.on_oom")),
    "obs.gauges": ("repro.obs.gauges", ("GaugeSampler.poll",)),
    "obs.sink": ("repro.obs.trace", (
        "JsonlTraceSink.write", "ChromeTraceSink.write")),
    "serve.metrics": ("repro.serve.metrics", (
        "ServingReport.from_requests", "ServingReportAccumulator.observe",
        "ServingReportAccumulator.merge", "ServingReportAccumulator.report",
        "repro.serve.simulator:ServingResult.report",
        "repro.serve.cluster:ServeClusterResult.report",
        "repro.serve.disagg:DisaggServingResult.report")),
    "api": ("repro.api.experiment", ("run",)),
}

#: Overrides defined in these modules are charged to the named layer.
MODULE_LAYER = {"repro.serve.disagg": "serve.disagg"}

#: Classes whose instances are collected for their counters.
INSTANCE_CLASSES = (
    ("repro.core.allocator", "GMLakeAllocator"),
    ("repro.gpu.vmm", "CudaVmm"),
    ("repro.gpu.runtime", "CudaRuntime"),
    ("repro.obs.trace", "TraceRecorder"),
)


class SpanRecorder:
    """Flat span storage plus per-function call and self-time totals."""

    def __init__(self):
        self.functions = []      # fid -> (layer, qualified name)
        self.calls = []          # fid -> entries
        self.self_s = []         # fid -> seconds not spent in child spans
        self.flagged = []        # fid -> results the function's hook flagged
        self.errors = []         # fid -> OutOfMemoryError exits
        self.span_fid = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.instances = {}      # class name -> instances created
        self._stack = [-1]       # open span indexes; -1 is the root
        self._child = [0.0]      # child time accumulated per open span

    def _register(self, layer: str, name: str) -> int:
        self.functions.append((layer, name))
        self.calls.append(0)
        self.self_s.append(0.0)
        self.flagged.append(0)
        self.errors.append(0)
        return len(self.functions) - 1

    def wrap(self, fn, layer: str, name: str, flag=None):
        """A span-recording wrapper of ``fn``; ``flag(result)`` counts
        results of interest (a declined select, a failed admit)."""
        from repro.errors import OutOfMemoryError

        fid = self._register(layer, name)
        fids, parents = self.span_fid, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, child = self._stack, self._child
        calls, self_s = self.calls, self.self_s
        flagged, errors = self.flagged, self.errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except OutOfMemoryError:
                errors[fid] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                inner = child.pop()
                child[-1] += end - start
                self_s[fid] += end - start - inner
                calls[fid] += 1
                starts[index] = start
                ends[index] = end
            if flag is not None and flag(result):
                flagged[fid] += 1
            return result

        return wrapper

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the four arrays."""
        header = {"functions": [f"{layer}:{name}"
                                for layer, name in self.functions],
                  "spans": len(self.span_fid),
                  "arrays": ["fid:i32", "parent:i32", "start:f64", "end:f64"]}
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.span_fid, self.span_parent,
                           self.span_start, self.span_end):
                column.tofile(handle)


#: Per-function result hooks feeding ``flagged``.
FLAGS = {
    "Scheduler.select": lambda result: result is None,
    "KVCacheModel.admit": lambda result: not result,
}


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        for each in (sub, *_subclasses(sub)):
            if each not in found:
                found.append(each)
    return found


def _wrap_method(recorder, layer, cls, method, label):
    flag = FLAGS.get(label)
    for owner in (cls, *_subclasses(cls)):
        if owner is not cls and method not in owner.__dict__:
            continue
        raw = owner.__dict__.get(method)
        if raw is None:  # inherited by the named class: wrap it there
            raw = getattr(cls, method)
        owner_layer = MODULE_LAYER.get(owner.__module__, layer)
        name = f"{owner.__qualname__}.{method}"
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(raw.__func__, owner_layer,
                                                name, flag))
        else:
            wrapped = recorder.wrap(raw, owner_layer, name, flag)
        setattr(owner, method, wrapped)


def _wrap_function(recorder, layer, module, name):
    original = getattr(module, name)
    wrapped = recorder.wrap(original, layer, name)
    # Rebind every module-level alias (``from x import f``) as well.
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("repro") and \
                getattr(other, name, None) is original:
            setattr(other, name, wrapped)


def install() -> SpanRecorder:
    """Import every traced module and install the wrappers."""
    recorder = SpanRecorder()
    # Every serving module, so that each subclass exists before wrapping.
    importlib.import_module("repro.serve")
    for layer, (module_name, names) in LAYERS.items():
        for entry in names:
            target_module, _, target = entry.rpartition(":")
            module = importlib.import_module(target_module or module_name)
            if "." in target:
                class_name, method = target.split(".")
                _wrap_method(recorder, layer, getattr(module, class_name),
                             method, target)
            else:
                _wrap_function(recorder, layer, module, target)
    for module_name, class_name in INSTANCE_CLASSES:
        cls = getattr(importlib.import_module(module_name), class_name)
        _collect_instances(recorder, cls)
    return recorder


def _collect_instances(recorder, cls):
    created = recorder.instances.setdefault(cls.__name__, [])
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    cls.__init__ = __init__


def layer_metrics(recorder: SpanRecorder, results: list) -> dict:
    """Per-layer calls and self time, plus the counts each layer exposes.

    ``results`` are the run's ``ExperimentResult`` objects; serving
    counts are read from them after the run.
    """
    from repro.core.bestfit import FitState
    from repro.units import MB

    out = {f"{layer}.{key}": 0.0 if key == "self_s" else 0
           for layer in LAYERS for key in ("calls", "self_s")}
    for fid, (layer, _name) in enumerate(recorder.functions):
        out[f"{layer}.calls"] += recorder.calls[fid]
        out[f"{layer}.self_s"] += recorder.self_s[fid]

    def fid_totals(layer, method):
        calls = flagged = errors = 0
        for fid, (owner_layer, name) in enumerate(recorder.functions):
            if owner_layer == layer and name.endswith("." + method):
                calls += recorder.calls[fid]
                flagged += recorder.flagged[fid]
                errors += recorder.errors[fid]
        return calls, flagged, errors

    def ratio(part, whole):
        return part / whole if whole else 0.0

    gmlakes = recorder.instances["GMLakeAllocator"]
    states = [sum(a.counters.state_hits.values()) for a in gmlakes]
    exact = [a.counters.state_hits[FitState.EXACT_MATCH.value] for a in gmlakes]
    out["core.gmlake.stitches"] = sum(a.counters.stitches for a in gmlakes)
    out["core.gmlake.splits"] = sum(a.counters.splits for a in gmlakes)
    out["core.gmlake.exact_hit_ratio"] = ratio(sum(exact), sum(states))
    out["core.gmlake.oom"] = fid_totals("core.gmlake", "malloc")[2]
    out["allocators.caching.oom"] = fid_totals("allocators.caching",
                                               "malloc")[2]
    out["gpu.vmm.sim_driver_ms"] = sum(
        v.counters.total_time_us for v in recorder.instances["CudaVmm"]) / 1e3
    out["gpu.runtime.sim_driver_ms"] = sum(
        r.counters.total_time_us
        for r in recorder.instances["CudaRuntime"]) / 1e3
    out["serve.simulator.ticks"] = fid_totals("serve.simulator", "tick")[0]
    admits, failed, _ = fid_totals("serve.kvcache", "admit")
    out["serve.kvcache.admit_fail_ratio"] = ratio(failed, admits)
    selects, declined, _ = fid_totals("serve.scheduler", "select")
    out["serve.scheduler.decline_ratio"] = ratio(declined, selects)

    kv = [r.raw.kv_metrics for r in results
          if getattr(r.raw, "kv_metrics", None) is not None]
    out["serve.kvcache.prefix_hit_rate"] = ratio(
        sum(m.prefix_hits for m in kv), sum(m.prefix_lookups for m in kv))
    out["serve.memtier.demoted_mb"] = sum(
        sum(m.demoted_bytes.values()) for m in kv) / MB
    out["serve.interconnect.migrated_mb"] = sum(
        getattr(r.raw, "migrated_bytes", 0) for r in results) / MB
    serving = [r for r in results if r.mode.startswith("serve")]
    out["serve.preemption.preemptions"] = sum(
        r.extras()["preemptions"] for r in serving)
    out["serve.cluster.retries"] = sum(
        r.extras().get("retries", 0) for r in serving)
    recorders = recorder.instances["TraceRecorder"]
    out["serve.cluster.hedges"] = sum(
        e.kind == "hedge" for t in recorders for e in t.events)
    out["obs.trace.events"] = sum(len(t.events) for t in recorders)
    return out
