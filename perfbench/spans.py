"""In-memory span recorder and the wrappers that feed it.

The traced run installs :func:`install` before it builds the program.
Each wrapper replaces one public function of a ``repro`` layer, from the
outside, with a version that opens a span around the call (or only
counts it, for the hottest leaf calls). Functions imported by name are
wrapped where they are imported, since that is the name the caller
looks up.

A span has a name, a start, an end, a parent span and a request id.
Calls nest (the program is single-threaded), so a span's self time is
its duration minus the durations of its direct children. Spans stay in
memory and are written out, one JSON array per span, when the run
exits.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

GPU_TIER = 2
"""``GpuEngine.adapter_tier`` value of a GPU-resident adapter."""


class SpanRecorder:
    """Spans as parallel columns, plus counters and samples."""

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self._name_ids: "dict[str, int]" = {}
        self.span_name: "list[int]" = []
        self.span_start: "list[float]" = []
        self.span_end: "list[float]" = []
        self.span_parent: "list[int]" = []
        self.span_rid: "list[str | None]" = []
        self._child_time: "list[float]" = []
        self._stack: "list[int]" = []
        self.calls: "dict[str, int]" = defaultdict(int)
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.counts: "dict[str, float]" = defaultdict(float)
        self.samples: "dict[str, list[float]]" = defaultdict(list)
        self.opened: "dict[str, float]" = {}
        """Request id -> wall time its stream was opened at the bridge."""
        self.admitted: "dict[str, tuple[float, object]]" = {}
        """Request id -> (wall time, request) of its first engine admission."""

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, rid: "str | None" = None) -> int:
        idx = len(self.span_start)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_rid.append(rid)
        self.span_name.append(-1)
        self._child_time.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int, name: str) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.span_end[idx] = end
        self.span_name[idx] = self.name_id(name)
        duration = end - self.span_start[idx]
        parent = self.span_parent[idx]
        if parent >= 0:
            self._child_time[parent] += duration
        self.calls[name] += 1
        self.self_s[name] += duration - self._child_time[idx]

    def write(self, path) -> None:
        """All spans, one JSON array per line:
        ``[name, start, end, parent index, request id]``."""
        with open(path, "w") as f:
            for i, start in enumerate(self.span_start):
                f.write(json.dumps([
                    self.names[self.span_name[i]], start, self.span_end[i],
                    self.span_parent[i], self.span_rid[i],
                ]) + "\n")


def _wrap(owner, attr: str, make):
    fn = getattr(owner, attr)
    wrapper = functools.wraps(fn)(make(fn))
    setattr(owner, attr, wrapper)


def span(rec: SpanRecorder, owner, attr: str, name: str, rid=None, after=None):
    """Record a span named ``name`` around every call of ``owner.attr``.

    ``rid(args, kwargs)`` gives the request id; ``after(result, args)``
    may return another span name (used to split engine steps) and may
    record counters.
    """
    def make(fn):
        def wrapper(*args, **kwargs):
            idx = rec.open(rid(args, kwargs) if rid is not None else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.close(idx, name)
                raise
            rec.close(idx, (after(result, args) or name) if after is not None else name)
            return result
        return wrapper
    _wrap(owner, attr, make)


def count(rec: SpanRecorder, owner, attr: str, name: str, after=None):
    """Count calls of ``owner.attr`` without a span (hot leaf calls)."""
    def make(fn):
        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result
        return wrapper
    _wrap(owner, attr, make)


def sgmv_cost(y, x, wa, wb) -> "tuple[int, int]":
    """FLOPs and bytes of one ``add_lora_sgmv`` call, from tensor shapes.

    Shrink is ``x[T, h_in] @ A[h_in, r]`` and expand ``v[T, r] @ B[r, h_out]``
    per token, 2 FLOPs per multiply-add. Bytes count one read of ``x``,
    of every segment's ``A`` and ``B``, a write and read of ``v``, and a
    read and write of ``y``.
    """
    tokens, h_in = x.shape
    h_out = y.shape[1]
    rank = wa.shape[2]
    flops = 2 * tokens * rank * (h_in + h_out)
    nbytes = (
        x.nbytes + wa.nbytes + wb.nbytes
        + 2 * tokens * rank * y.itemsize
        + 2 * y.nbytes
    )
    return flops, nbytes


def install(rec: SpanRecorder) -> None:
    """Wrap every layer function the per-layer metrics name."""
    import repro.core.batch as batch
    import repro.models.llama as llama
    import repro.runtime.backend as backend
    import repro.runtime.engine as engine_mod
    import repro.serve.server as server
    from repro.cluster.events import EventLoop
    from repro.cluster.metrics import ClusterMetrics
    from repro.cluster.scheduler import PunicaScheduler
    from repro.core.lora import LoraRegistry
    from repro.kvcache.pool import PagedKvData
    from repro.models.config import LlamaConfig
    from repro.obs.tracer import Tracer
    from repro.runtime.engine import GpuEngine
    from repro.serve.bridge import FunctionalBridge, SimulatorBridge
    from repro.serve.gateway import ServeGateway

    # cluster: scheduler, events, metrics
    for attr in ("submit", "drain_queue", "consolidate"):
        span(rec, PunicaScheduler, attr, f"cluster.scheduler.{attr}")
    count(rec, GpuEngine, "can_accept", "cluster.scheduler.can_accept")
    span(rec, EventLoop, "run", "cluster.events.run")

    def pending_peak(_result, args):
        loop = args[0]
        if loop.pending > rec.counts["cluster.events.pending_peak"]:
            rec.counts["cluster.events.pending_peak"] = loop.pending
    count(rec, EventLoop, "schedule", "cluster.events.schedule", after=pending_peak)
    for attr in sorted(vars(ClusterMetrics)):
        if attr.startswith("record_"):
            span(rec, ClusterMetrics, attr, "cluster.metrics.record")

    # runtime: engine
    def classify_step(report, _args):
        if report is None:
            return "runtime.engine.step_idle"
        rec.samples["runtime.engine.batch_size"].append(report.batch_size)
        rec.counts["runtime.engine.evictions"] += len(report.evicted)
        return "runtime.engine.step_prefill" if report.num_prefill else "runtime.engine.step_decode"
    span(rec, GpuEngine, "step", "runtime.engine.step", after=classify_step)
    count(rec, GpuEngine, "cancel", "runtime.engine.cancel")

    add_request = GpuEngine.add_request

    @functools.wraps(add_request)
    def traced_add_request(self, request, now):
        first = request.first_admitted_time is None
        hit = self.adapter_tier(request.lora_id) == GPU_TIER
        add_request(self, request, now)
        rec.counts["adapters.demand_loads"] += 1
        rec.counts["adapters.gpu_hits"] += hit
        if first:
            rec.admitted[request.request_id] = (time.perf_counter(), request)
    GpuEngine.add_request = traced_add_request

    # core: batch planning, LoRA stacking, SGMV
    for owner in (batch, engine_mod, backend):
        span(rec, owner, "plan_batch", "core.batch.plan_batch")
    for owner in (batch, engine_mod):
        span(rec, owner, "plan_decode_batch", "core.batch.plan_decode_batch")

    def plan_cache_hit(result, _args):
        if result is not None:
            rec.counts["core.batch.plan_cache.hits"] += 1
    count(rec, batch.PlanCache, "get", "core.batch.plan_cache.get", after=plan_cache_hit)
    span(rec, LoraRegistry, "stack_padded", "core.lora.stack_padded")

    def sgmv_shapes(_result, args):
        flops, nbytes = sgmv_cost(*args[:4])
        rec.counts["core.sgmv.flops"] += flops
        rec.counts["core.sgmv.bytes"] += nbytes
    span(rec, llama, "add_lora_sgmv", "core.ops.add_lora_sgmv", after=sgmv_shapes)

    # models: perf pricing (imported by name into the backend), config, llama
    for attr in ("model_step_latency", "spec_round_latency", "step_latency_from_terms",
                 "step_latency_steady", "step_latency_steady_run", "step_latency_terms"):
        span(rec, backend, attr, "models.perf.step_latency")
    count(rec, LlamaConfig, "lora_param_count", "models.config.lora_param_count")
    span(rec, llama.LlamaModel, "forward", "models.llama.forward")

    # kvcache
    span(rec, PagedKvData, "gather", "kvcache.pool.gather")

    # obs
    span(rec, Tracer, "emit", "obs.tracer.emit")

    # serve: protocol (imported by name into the server), bridges, gateway
    span(rec, server, "encode_frame", "serve.protocol.encode_frame")
    span(rec, server, "decode_frame", "serve.protocol.decode_frame")

    def op_rid(args, _kwargs):
        return args[1].request_id

    def open_time(_result, args):
        rec.opened[args[1].request_id] = time.perf_counter()
    for bridge in (SimulatorBridge, FunctionalBridge):
        span(rec, bridge, "open", "serve.bridge.open", rid=op_rid, after=open_time)
        span(rec, bridge, "cancel", "serve.bridge.cancel", rid=lambda a, k: a[1])
    span(rec, ServeGateway, "open", "serve.gateway.open", rid=lambda a, k: k.get("request_id"))
    span(rec, ServeGateway, "client_close", "serve.gateway.client_close", rid=lambda a, k: a[1])
    span(rec, ServeGateway, "poll", "serve.gateway.poll")


SPAN_FUNCTIONS = (
    "cluster.scheduler.submit", "cluster.scheduler.drain_queue",
    "cluster.scheduler.consolidate", "cluster.events.run", "cluster.metrics.record",
    "runtime.engine.step", "core.batch.plan_batch", "core.batch.plan_decode_batch",
    "core.lora.stack_padded", "core.ops.add_lora_sgmv", "models.perf.step_latency",
    "models.llama.forward", "kvcache.pool.gather", "obs.tracer.emit",
    "serve.protocol.encode_frame", "serve.protocol.decode_frame",
    "serve.bridge.open", "serve.bridge.cancel", "serve.gateway.open",
    "serve.gateway.client_close", "serve.gateway.poll",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (numpy's default), 0.0 when empty."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def layer_metrics(rec: SpanRecorder, loop=None) -> "dict[str, float]":
    """The program-side per-layer metrics of one traced run.

    ``loop`` is the simulator's event loop, when there is one.
    """
    out: "dict[str, float]" = {}
    steps = ("runtime.engine.step_prefill", "runtime.engine.step_decode",
             "runtime.engine.step_idle")
    for name in SPAN_FUNCTIONS:
        parts = steps if name == "runtime.engine.step" else (name,)
        out[f"{name}.calls"] = sum(rec.calls.get(p, 0) for p in parts)
        out[f"{name}.self_s"] = sum(rec.self_s.get(p, 0.0) for p in parts)
    out["runtime.engine.step_prefill.self_s"] = rec.self_s.get(steps[0], 0.0)
    out["runtime.engine.step_decode.self_s"] = rec.self_s.get(steps[1], 0.0)
    sizes = rec.samples.get("runtime.engine.batch_size", [])
    out["runtime.engine.batch_size.mean"] = _ratio(sum(sizes), len(sizes))
    out["runtime.engine.evictions"] = rec.counts["runtime.engine.evictions"]
    out["runtime.engine.cancel.calls"] = rec.counts["runtime.engine.cancel"]
    out["cluster.scheduler.can_accept_per_submit"] = _ratio(
        rec.counts["cluster.scheduler.can_accept"], out["cluster.scheduler.submit.calls"])
    out["models.config.lora_param_count.calls"] = rec.counts["models.config.lora_param_count"]
    out["core.batch.plan_cache.hit_ratio"] = _ratio(
        rec.counts["core.batch.plan_cache.hits"], rec.counts["core.batch.plan_cache.get"])
    out["core.sgmv.flops"] = rec.counts["core.sgmv.flops"]
    out["core.sgmv.bytes"] = rec.counts["core.sgmv.bytes"]
    out["cluster.events.processed"] = loop.processed if loop is not None else 0
    out["cluster.events.pending_peak"] = rec.counts["cluster.events.pending_peak"]
    out["adapters.gpu_hit_ratio"] = _ratio(
        rec.counts["adapters.gpu_hits"], rec.counts["adapters.demand_loads"])
    waits = [r.queue_wait() * 1e3 for _, r in rec.admitted.values()]
    out["cluster.scheduler.queue_wait_ms.p99"] = percentile(waits, 99)
    admit_waits = [
        (rec.admitted[rid][0] - t) * 1e3
        for rid, t in rec.opened.items() if rid in rec.admitted
    ]
    out["serve.bridge.admit_wait_ms.p99"] = percentile(admit_waits, 99)
    out["trace.spans"] = len(rec.span_start)
    return out
