"""Discrete-event cluster simulation: trace in, Fig 13 panels out.

Each GPU runs back-to-back batches (KvCache affinity — the paper contrasts
this with Symphony's non-work-conserving scheduler): when a step finishes
at time t, the next step for that GPU is scheduled at t immediately if it
has work. Arrivals fire scheduler submissions; finished/evicted requests
trigger queue drains and re-placements; a periodic event runs the
consolidation migration pass.

With a :class:`~repro.cluster.faults.FaultInjector` attached, injected
faults are applied at their scheduled times: a crashed GPU leaves the pool
and its in-flight requests are re-placed through the same evict +
re-prefill path migration uses (§5.3); requests are shed with a FAILED
terminal state only when no surviving capacity remains (docs/faults.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.events import EventLoop
from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.scheduler import PunicaScheduler, SchedulerConfig
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.request import Request, RequestState
from repro.runtime.serve import requests_from_trace
from repro.utils.fastpath import fastpath_enabled
from repro.workloads.trace import Trace


@dataclass
class SimulationResult:
    """Outcome of one cluster run."""

    duration: float
    metrics: ClusterMetrics
    requests: list[Request]
    num_migrations: int
    events_processed: int

    @property
    def tokens_generated(self) -> int:
        return int(self.metrics.total_tokens())

    @property
    def finished_requests(self) -> int:
        return sum(1 for r in self.requests if r.state is RequestState.FINISHED)

    @property
    def failed_requests(self) -> int:
        return sum(1 for r in self.requests if r.state is RequestState.FAILED)

    @property
    def throughput(self) -> float:
        return self.tokens_generated / self.duration if self.duration > 0 else 0.0

    def mean_normalized_latency(self) -> float:
        lats = [
            r.normalized_latency()
            for r in self.requests
            if r.state is RequestState.FINISHED and r.num_generated > 0
        ]
        return sum(lats) / len(lats) if lats else 0.0

    def summary(self) -> str:
        """One human-readable line for logs and examples."""
        return (
            f"{self.finished_requests}/{len(self.requests)} requests, "
            f"{self.tokens_generated} tokens in {self.duration:.1f}s | "
            f"{self.throughput:.0f} tok/s | {self.num_migrations} migrations | "
            f"mean latency {self.mean_normalized_latency() * 1e3:.1f} ms/tok"
        )


class ClusterSimulator:
    """Drives a scheduler + engine pool through a request trace."""

    def __init__(
        self,
        engines: "list",
        scheduler_config: SchedulerConfig | None = None,
        registry=None,
        prefetcher=None,
        fault_injector: "FaultInjector | None" = None,
        tracer: "Tracer | None" = None,
        fast_path: bool | None = None,
    ):
        """``registry`` (an :class:`~repro.adapters.registry.AdapterRegistry`)
        receives per-adapter arrival feeds for popularity EWMAs;
        ``prefetcher`` (a :class:`~repro.adapters.prefetch.Prefetcher`) is
        attached to every engine's loader and ticked periodically;
        ``fault_injector`` (a :class:`~repro.cluster.faults.FaultInjector`)
        schedules deterministic faults the simulator applies and recovers
        from; ``tracer`` (a :class:`~repro.obs.tracer.Tracer`) is threaded
        through the scheduler, engines, adapter stores and injector so the
        whole run emits one request-level event stream."""
        self.scheduler = PunicaScheduler(engines, scheduler_config, prefetcher,
                                         tracer=tracer)
        self.fast_path = fastpath_enabled(fast_path)
        self.loop = EventLoop()
        self.metrics = ClusterMetrics()
        self.registry = registry
        self.prefetcher = prefetcher
        self.fault_injector = fault_injector
        self.tracer = tracer
        if tracer is not None:
            for engine in self.scheduler.engines.values():
                if hasattr(engine, "tracer"):
                    engine.tracer = tracer
                store = getattr(getattr(engine, "loader", None), "store", None)
                if store is not None:
                    store.tracer = tracer
            if fault_injector is not None:
                fault_injector.tracer = tracer
        if prefetcher is not None:
            prefetcher.attach(
                {
                    gid: e.loader
                    for gid, e in self.scheduler.engines.items()
                    if hasattr(e, "loader")
                }
            )
        self._requests: dict[str, Request] = {}
        self._gpu_busy: dict[str, bool] = {gid: False for gid in self.scheduler.engines}
        self._step_actions: dict[str, "object"] = {}
        """One reusable step closure per GPU — scheduling thousands of
        decode continuations must not allocate a fresh closure each."""
        self.inline_steps = 0
        """Steps run inline by the batched-decode fast lane instead of
        through the heap (diagnostic only — kept out of the metrics
        registry so differential runs compare equal)."""
        self._pending_arrivals = 0
        self._recovering: list[tuple[float, list[Request]]] = []
        """(fault time, displaced requests) sets not yet fully re-admitted."""
        self._step_hook = None
        """Optional ``(gpu_id, engine, report) -> None`` called after each
        step's finish/evict handling — the disaggregated subsystem's
        export/drain hook. ``None`` keeps the colocated hot loop at one
        falsy attribute test per step."""

    @property
    def now(self) -> float:
        """The simulated clock — what the serving bridge warps to wall time."""
        return self.loop.now

    # ------------------------------------------------------------------
    def run(self, trace: Trace, until: float | None = None) -> SimulationResult:
        requests = self._start(trace)
        end = self.loop.run(until=until)
        self._drain_adapter_events()
        return self._result(requests, end)

    def _start(self, trace: Trace) -> "list[Request]":
        """Arm a run: the trace-arrival cursor, then the periodic timers.

        The cursor reserves one ``seq`` per trace request *before* any
        timer is scheduled, so every arrival tie-breaks ahead of the
        same-time step, tick and retry events scheduled after run start
        (the order the golden traces pin), while only one trace arrival
        is ever pending on the loop.
        """
        requests = requests_from_trace(trace)
        for req in requests:
            self._requests[req.request_id] = req
        self._pending_arrivals += len(requests)
        if requests:
            base = self.loop.reserve(len(requests))
            self._feed_arrival(requests, base, 0)
        cfg = self.scheduler.config
        if cfg.consolidation:
            self.loop.schedule(cfg.migration_interval, self._migration_tick)
        if self.prefetcher is not None:
            self.loop.schedule(0.0, self._prefetch_tick)
        if self.fault_injector is not None:
            self.fault_injector.arm(self.loop, self._apply_fault)
        return requests

    def _feed_arrival(self, requests: "list[Request]", base: int, i: int) -> None:
        """Put trace arrival ``i`` on the loop under its reserved seq; when
        it fires it first feeds arrival ``i + 1``, so the next arrival is
        always visible to :meth:`EventLoop.peek_time`."""
        arrive = self._make_arrival(requests[i])

        def cursor(now: float) -> None:
            if i + 1 < len(requests):
                self._feed_arrival(requests, base, i + 1)
            arrive(now)

        self.loop.schedule(requests[i].spec.arrival_time, cursor, seq=base + i)

    def _result(self, requests: "list[Request]", end: float) -> SimulationResult:
        return SimulationResult(
            duration=end,
            metrics=self.metrics,
            requests=requests,
            num_migrations=self.scheduler.num_migrations,
            events_processed=self.loop.processed,
        )

    # ------------------------------------------------------------------
    def schedule_arrival(self, req: Request, at: "float | None" = None) -> None:
        """Register one future request arrival on the event loop.

        ``at`` overrides the spec's arrival time — the frontend's retry
        path resubmits a request at failure time + backoff, not at its
        original arrival.
        """
        self._pending_arrivals += 1
        time = req.spec.arrival_time if at is None else at
        self.loop.schedule(time, self._make_arrival(req))

    def work_remaining(self) -> bool:
        """Whether any request is still queued, running, or yet to arrive.

        Periodic ticks (migration, autoscaling) key their rescheduling on
        this — not on ``loop.pending``, which would count the ticks
        themselves and livelock the loop.
        """
        if self._pending_arrivals > 0 or self.scheduler.queue_depth > 0:
            return True
        return any(not e.is_idle for e in self.scheduler.engines.values())

    def _make_arrival(self, req: Request):
        def arrival(now: float) -> None:
            self._pending_arrivals -= 1
            if req.state.is_terminal:
                # Cancelled (or failed) before the simulated arrival: the
                # stale event must not reach the scheduler — submitting a
                # CANCELLED request used to crash mark_running and with it
                # the whole event loop.
                return
            self.metrics.record_arrival(now)
            if self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.SUBMIT, req.request_id,
                    lora=req.lora_id, prompt=req.spec.prompt_len,
                    response=req.spec.response_len, retries=req.num_retries,
                )
            if self.registry is not None and req.lora_id in self.registry:
                self.registry.record_request(req.lora_id, now)
            if not self.scheduler.engines:
                self._shed(req, now, "shed: no GPUs in the pool")
                return
            gpu = self.scheduler.submit(req, now)
            if gpu is not None:
                self._kick(gpu, now)

        return arrival

    # ------------------------------------------------------------------
    # Cancellation (user disconnect — frontends call this)
    # ------------------------------------------------------------------
    def cancel(
        self, request: Request, now: "float | None" = None, reason: str = "user"
    ) -> None:
        """Cancel a request wherever it is, then re-admit queued work.

        The drain kick is load-bearing: cancelling the last running request
        frees batch/KvCache capacity, but no step report fires for it, so
        without an explicit drain the FCFS queue would stay stranded until
        some other request finished — forever, if none was running.
        """
        now = self.loop.now if now is None else now
        gpu = self.scheduler.cancel(request)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.CANCEL, request.request_id, gpu, reason=reason
            )
        placed = self.scheduler.drain_queue(now)
        for gid in set(placed):
            self._kick(gid, now)

    def _prefetch_tick(self, now: float) -> None:
        self.prefetcher.tick(now)
        if self.work_remaining():
            self.loop.schedule(
                now + self.prefetcher.config.interval, self._prefetch_tick
            )

    def _drain_adapter_events(self) -> None:
        """Fold every engine loader's adapter event log into the metrics."""
        events = []
        for engine in self.scheduler.engines.values():
            drain = getattr(getattr(engine, "loader", None), "drain_events", None)
            if drain is not None:
                events.extend(drain())
        if events:
            self.metrics.ingest_adapter_events(events)

    def _migration_tick(self, now: float) -> None:
        moved = self.scheduler.consolidate(now)
        if moved:
            for gid in self.scheduler.engines:
                self._kick(gid, now)
        if self.work_remaining():
            self.loop.schedule(
                now + self.scheduler.config.migration_interval, self._migration_tick
            )

    def _kick(self, gpu_id: str, now: float) -> None:
        """Ensure a step event is scheduled for an idle-but-loaded GPU."""
        if self._gpu_busy[gpu_id]:
            return
        engine = self.scheduler.engines[gpu_id]
        if engine.is_idle:
            return
        self._gpu_busy[gpu_id] = True
        self.loop.schedule(now, self._step_action(gpu_id))

    def _step_action(self, gpu_id: str):
        """The cached step closure for one GPU (see ``_step_actions``)."""
        action = self._step_actions.get(gpu_id)
        if action is None:
            action = self._step_actions[gpu_id] = self._make_step(gpu_id)
        return action

    def _make_step(self, gpu_id: str):
        def step(now: float) -> None:
            while True:
                engine = self.scheduler.engines.get(gpu_id)
                if engine is None or not getattr(engine, "alive", True):
                    # The GPU crashed (or was released) after this step event
                    # was armed; its requests were already re-placed.
                    self._gpu_busy.pop(gpu_id, None)
                    return
                report = engine.step(now)
                if report is None:
                    # Blocked on an in-flight LoRA load: wake when it lands.
                    self._gpu_busy[gpu_id] = False
                    wake = engine.next_ready_time()
                    if wake is not None and not engine.is_idle:
                        self._gpu_busy[gpu_id] = True
                        self.loop.schedule(
                            max(wake, now), self._step_action(gpu_id)
                        )
                    return

                end = report.end
                self.metrics.record_step(
                    gpu_id, report.start, report.tokens_generated, report.batch_size
                )
                if report.finished or report.evicted:
                    for rid in report.evicted:
                        target = self.scheduler.submit(self._requests[rid], end)
                        if target is not None:
                            self._kick(target, end)
                    placed = self.scheduler.drain_queue(end)
                    for gid in set(placed):
                        self._kick(gid, end)

                if self._step_hook is not None:
                    self._step_hook(gpu_id, engine, report)

                if engine.is_idle:
                    self._gpu_busy[gpu_id] = False
                    if self._recovering:
                        self._check_recoveries(end)
                    return

                # This GPU's next step is due at `end`. The fast lane runs
                # it inline when it would be the very next event anyway:
                # strictly earlier than every pending event (a tie loses to
                # the already-enqueued event by seq order) and inside the
                # loop's until/max_events budget. Any interleaved arrival,
                # fault, kick or migration tick lands in the queue first and
                # forces the general path, so coalescing cannot reorder
                # cross-cutting events.
                if self.fast_path:
                    peek = self.loop.peek_time()
                    if (peek is None or end < peek) and self.loop.try_advance(end):
                        self.inline_steps += 1
                        if self._recovering:
                            self._check_recoveries(end)
                        now = end
                        continue
                self.loop.schedule(end, self._step_action(gpu_id))
                if self._recovering:
                    self._check_recoveries(end)
                return

        return step

    # ------------------------------------------------------------------
    # Fault application and recovery (docs/faults.md)
    # ------------------------------------------------------------------
    def _apply_fault(self, spec: FaultSpec, now: float) -> "tuple[str | None, bool]":
        """Apply one injected fault; returns (target gpu, applied?)."""
        inj = self.fault_injector
        engines = self.scheduler.engines
        if spec.kind is FaultKind.GPU_CRASH:
            gpu_id = spec.gpu_id or inj.pick_gpu(engines)
            engine = engines.get(gpu_id) if gpu_id is not None else None
            if engine is None or not getattr(engine, "alive", True):
                return gpu_id, False
            if len(engines) == 1 and not inj.allow_last_gpu_crash:
                return gpu_id, False
            self.metrics.record_fault(now)
            displaced = self.scheduler.fail_engine(gpu_id, now)
            self._gpu_busy.pop(gpu_id, None)
            self._replace_requests(displaced, now)
            return gpu_id, True

        if spec.kind is FaultKind.GPU_SLOWDOWN:
            gpu_id = spec.gpu_id or inj.pick_gpu(engines)
            engine = engines.get(gpu_id) if gpu_id is not None else None
            if engine is None or not getattr(engine, "alive", True):
                return gpu_id, False
            self.metrics.record_fault(now)
            engine.slowdown_factor = max(engine.slowdown_factor, spec.factor)

            def restore(_t: float, engine=engine) -> None:
                engine.slowdown_factor = 1.0

            self.loop.schedule(now + spec.duration, restore)
            return gpu_id, True

        if spec.kind is FaultKind.PCIE_STALL:
            gpu_id = spec.gpu_id or inj.pick_gpu(engines)
            engine = engines.get(gpu_id) if gpu_id is not None else None
            stall = getattr(getattr(engine, "loader", None), "stall_pcie", None)
            if engine is None or not getattr(engine, "alive", True) or stall is None:
                return gpu_id, False
            self.metrics.record_fault(now)
            stall(now, spec.duration)
            # Step events armed on the pre-stall ready time fire early,
            # see the load still in flight, and re-arm on the new time —
            # but only if one was armed at all; kick to be safe.
            self._kick(gpu_id, now)
            return gpu_id, True

        if spec.kind is FaultKind.ADAPTER_LOAD_FAIL:
            gpu_id, lora_id = self._pick_load_failure(spec, now)
            if gpu_id is None or lora_id is None:
                return gpu_id, False
            engine = engines[gpu_id]
            self.metrics.record_fault(now)
            # Displace the pending requests waiting on the failed copy
            # (they hold the only pins an in-flight adapter can have),
            # then drop the entry so a re-placement reissues the load.
            victims = [
                r
                for r in engine.all_requests()
                if r.needs_prefill and r.lora_id == lora_id
            ]
            for req in victims:
                engine.cancel(req.request_id, requeue=True)
            engine.loader.fail_load(lora_id, now)
            self._replace_requests(victims, now)
            return gpu_id, True

        if spec.kind is FaultKind.KV_TRANSFER_FAIL:
            return self._fail_transfer(spec, now)

        raise ValueError(f"unknown fault kind {spec.kind!r}")

    def _fail_transfer(self, spec: FaultSpec, now: float) -> "tuple[str | None, bool]":
        """Lose one in-flight KV handoff. The colocated simulator has no
        transfers, so the fault is dropped (``applied=False``); the
        disaggregated simulator overrides this."""
        return spec.gpu_id, False

    def _pick_load_failure(
        self, spec: FaultSpec, now: float
    ) -> "tuple[str | None, str | None]":
        """Resolve the (gpu, adapter) target of an ADAPTER_LOAD_FAIL."""
        inj = self.fault_injector
        engines = self.scheduler.engines
        if spec.gpu_id is not None:
            candidates = {spec.gpu_id: engines.get(spec.gpu_id)}
        else:
            candidates = {
                gid: e
                for gid, e in engines.items()
                if getattr(e, "alive", True)
                and getattr(getattr(e, "loader", None), "inflight_models", None)
                and e.loader.inflight_models(now)
            }
        if not candidates or any(e is None for e in candidates.values()):
            return spec.gpu_id, None
        gpu_id = spec.gpu_id or inj.pick_gpu(candidates, prefer_busy=False)
        engine = candidates[gpu_id]
        lora_id = spec.lora_id or inj.pick_inflight_lora(engine, now)
        return gpu_id, lora_id

    def _replace_requests(self, displaced: "list[Request]", now: float) -> None:
        """Re-place requests a fault knocked off their GPU (§5.3 re-prefill),
        shedding only when no surviving capacity remains."""
        if not displaced:
            return
        if not self.scheduler.engines:
            for req in displaced + self.scheduler.drain_all_queued():
                self._shed(req, now, "shed: no GPUs in the pool")
            return
        for req in displaced:
            self.metrics.record_replacement(now)
            gpu = self.scheduler.submit(req, now)
            if gpu is not None:
                self._kick(gpu, now)
        placed = self.scheduler.drain_queue(now)
        for gid in set(placed):
            self._kick(gid, now)
        self._recovering.append((now, list(displaced)))
        self._check_recoveries(now)

    def _shed(self, request: Request, now: float, reason: str) -> None:
        request.mark_failed(reason)
        self.metrics.record_shed(now)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.SHED, request.request_id, reason=reason
            )

    def _check_recoveries(self, now: float) -> None:
        """Record recovery latency once a fault's displaced set is fully
        re-admitted (no survivor still waiting in the FCFS queue)."""
        still_pending = []
        for fault_time, reqs in self._recovering:
            if any(r.state is RequestState.QUEUED for r in reqs):
                still_pending.append((fault_time, reqs))
            else:
                self.metrics.record_recovery(now, now - fault_time)
        self._recovering = still_pending
