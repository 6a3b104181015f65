"""Disaggregated prefill/decode cluster simulation.

:class:`DisaggSimulator` extends the colocated
:class:`~repro.cluster.simulator.ClusterSimulator` with a two-stage
request lifecycle (InfiniLoRA-style):

1. **Prefill** — new and re-queued requests route onto the *prefill pool*
   only (the scheduler's pack rule, restricted by engine role).
2. **Handoff** — the moment a request's prefill invocation completes, its
   paged KvCache is exported and a point-to-point transfer is scheduled,
   priced by :meth:`~repro.hw.interconnect.InterconnectSpec.transfer_time`
   over the configured link. The transfer is a real event-loop event, so
   the fast path's inline step coalescing disarms on it automatically.
3. **Decode admission** — on arrival the request is admitted onto the
   decode GPU with the best adapter locality (CaraServe-style, reusing
   the adapter store's residency tiers); if none can admit it, it waits
   in a decode queue drained as decode capacity frees up. Under
   ``control=`` the SLO router admits by ITL headroom instead and drains
   the queue earliest-deadline-first, shedding waiters whose TTFT
   deadline has passed.

Backpressure falls back to colocated mode: when the decode pool is
saturated (queue + in-flight transfers at the configured bound) or gone,
a freshly prefilled request simply keeps decoding on its prefill GPU.

The first generated token travels with the KV pages — the decode GPU
delivers it with its first decode step (Splitwise-style accounting), so
time-to-first-token includes the handoff cost for transferred requests.

Fault story: a ``KV_TRANSFER_FAIL`` loses one in-flight handoff; the
request drops its KV copy and re-enters through the §5.3 evict +
re-prefill path. A decode-pool GPU crash re-places its requests through
the prefill pool; if the whole decode pool dies, waiting handoffs fall
back to re-prefill too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.cluster.disagg.config import DisaggConfig
from repro.cluster.events import EventHandle
from repro.cluster.faults import FaultKind, FaultSpec
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.obs.tracer import EventKind
from repro.runtime.request import Request, RequestState


@dataclass
class _Transfer:
    """One paged KV handoff in flight over the interconnect."""

    request: Request
    kv_tokens: int
    nbytes: float
    start: float
    source: str
    handle: EventHandle


class DisaggSimulator(ClusterSimulator):
    """Drives a role-split engine pool through a request trace."""

    def __init__(
        self,
        prefill_engines: "list",
        decode_engines: "list",
        config: DisaggConfig | None = None,
        scheduler_config=None,
        **kwargs,
    ):
        """The remaining keyword arguments (``registry``, ``prefetcher``,
        ``fault_injector``, ``tracer``, ``fast_path``, ``control``) are
        :class:`~repro.cluster.simulator.ClusterSimulator`'s; the router
        ``control`` picks also sets the decode queue's discipline."""
        if not prefill_engines:
            raise ValueError("disaggregated serving needs at least one prefill engine")
        if not decode_engines:
            raise ValueError("disaggregated serving needs at least one decode engine")
        for engine in prefill_engines:
            engine.role = "prefill"
        for engine in decode_engines:
            engine.role = "decode"
        engines = list(prefill_engines) + list(decode_engines)
        for engine in engines:
            if not hasattr(engine.backend, "kv_export"):
                raise TypeError(
                    f"engine {engine.gpu_id} backend lacks the KV handoff "
                    "interface (kv_export/kv_import)"
                )
        # Consolidation migrates via cancel + re-add (§5.3); the
        # scheduler's role-equality rule keeps every move inside its role
        # pool, so a caller may now opt in with ``consolidation=True``.
        # The default stays off: migration inside the prefill pool
        # re-prefills work that was about to be handed off anyway.
        if scheduler_config is None:
            scheduler_config = SchedulerConfig(consolidation=False)
        super().__init__(engines, scheduler_config=scheduler_config, **kwargs)
        self.config = config or DisaggConfig()
        self._step_hook = self._on_step
        self._transfers: "dict[str, _Transfer]" = {}
        self._decode_queue: "list[tuple[float, int, Request, int]]" = []
        """Heap by handoff completion time: (ready time, seq, request, kv
        tokens). The router drains it in its own discipline."""
        self._decode_seq = 0
        self._colocated: "set[str]" = set()
        """Requests decoding on their prefill GPU (backpressure fallback);
        never exported again."""
        self.scheduler.migration_hook = self._on_migrate

    def _on_migrate(self, request, source_id: str, target_id: str) -> None:
        """Role-aware consolidation moved a request (§5.3 re-prefill on
        the target): its old colocation decision dies with its KvCache —
        after the move it is a fresh prefill on the target and eligible
        for export (or a fresh fallback decision) there."""
        self._colocated.discard(request.request_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def transfers_in_flight(self) -> int:
        return len(self._transfers)

    @property
    def decode_queue_depth(self) -> int:
        return sum(
            1 for _, _, r, _ in self._decode_queue if not r.state.is_terminal
        )

    def work_remaining(self) -> bool:
        if super().work_remaining():
            return True
        return bool(self._transfers) or self.decode_queue_depth > 0

    def _decode_pool_alive(self) -> bool:
        return any(
            self.scheduler._decode_capable(e) and getattr(e, "alive", True)
            for e in self.scheduler.engines.values()
        )

    def _decode_saturated(self) -> bool:
        backlog = len(self._transfers) + self.decode_queue_depth
        return (
            backlog >= self.config.decode_queue_limit
            or not self._decode_pool_alive()
        )

    # ------------------------------------------------------------------
    # Step hook: export finished prefills, drain the decode queue
    # ------------------------------------------------------------------
    def _on_step(self, gpu_id: str, engine, report) -> None:
        if engine.role == "prefill":
            for rid in report.evicted:
                # An evicted request re-prefills from scratch; its old
                # colocation decision dies with its KvCache.
                self._colocated.discard(rid)
            for rid in report.finished:
                self._colocated.discard(rid)
            end = report.end
            for req in engine.all_requests():
                rid = req.request_id
                if (
                    req.needs_prefill
                    or rid in self._colocated
                    or req.state is not RequestState.RUNNING
                ):
                    continue
                if self._decode_saturated():
                    self._colocated.add(rid)
                    self.metrics.record_colocated_fallback(report.start)
                    continue
                self._start_transfer(engine, rid, end)
        elif report.finished or report.evicted:
            # Decode capacity freed: admit waiting handoffs.
            self._drain_decode_queue(report.end)

    def _start_transfer(self, engine, request_id: str, now: float) -> None:
        request, kv_tokens = engine.export_request(request_id, now)
        if request.num_generated == 1:
            # The prefill-produced token travels with the pages; the
            # decode GPU delivers it, so TTFT includes the handoff.
            request.first_token_time = None
        nbytes = engine.backend.kv_bytes_of(kv_tokens)
        duration = self.config.interconnect.transfer_time(nbytes)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.KV_TRANSFER_START, request_id, engine.gpu_id,
                nbytes=nbytes, duration=duration, kv_tokens=kv_tokens,
                link=self.config.interconnect.name,
            )
        handle = self.loop.schedule(
            now + duration, self._make_transfer_done(request_id)
        )
        self._transfers[request_id] = _Transfer(
            request=request, kv_tokens=kv_tokens, nbytes=nbytes,
            start=now, source=engine.gpu_id, handle=handle,
        )

    def _make_transfer_done(self, request_id: str):
        def transfer_done(now: float) -> None:
            tr = self._transfers.pop(request_id)
            self.metrics.record_kv_transfer(now, now - tr.start, tr.nbytes)
            if self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.KV_TRANSFER_DONE, request_id, tr.source,
                    nbytes=tr.nbytes,
                )
            req = tr.request
            if req.state.is_terminal:
                return
            heapq.heappush(
                self._decode_queue, (now, self._decode_seq, req, tr.kv_tokens)
            )
            self._decode_seq += 1
            handled = self._drain_decode_queue(now)
            if request_id not in handled and self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.QUEUE, request_id, reason="decode_wait",
                    depth=self.decode_queue_depth,
                )

        return transfer_done

    def _drain_decode_queue(self, now: float) -> "list[str]":
        """Admit waiting handoffs in the router's discipline; returns the
        ids that left the queue. With the decode pool gone entirely,
        waiters fall back to the §5.3 re-prefill path instead of
        starving."""
        handled: "list[str]" = []
        if not self._decode_queue:
            return handled
        if not self._decode_pool_alive():
            victims: "list[Request]" = []
            for _, _, req, _ in sorted(self._decode_queue):
                if req.state.is_terminal:
                    continue
                req.drop_kv()
                if self.tracer is not None:
                    self.tracer.emit(
                        now, EventKind.QUEUE, req.request_id,
                        reason="decode_pool_lost",
                    )
                victims.append(req)
                handled.append(req.request_id)
            self._decode_queue.clear()
            self._replace_requests(victims, now)
            return handled
        for rid, gpu in self.scheduler.drain_decode_queue(self._decode_queue, now):
            handled.append(rid)
            if gpu is not None:
                self._kick(gpu, now)
        return handled

    # ------------------------------------------------------------------
    # Cancellation
    # ------------------------------------------------------------------
    def cancel(self, request, now=None, reason: str = "user") -> None:
        now = self.loop.now if now is None else now
        tr = self._transfers.pop(request.request_id, None)
        if tr is not None:
            # Mid-transfer: disarm the completion event; the pages are
            # dropped on arrival.
            tr.handle.cancel()
            request.mark_cancelled()
            if self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.CANCEL, request.request_id, None,
                    reason=reason,
                )
            return
        self._colocated.discard(request.request_id)
        super().cancel(request, now, reason)
        # Cancelling a decode-pool request frees import capacity the
        # scheduler's main-queue drain knows nothing about.
        self._drain_decode_queue(now)

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def _apply_fault(self, spec: FaultSpec, now: float):
        gpu_id, applied = super()._apply_fault(spec, now)
        if applied and spec.kind is FaultKind.GPU_CRASH:
            # A decode-pool crash shrank import capacity — or killed the
            # pool entirely; reroute (or re-prefill) the waiters now.
            self._drain_decode_queue(now)
        return gpu_id, applied

    def _fail_transfer(self, spec: FaultSpec, now: float):
        candidates = [
            rid
            for rid, tr in self._transfers.items()
            if not tr.request.state.is_terminal
        ]
        rid = self.fault_injector.pick_transfer(candidates)
        if rid is None:
            return None, False
        tr = self._transfers.pop(rid)
        tr.handle.cancel()
        self.metrics.record_fault(now)
        self.metrics.record_kv_transfer_failure(now)
        req = tr.request
        req.drop_kv()
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.QUEUE, rid, tr.source, reason="transfer_fail"
            )
        self._replace_requests([req], now)
        return tr.source, True
