"""The serving gateway: admission control glued onto the cluster frontend.

:class:`ServeGateway` is the clock-agnostic core of the async serving
frontend — everything the server does *except* the asyncio plumbing.
Time flows only through ``now`` arguments, so the same gateway runs in
two modes:

* **deterministic** — driven by events on the simulator's own discrete
  event loop (the ``serve`` golden-trace scenario in
  :mod:`repro.obs.scenarios`): byte-identical traces under a fixed seed;
* **asyncio** — driven by :class:`~repro.serve.bridge.SimulatorBridge`,
  which pumps the virtual clock from a wall-clock task and feeds client
  submissions/cancels in as they arrive.

Responsibilities: per-tenant admission (:mod:`repro.serve.limits`),
connection-lifecycle tracing (CONNECT / DISCONNECT / SHED events with
``request_id=None`` — a shed connection never owns a request timeline),
serving metrics (:mod:`repro.serve.metrics`), and exactly-one
``release`` per admitted stream back to the controller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cluster.frontend import Frontend, RequestHandle, TokenCallback
from repro.obs.tracer import EventKind, Tracer
from repro.serve.limits import AdmissionController, Decision
from repro.serve.metrics import ServeMetrics


@dataclass
class OpenStream:
    """Gateway-side state of one admitted stream."""

    handle: RequestHandle
    tenant: str
    opened_at: float
    ttfb_observed: bool = False
    tokens_streamed: int = 0
    cancelled: bool = False
    finalized: bool = False
    extra: dict = field(default_factory=dict)
    """Owner scratch space (the bridge parks its asyncio queue here)."""

    @property
    def request_id(self) -> str:
        return self.handle.request_id


class ServeGateway:
    """Admission + lifecycle bookkeeping over a :class:`Frontend`."""

    def __init__(
        self,
        frontend: Frontend,
        controller: "AdmissionController | None" = None,
        metrics: "ServeMetrics | None" = None,
        tracer: "Tracer | None" = None,
    ):
        self.frontend = frontend
        self.controller = controller or AdmissionController()
        self.metrics = metrics
        self.tracer = tracer
        self._streams: "dict[str, OpenStream]" = {}
        self._conn_ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def simulator(self):
        return self.frontend.simulator

    def stream(self, request_id: str) -> OpenStream:
        return self._streams[request_id]

    def open_streams(self) -> "list[OpenStream]":
        return list(self._streams.values())

    # ------------------------------------------------------------------
    def open(
        self,
        tenant: str,
        lora_id: str,
        prompt_len: int,
        response_len: int,
        now: float,
        request_id: "str | None" = None,
        prompt_tokens: "list[int] | None" = None,
        on_token: "TokenCallback | None" = None,
    ) -> "tuple[OpenStream | None, Decision]":
        """One client stream request: admit into the cluster, or shed.

        On ADMIT the request is submitted to the simulator frontend at
        ``now`` (virtual clock) and an :class:`OpenStream` tracks it until
        :meth:`finalize`. On any other decision the connection is traced
        CONNECT -> SHED -> DISCONNECT and nothing reaches the scheduler.
        A ``request_id`` the frontend already holds is refused with
        :attr:`Decision.DUPLICATE` before admission, leaving the live
        stream, the controller and the trace untouched. The frontend keeps
        every handle, so ids are single-use: a finished id is refused too.
        """
        rid = request_id or f"sv-{next(self._conn_ids):05d}"
        if rid in self.frontend:
            return None, Decision.DUPLICATE
        user_on_token = on_token
        if self.tracer is not None:
            self.tracer.emit(now, EventKind.CONNECT, conn=rid, tenant=tenant)
        if self.metrics is not None:
            self.metrics.record_connect(tenant)
        decision = self.controller.admit(tenant, now)
        if not decision.admitted:
            if self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.SHED,
                    conn=rid, tenant=tenant, reason=decision.value,
                )
                self.tracer.emit(
                    now, EventKind.DISCONNECT,
                    conn=rid, tenant=tenant, cause="shed",
                )
            if self.metrics is not None:
                self.metrics.record_shed(tenant, decision.value)
                self.metrics.record_disconnect()
            return None, decision
        box: "list[OpenStream]" = []

        def hooked(req_id: str, token: int, t: float) -> None:
            # Tokens fire only inside the simulator's step events — after
            # this method has returned and filled the box. Accounting here
            # (not in the bridge) keeps the token/TTFB metrics identical
            # whichever transport drives the gateway.
            self.account_tokens(box[0], t)
            if user_on_token is not None:
                user_on_token(req_id, token, t)

        handle = self.frontend.submit(
            lora_id=lora_id,
            prompt_len=prompt_len,
            response_len=response_len,
            at_time=now,
            prompt_tokens=prompt_tokens,
            request_id=rid,
            on_token=hooked,
        )
        stream = OpenStream(handle=handle, tenant=tenant, opened_at=now)
        box.append(stream)
        self._streams[rid] = stream
        if self.metrics is not None:
            self.metrics.record_admitted(tenant)
        return stream, decision

    def client_close(self, request_id: str, now: float) -> None:
        """Client disconnected (or sent an explicit cancel) mid-stream.

        Propagates all the way down: frontend cancel -> simulator cancel
        -> engine eviction + queue drain, with a CANCEL trace event
        carrying ``reason="disconnect"`` at the engine boundary.
        """
        stream = self._streams.get(request_id)
        if stream is None or stream.finalized:
            return
        if not stream.handle.is_done():
            stream.cancelled = True
            self.frontend.cancel(request_id, reason="disconnect")
        self._finalize(stream, now, cause="client")

    def poll(self, now: float) -> "list[OpenStream]":
        """Finalize every open stream whose request reached a terminal
        state; returns them (the bridge pushes their end-of-stream
        sentinels). Deterministic: insertion order."""
        done = [
            s for s in self._streams.values()
            if not s.finalized and s.handle.is_done()
        ]
        for stream in done:
            self._finalize(stream, now, cause="served")
        return done

    def account_tokens(self, stream: OpenStream, now: float, n: int = 1) -> None:
        """Metrics for ``n`` newly streamed tokens (TTFB on the first)."""
        if self.metrics is not None:
            if not stream.ttfb_observed:
                self.metrics.record_first_token(max(0.0, now - stream.opened_at))
            self.metrics.record_tokens(n)
        stream.ttfb_observed = True
        stream.tokens_streamed += n

    # ------------------------------------------------------------------
    def _finalize(self, stream: OpenStream, now: float, cause: str) -> None:
        stream.finalized = True
        del self._streams[stream.request_id]
        self.controller.release(stream.tenant)
        if self.tracer is not None:
            self.tracer.emit(
                now, EventKind.DISCONNECT,
                conn=stream.request_id, tenant=stream.tenant, cause=cause,
            )
        if self.metrics is not None:
            self.metrics.record_end(stream.tenant, cancelled=stream.cancelled)
            self.metrics.record_disconnect()

    def drain(self, now: float) -> "list[OpenStream]":
        """Close every still-open stream (server shutdown): cancel
        in-flight requests and finalize. Returns the closed streams."""
        closed = []
        for stream in list(self._streams.values()):
            if not stream.handle.is_done():
                stream.cancelled = True
                self.frontend.cancel(stream.request_id, reason="disconnect")
            self._finalize(stream, now, cause="client")
            closed.append(stream)
        return closed
