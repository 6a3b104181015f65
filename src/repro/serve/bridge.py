"""Backend bridges: one asyncio-facing interface over either engine.

The serving frontend runs against two very different backends through one
small surface (``start`` / ``stop`` / ``open`` / ``cancel`` + a per-stream
:class:`asyncio.Queue` of :class:`StreamUpdate`):

* :class:`SimulatorBridge` — **time-warped cluster simulation**. The
  discrete-event loop advances in fixed virtual quanta from a pump
  coroutine; ``warp`` maps virtual seconds to wall seconds (``warp=60``
  replays a one-hour trace in a minute, ``warp=None`` runs as fast as the
  event loop allows). Client submissions and cancels land on the
  simulator at its current virtual time, so admission control, traces and
  metrics are all stamped with the backend clock.
* :class:`FunctionalBridge` — **real tokens** from a
  :class:`~repro.runtime.engine.GpuEngine` over the NumPy model. The pump
  steps the engine FCFS (same admission discipline as
  :func:`repro.runtime.serve.serve_requests`) and streams each generated
  token id the step it appears.

Both bridges are single-threaded asyncio: token callbacks fire inside the
pump coroutine, so ``Queue.put_nowait`` needs no locking, and a slow
reader only ever blocks its own connection's writer task — the engine
never waits on a client socket (updates buffer in the per-stream queue).
"""

from __future__ import annotations

import asyncio
import itertools
from collections import deque
from dataclasses import dataclass

from repro.runtime.request import Request, RequestState
from repro.serve.gateway import ServeGateway
from repro.serve.limits import AdmissionController, Decision
from repro.serve.metrics import ServeMetrics
from repro.serve.protocol import GenerateOp
from repro.utils.rng import new_rng
from repro.workloads.trace import RequestSpec


@dataclass(frozen=True)
class StreamUpdate:
    """One item on a stream's queue: a token, or the end of the stream."""

    kind: str
    """``"token"`` or ``"end"``."""
    time: float
    """Backend clock (virtual seconds under the simulator)."""
    token: "int | None" = None
    index: "int | None" = None
    status: "str | None" = None
    """Terminal state for ``kind="end"``: finished | cancelled | failed."""
    num_tokens: int = 0


def _terminal_status(state: RequestState) -> str:
    if state is RequestState.FINISHED:
        return "finished"
    if state is RequestState.CANCELLED:
        return "cancelled"
    return "failed"


class SimulatorBridge:
    """Pump the cluster simulator's virtual clock under asyncio.

    ``quantum`` is the virtual-time slice advanced per pump iteration;
    ``warp`` is virtual seconds per wall second (``None`` = unthrottled).
    With a ``warp`` the pump keeps ticking even when idle so token buckets
    refill in virtual time; unthrottled, it parks on a wake event until
    the next submission (the virtual clock freezes while truly idle).
    """

    def __init__(
        self,
        gateway: ServeGateway,
        warp: "float | None" = None,
        quantum: float = 0.05,
    ):
        if warp is not None and warp <= 0:
            raise ValueError(f"warp must be positive, got {warp}")
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        self.gateway = gateway
        self.warp = warp
        self.quantum = float(quantum)
        self._queues: "dict[str, asyncio.Queue]" = {}
        self._wake: "asyncio.Event | None" = None
        self._task: "asyncio.Task | None" = None
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def simulator(self):
        return self.gateway.simulator

    @property
    def now(self) -> float:
        """The backend (virtual) clock."""
        return self.simulator.now

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("bridge already started")
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        """Stop the pump and cancel every still-open stream."""
        if self._task is None:
            return
        task, self._task = self._task, None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        now = self.now
        for stream in self.gateway.drain(now):
            self._push_end(stream, now)

    # ------------------------------------------------------------------
    def open(self, op: GenerateOp) -> "tuple[str, asyncio.Queue | None, Decision]":
        """Admit one :class:`GenerateOp` at the current virtual time.

        Returns ``(request_id, queue, decision)``; ``queue`` is ``None``
        when the request was shed (the decision says why).
        """
        rid = op.request_id or f"sv-{next(self._ids):05d}"
        now = self.now
        queue: asyncio.Queue = asyncio.Queue()
        count = itertools.count()

        def on_token(_rid: str, tok: int, t: float) -> None:
            # Metrics accounting already happened inside the gateway's own
            # wrapped callback; this layer only feeds the stream queue.
            queue.put_nowait(
                StreamUpdate(kind="token", time=t, token=tok, index=next(count))
            )

        stream, decision = self.gateway.open(
            tenant=op.effective_tenant,
            lora_id=op.lora_id,
            prompt_len=op.prompt_len,
            response_len=op.response_len,
            now=now,
            request_id=rid,
            prompt_tokens=(
                list(op.prompt_tokens) if op.prompt_tokens is not None else None
            ),
            on_token=on_token,
        )
        if stream is None:
            return rid, None, decision
        self._queues[rid] = queue
        if self._wake is not None:
            self._wake.set()
        return rid, queue, decision

    def cancel(self, request_id: str) -> bool:
        """Client cancel/disconnect; False when the id is unknown."""
        stream = self.gateway._streams.get(request_id)
        if stream is None:
            self._queues.pop(request_id, None)
            return False
        now = self.now
        self.gateway.client_close(request_id, now)
        self._push_end(stream, now)
        if self._wake is not None:
            self._wake.set()
        return True

    # ------------------------------------------------------------------
    def _push_end(self, stream, now: float) -> None:
        queue = self._queues.pop(stream.request_id, None)
        if queue is None:
            return
        status = _terminal_status(stream.handle.state)
        if stream.cancelled:
            status = "cancelled"
        queue.put_nowait(
            StreamUpdate(
                kind="end", time=now, status=status,
                num_tokens=stream.tokens_streamed,
            )
        )

    async def _pump(self) -> None:
        sim = self.simulator
        gateway = self.gateway
        while True:
            if self.warp is None and not sim.work_remaining():
                done = gateway.poll(sim.now)
                for stream in done:
                    self._push_end(stream, sim.now)
                if not gateway.open_streams():
                    self._wake.clear()
                    if not sim.work_remaining() and not gateway.open_streams():
                        await self._wake.wait()
                    continue
            sim.loop.run(until=sim.now + self.quantum)
            now = sim.now
            for stream in gateway.poll(now):
                self._push_end(stream, now)
            if self.warp is None:
                await asyncio.sleep(0)
            else:
                await asyncio.sleep(self.quantum / self.warp)


class _FuncStream:
    """FunctionalBridge-side state of one admitted stream."""

    __slots__ = (
        "request", "tenant", "queue", "opened_at",
        "streamed", "cancelled", "ttfb_observed",
    )

    def __init__(self, request: Request, tenant: str, queue, opened_at: float):
        self.request = request
        self.tenant = tenant
        self.queue = queue
        self.opened_at = opened_at
        self.streamed = 0
        self.cancelled = False
        self.ttfb_observed = False

    @property
    def request_id(self) -> str:
        return self.request.request_id


class FunctionalBridge:
    """Serve real token ids from one :class:`~repro.runtime.engine.GpuEngine`.

    The pump admits waiting requests FCFS (head blocks, matching
    :func:`repro.runtime.serve.serve_requests`) and advances the backend
    clock by each step's reported latency, so admission control runs on
    the same clock the engine's cost model produces. Prompts without
    explicit ``prompt_tokens`` get deterministic random ids from ``seed``.
    """

    def __init__(
        self,
        engine,
        controller: "AdmissionController | None" = None,
        metrics: "ServeMetrics | None" = None,
        vocab_size: int = 1000,
        seed: int = 0,
    ):
        self.engine = engine
        self.controller = controller or AdmissionController()
        self.metrics = metrics
        self.vocab_size = int(vocab_size)
        self._rng = new_rng(seed)
        self._clock = 0.0
        self._waiting: "deque[_FuncStream]" = deque()
        self._streams: "dict[str, _FuncStream]" = {}
        self._wake: "asyncio.Event | None" = None
        self._task: "asyncio.Task | None" = None
        self._ids = itertools.count()

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._clock

    async def start(self) -> None:
        if self._task is not None:
            raise RuntimeError("bridge already started")
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._pump())

    async def stop(self) -> None:
        if self._task is None:
            return
        task, self._task = self._task, None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        for stream in list(self._streams.values()):
            stream.cancelled = True
            self._end_stream(stream)

    # ------------------------------------------------------------------
    def open(self, op: GenerateOp) -> "tuple[str, asyncio.Queue | None, Decision]":
        rid = op.request_id or f"fn-{next(self._ids):05d}"
        if rid in self._streams:
            # Only live ids are taken here; a finished id may be reused.
            return rid, None, Decision.DUPLICATE
        now = self._clock
        if self.metrics is not None:
            self.metrics.record_connect(op.effective_tenant)
        decision = self.controller.admit(op.effective_tenant, now)
        if not decision.admitted:
            if self.metrics is not None:
                self.metrics.record_shed(op.effective_tenant, decision.value)
                self.metrics.record_disconnect()
            return rid, None, decision
        if op.prompt_tokens is not None:
            prompt = [int(t) for t in op.prompt_tokens]
        else:
            prompt = [
                int(t)
                for t in self._rng.integers(
                    0, self.vocab_size, size=op.prompt_len
                )
            ]
        spec = RequestSpec(
            request_id=rid,
            lora_id=op.lora_id,
            arrival_time=now,
            prompt_len=op.prompt_len,
            response_len=op.response_len,
        )
        stream = _FuncStream(
            request=Request(spec=spec, prompt_tokens=prompt),
            tenant=op.effective_tenant,
            queue=asyncio.Queue(),
            opened_at=now,
        )
        self._streams[rid] = stream
        self._waiting.append(stream)
        if self.metrics is not None:
            self.metrics.record_admitted(op.effective_tenant)
        if self._wake is not None:
            self._wake.set()
        return rid, stream.queue, decision

    def cancel(self, request_id: str) -> bool:
        stream = self._streams.get(request_id)
        if stream is None:
            return False
        stream.cancelled = True
        req = stream.request
        if self.engine.has_request(request_id):
            self.engine.cancel(request_id)
        elif not req.state.is_terminal:
            req.mark_cancelled()
        self._end_stream(stream)
        if self._wake is not None:
            self._wake.set()
        return True

    # ------------------------------------------------------------------
    def _end_stream(self, stream: _FuncStream) -> None:
        self._streams.pop(stream.request_id, None)
        self.controller.release(stream.tenant)
        status = _terminal_status(stream.request.state)
        if stream.cancelled:
            status = "cancelled"
        stream.queue.put_nowait(
            StreamUpdate(
                kind="end", time=self._clock, status=status,
                num_tokens=stream.streamed,
            )
        )
        if self.metrics is not None:
            self.metrics.record_end(stream.tenant, cancelled=stream.cancelled)
            self.metrics.record_disconnect()

    def _admit_waiting(self) -> None:
        """Place waiting requests FCFS; the head blocks (§5.1)."""
        while self._waiting:
            head = self._waiting[0]
            if head.request.state.is_terminal:
                self._waiting.popleft()
                continue
            if not self.engine.can_accept(head.request):
                break
            self._waiting.popleft()
            self.engine.add_request(head.request, self._clock)

    def _stream_new_tokens(self) -> None:
        ended = []
        for stream in self._streams.values():
            req = stream.request
            new = req.generated_tokens[stream.streamed:]
            for tok in new:
                index = stream.streamed
                if self.metrics is not None:
                    if not stream.ttfb_observed:
                        self.metrics.record_first_token(
                            max(0.0, self._clock - stream.opened_at)
                        )
                    self.metrics.record_tokens(1)
                stream.ttfb_observed = True
                stream.streamed += 1
                stream.queue.put_nowait(
                    StreamUpdate(
                        kind="token", time=self._clock, token=tok, index=index
                    )
                )
            if req.state.is_terminal:
                ended.append(stream)
        for stream in ended:
            self._end_stream(stream)

    async def _pump(self) -> None:
        engine = self.engine
        while True:
            self._admit_waiting()
            report = engine.step(self._clock)
            if report is None:
                if engine.is_idle and self._waiting:
                    head = self._waiting[0].request
                    if not head.state.is_terminal and not engine.can_accept(head):
                        # Never admissible (e.g. prompt longer than the
                        # KvCache): fail it rather than wedge the queue.
                        stream = self._waiting.popleft()
                        stream.request.mark_failed(
                            "request cannot fit on the engine"
                        )
                        self._end_stream(stream)
                        continue
                if engine.is_idle and not self._waiting:
                    self._wake.clear()
                    if engine.is_idle and not self._waiting:
                        await self._wake.wait()
                    continue
                # Waiting on an in-flight adapter load.
                self._clock += 1e-3
                await asyncio.sleep(0)
                continue
            self._clock = report.end
            for rid in report.evicted:
                stream = self._streams.get(rid)
                if stream is not None:
                    self._waiting.appendleft(stream)
            self._stream_new_tokens()
            await asyncio.sleep(0)
