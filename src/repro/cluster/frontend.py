"""Frontend: the client-facing API of Figure 2's architecture.

The paper's frontends expose a RESTful API, forward requests to the
scheduler, and stream generated tokens back (runner -> scheduler ->
frontend -> user). In this reproduction the frontend is an in-process
facade over the cluster simulator: clients submit prompts (optionally at a
future simulated time), register per-request token callbacks, and may
cancel in flight. Token streaming rides the engine step reports.

Fault tolerance (docs/faults.md): a submission may carry a per-request
``deadline``; if the request has not finished by then, the frontend
cancels it wherever it is and retries with exponential backoff, up to
``max_retries`` times, after which the request surfaces as FAILED on its
:class:`RequestHandle`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.cluster.events import EventHandle
from repro.cluster.simulator import ClusterSimulator
from repro.runtime.request import Request, RequestState
from repro.workloads.trace import RequestSpec

TokenCallback = Callable[[str, int, float], None]
"""(request_id, token, time) — invoked for every streamed token."""


@dataclass
class RequestHandle:
    """The client's view of one submitted request."""

    request: Request
    streamed: list[tuple[int, float]] = field(default_factory=list)
    deadline: "float | None" = None
    """Seconds from (each) arrival the request may take before the
    frontend cancels and retries it."""
    max_retries: int = 0
    retry_backoff: float = 1.0
    """Base backoff: the k-th retry waits retry_backoff * 2**k seconds."""
    on_token: "TokenCallback | None" = None
    """Per-request streaming callback — the serving frontend's token fan-out
    (one asyncio queue per open stream) without paying a global-callback
    dispatch per token per connection."""
    _deadline_event: "EventHandle | None" = field(default=None, repr=False)

    @property
    def request_id(self) -> str:
        return self.request.request_id

    @property
    def state(self) -> RequestState:
        return self.request.state

    @property
    def tokens(self) -> list[int]:
        return [t for t, _ in self.streamed]

    @property
    def failed(self) -> bool:
        return self.request.state is RequestState.FAILED

    @property
    def failure_reason(self) -> "str | None":
        return self.request.failure_reason

    @property
    def retries_used(self) -> int:
        return self.request.num_retries

    def is_done(self) -> bool:
        return self.request.state.is_terminal


class Frontend:
    """Client API over a :class:`ClusterSimulator`."""

    def __init__(self, simulator: ClusterSimulator):
        self.simulator = simulator
        self._handles: dict[str, RequestHandle] = {}
        self._active: dict[str, RequestHandle] = {}
        """Handles that may still stream tokens. Terminal handles are
        pruned from here (never from ``_handles``) so the per-step
        streaming sweep scales with open streams, not with every request
        ever submitted — the serving frontend holds hundreds of
        connections over long runs."""
        self._callbacks: list[TokenCallback] = []
        self._ids = itertools.count()
        self._install_streaming_hook()

    # ------------------------------------------------------------------
    def on_token(self, callback: TokenCallback) -> None:
        """Register a streaming callback (fired once per generated token)."""
        self._callbacks.append(callback)

    def submit(
        self,
        lora_id: str,
        prompt_len: int,
        response_len: int,
        at_time: float = 0.0,
        prompt_tokens: "list[int] | None" = None,
        request_id: str | None = None,
        deadline: "float | None" = None,
        max_retries: int = 0,
        retry_backoff: float = 1.0,
        on_token: "TokenCallback | None" = None,
    ) -> RequestHandle:
        """Submit a request arriving at ``at_time`` (simulated clock).

        With a ``deadline`` (seconds from arrival), the frontend enforces
        it: a request still unfinished when the deadline fires is cancelled
        and — while retries remain — resubmitted after an exponential
        backoff, keeping any generated prefix (the §5.3 re-prefill pays
        for it). Out of retries, the handle surfaces FAILED.
        """
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be positive, got {deadline}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff <= 0:
            raise ValueError(f"retry_backoff must be positive, got {retry_backoff}")
        rid = request_id or f"fe-{next(self._ids):05d}"
        if rid in self._handles:
            raise ValueError(f"request id {rid!r} already submitted")
        spec = RequestSpec(
            request_id=rid,
            lora_id=lora_id,
            arrival_time=at_time,
            prompt_len=prompt_len,
            response_len=response_len,
        )
        request = Request(spec=spec, prompt_tokens=prompt_tokens)
        handle = RequestHandle(
            request=request,
            deadline=deadline,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            on_token=on_token,
        )
        self._handles[rid] = handle
        self._active[rid] = handle
        self.simulator._requests[rid] = request
        self.simulator.schedule_arrival(request)
        if deadline is not None:
            self._arm_deadline(handle, at_time)
        return handle

    def cancel(self, request_id: str, reason: str = "user") -> None:
        """User disconnection: drop the request wherever it currently is.

        ``reason`` lands on the CANCEL trace event — the serving frontend
        passes ``"disconnect"`` so a dropped connection is attributable in
        the trace all the way down at the engine.
        """
        handle = self._handles.get(request_id)
        if handle is None:
            raise KeyError(f"unknown request {request_id!r}")
        if handle.is_done():
            return
        if handle._deadline_event is not None:
            handle._deadline_event.cancel()
        self.simulator.cancel(handle.request, reason=reason)

    # ------------------------------------------------------------------
    # Deadlines and bounded retry (docs/faults.md)
    # ------------------------------------------------------------------
    def _arm_deadline(self, handle: RequestHandle, arrival: float) -> None:
        handle._deadline_event = self.simulator.loop.schedule(
            arrival + handle.deadline, self._make_deadline(handle)
        )

    def _make_deadline(self, handle: RequestHandle):
        def fire(now: float) -> None:
            request = handle.request
            if request.state.is_terminal:
                return
            self.simulator.cancel(request, now, reason="deadline")
            if request.num_retries >= handle.max_retries:
                request.mark_failed(
                    f"deadline exceeded after {request.num_retries} retries"
                )
                return
            backoff = handle.retry_backoff * (2.0 ** request.num_retries)
            request.reset_for_retry()
            self.simulator.schedule_arrival(request, at=now + backoff)
            self._arm_deadline(handle, now + backoff)

        return fire

    def run(self, until: float | None = None) -> float:
        """Advance the simulated cluster until quiescent (or ``until``)."""
        return self.simulator.loop.run(until=until)

    def __contains__(self, request_id: str) -> bool:
        """Whether ``request_id`` was ever submitted (ids are single-use)."""
        return request_id in self._handles

    def handle(self, request_id: str) -> RequestHandle:
        return self._handles[request_id]

    # ------------------------------------------------------------------
    def _install_streaming_hook(self) -> None:
        """Wrap the simulator's step factory to observe every report."""
        original = self.simulator._make_step

        def make_step_with_streaming(gpu_id: str):
            inner = original(gpu_id)

            def step(now: float) -> None:
                # Snapshot per-request token counts to detect new tokens.
                inner(now)
                # The report isn't returned; read streamed tokens off the
                # request objects instead (cheap and exact).
                done: "list[str] | None" = None
                for handle in self._active.values():
                    req = handle.request
                    already = len(handle.streamed)
                    new = req.generated_tokens[already:]
                    for tok in new:
                        stamp = req.first_token_time if already == 0 else now
                        handle.streamed.append((tok, stamp if stamp is not None else now))
                        for cb in self._callbacks:
                            cb(req.request_id, tok, now)
                        if handle.on_token is not None:
                            handle.on_token(req.request_id, tok, now)
                        already += 1
                    # Prune only after streaming: a request's last token
                    # lands in the same step that finishes it. Retrying
                    # requests return to QUEUED, not a terminal state, so
                    # they stay active through their whole retry budget.
                    if handle.is_done():
                        if done is None:
                            done = []
                        done.append(req.request_id)
                if done:
                    for rid in done:
                        del self._active[rid]

            return step

        self.simulator._make_step = make_step_with_streaming  # type: ignore[assignment]
