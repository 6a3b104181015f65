"""SLO-aware simulator shells: the control plane over existing engines.

Nothing here forks the discrete-event machinery — each class swaps the
FCFS :class:`~repro.cluster.scheduler.PunicaScheduler` for an
:class:`~repro.cluster.control.router.SloRouter` (every simulator closure
looks the scheduler up dynamically, so the swap is safe at construction
time) and scores SLO outcomes at run end. Run-end scoring is deliberate:
a per-step hook would cost a call on every engine step, and the
attainment verdict only needs terminal timestamps anyway.
"""

from __future__ import annotations

import heapq

from repro.cluster.control.config import ControlConfig
from repro.cluster.control.costmodel import FleetCostModel
from repro.cluster.control.router import SloRouter
from repro.cluster.disagg.simulator import DisaggSimulator
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.runtime.request import Request, RequestState
from repro.workloads.trace import Trace


def install_slo_router(
    sim: ClusterSimulator,
    control: "ControlConfig | None" = None,
    cost: "FleetCostModel | None" = None,
) -> SloRouter:
    """Replace ``sim``'s scheduler with an SLO router over the same pool.

    Call at construction time (before any request is queued); returns the
    installed router. The router's shed path is wired to the simulator's
    standard ``_shed`` (FAILED terminal state + SHED event + metrics).
    """
    old = sim.scheduler
    if old.queue_depth:
        raise RuntimeError("install the SLO router before submitting work")
    router = SloRouter(
        list(old.engines.values()),
        config=old.config,
        prefetcher=old.prefetcher,
        tracer=old.tracer,
        control=control,
        cost=cost,
        metrics=sim.metrics,
    )
    router.on_shed = lambda req, now: sim._shed(
        req, now, "shed: deadline infeasible"
    )
    sim.scheduler = router
    return router


# ---------------------------------------------------------------------------
# Outcome scoring (docs/slo.md deadline semantics)
# ---------------------------------------------------------------------------
def score_requests(
    requests: "list[Request]", control: ControlConfig, duration: float
) -> "list[tuple[float, bool]]":
    """Per-request SLO verdicts as (terminal time, attained) pairs.

    FINISHED requests attain when their TTFT met the tenant deadline and
    their mean decode ITL met the per-token deadline; FAILED (shed) and
    still-live requests are misses, stamped at run end. CANCELLED
    requests are excluded — a user disconnect is not an operator miss.
    Output is time-sorted so it can feed a monotone series directly.
    """
    scored: "list[tuple[float, bool]]" = []
    for r in requests:
        if r.state is RequestState.CANCELLED:
            continue
        policy = control.policy_for(r.lora_id)
        if r.state is RequestState.FINISHED:
            t = r.finish_time if r.finish_time is not None else duration
            ttft_ok = (
                r.first_token_time is not None
                and r.first_token_time - r.spec.arrival_time
                <= policy.ttft_deadline
            )
            if (
                r.num_generated > 1
                and r.first_token_time is not None
                and r.finish_time is not None
            ):
                itl = (r.finish_time - r.first_token_time) / (
                    r.num_generated - 1
                )
            else:
                itl = 0.0
            scored.append((t, ttft_ok and itl <= policy.itl_deadline))
        else:
            scored.append((duration, False))
    scored.sort(key=lambda e: e[0])
    return scored


def slo_attainment(
    requests: "list[Request]", control: ControlConfig, duration: float
) -> float:
    """Fraction of scored requests meeting both deadlines — usable on any
    run's request list, which is how the ablation scores FCFS baselines
    against the same policies."""
    scored = score_requests(requests, control, duration)
    if not scored:
        return 0.0
    return sum(1 for _, ok in scored if ok) / len(scored)


def _record_outcomes(result: SimulationResult, control: ControlConfig) -> None:
    for t, attained in score_requests(
        result.requests, control, result.duration
    ):
        result.metrics.record_slo_outcome(t, attained)


# ---------------------------------------------------------------------------
class SloClusterSimulator(ClusterSimulator):
    """Colocated cluster simulator under SLO-aware control."""

    def __init__(self, engines: "list", control: "ControlConfig | None" = None,
                 scheduler_config=None, **kwargs):
        super().__init__(engines, scheduler_config=scheduler_config, **kwargs)
        self.control = control or ControlConfig()
        install_slo_router(self, self.control)

    def run(self, trace: Trace, until: "float | None" = None) -> SimulationResult:
        result = super().run(trace, until=until)
        _record_outcomes(result, self.control)
        return result


class SloDisaggSimulator(DisaggSimulator):
    """Disaggregated simulator under SLO-aware control.

    Subsumes the FCFS decode queue: waiting KV handoffs admit
    earliest-deadline-first with no head blocking, and a waiter whose
    TTFT deadline has already passed is shed instead of occupying decode
    capacity it can no longer use.
    """

    def __init__(self, prefill_engines: "list", decode_engines: "list",
                 control: "ControlConfig | None" = None, **kwargs):
        super().__init__(prefill_engines, decode_engines, **kwargs)
        self.control = control or ControlConfig()
        install_slo_router(self, self.control)

    def run(self, trace: Trace, until: "float | None" = None) -> SimulationResult:
        result = super().run(trace, until=until)
        _record_outcomes(result, self.control)
        return result

    def _drain_decode_queue(self, now: float) -> "list[str]":
        if not self._decode_queue:
            return []
        if not self._decode_pool_alive():
            # Total decode-pool loss keeps the base fallback: drop the KV
            # copies and re-enter through the §5.3 re-prefill path.
            return super()._drain_decode_queue(now)
        router = self.scheduler
        handled: "list[str]" = []
        keep: "list[tuple[float, int, Request, int]]" = []
        entries = sorted(
            self._decode_queue,
            key=lambda e: (router._deadline(e[2]), e[0], e[1]),
        )
        for entry in entries:
            _, _, req, kv_tokens = entry
            if req.state.is_terminal:
                continue
            # Shed only waiters still owed their first token: a request
            # whose TTFT already landed (handoff after a mid-decode
            # migration) keeps its place however late the clock runs.
            if (
                router.control.shed_infeasible
                and req.first_token_time is None
                and now > router._deadline(req)
            ):
                router._shed_slo(req, now)
                handled.append(req.request_id)
                continue
            gpu = router.route_decode(req, kv_tokens)
            if gpu is None:
                keep.append(entry)
                continue
            router.engines[gpu].import_request(req, kv_tokens, now)
            handled.append(req.request_id)
            self._kick(gpu, now)
        self._decode_queue = keep
        heapq.heapify(self._decode_queue)
        return handled
