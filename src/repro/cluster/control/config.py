"""Deadline policies, control-plane knobs, and the SLO verdict.

The knobs cover both control threads a simulator can take: the SLO
router (:class:`ControlConfig`) and forecast-driven pool sizing
(:class:`PredictiveConfig` with its :class:`EwmaForecast`, run by
:class:`~repro.cluster.elastic.ElasticClusterSimulator`).

Deadline semantics (docs/slo.md): a request attains its SLO when

* **TTFT** — its first token lands within ``ttft_deadline`` seconds of
  its arrival (queue wait, adapter load, prefill and any KV handoff all
  count), and
* **ITL** — its mean inter-token latency over the decode phase stays at
  or under ``itl_deadline`` seconds per token.

Policies attach per tenant (= LoRA adapter id, the multi-tenancy unit of
the paper); ``default_policy`` covers everyone else. Requests themselves
stay policy-free — :class:`~repro.runtime.request.RequestSpec` is part of
the frozen trace contract, and the deadline is the *tenant's* contract
with the operator, not a per-message field.

A simulator built with a ``control`` config scores every request with
:func:`score_requests` at run end. Run-end scoring is deliberate: a
per-step hook would cost a call on every engine step, and the verdict
only needs terminal timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

from repro.runtime.request import Request, RequestState


@dataclass(frozen=True)
class SloPolicy:
    """One tenant's latency contract."""

    ttft_deadline: float = 1.0
    """Seconds from arrival to the first generated token."""
    itl_deadline: float = 0.050
    """Seconds per token over the decode phase (mean)."""

    def __post_init__(self) -> None:
        if self.ttft_deadline <= 0:
            raise ValueError(
                f"ttft_deadline must be positive, got {self.ttft_deadline}"
            )
        if self.itl_deadline <= 0:
            raise ValueError(
                f"itl_deadline must be positive, got {self.itl_deadline}"
            )


@dataclass(frozen=True)
class ControlConfig:
    """Control-plane configuration shared by router and autoscaler."""

    default_policy: SloPolicy = field(default_factory=SloPolicy)
    per_tenant: "Mapping[str, SloPolicy]" = field(default_factory=dict)
    """Overrides keyed by LoRA adapter id."""
    shed_infeasible: bool = True
    """Refuse (FAILED terminal state) requests whose remaining deadline
    budget is below the fleet's optimistic floor. With False the router
    keeps them queued best-effort — useful for ablating shed policy."""

    def policy_for(self, lora_id: str) -> SloPolicy:
        return self.per_tenant.get(lora_id, self.default_policy)


class EwmaForecast:
    """Exponentially weighted moving average of a sampled rate."""

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value = 0.0
        self._primed = False

    def update(self, sample: float) -> float:
        if not self._primed:
            self.value = float(sample)
            self._primed = True
        else:
            self.value = self.alpha * float(sample) + (1 - self.alpha) * self.value
        return self.value


@dataclass(frozen=True)
class PredictiveConfig:
    """Knobs of the forecast-driven pool sizing."""

    ewma_alpha: float = 0.3
    """Forecast smoothing: higher chases bursts, lower rides them out."""
    service_rate_per_gpu: float = 4.0
    """Requests/s one engine is budgeted to absorb (capacity planning
    constant; calibrate per workload from a steady-state run)."""
    headroom_fraction: float = 0.2
    """Spare capacity provisioned above the forecast."""

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if self.service_rate_per_gpu <= 0:
            raise ValueError("service_rate_per_gpu must be positive")
        if self.headroom_fraction < 0:
            raise ValueError("headroom_fraction must be nonnegative")


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
