"""Predictive autoscaling (thread (c) of the control plane).

Extends :class:`~repro.cluster.elastic.ElasticClusterSimulator`: instead
of reacting to the instantaneous §5.1 scaling hint, the pool tracks an
EWMA forecast of the arrival rate and sizes itself to
``forecast * (1 + headroom) / service_rate_per_gpu``, growing by several
GPUs in one tick when a burst lands and shrinking only when the forecast
says the remaining pool still covers demand **and** the candidate engine
has amortized its warm-up (a GPU released before it served for at least
one provisioning delay paid its warm-up for nothing). Scale decisions
emit SCALE_UP / SCALE_DOWN trace events carrying the forecast that drove
them.
"""

from __future__ import annotations

import math

from repro.cluster.control.config import ControlConfig
from repro.cluster.control.simulator import _record_outcomes, install_slo_router
from repro.cluster.elastic import ElasticClusterSimulator, ElasticConfig, ElasticResult
from repro.obs.tracer import EventKind
from repro.workloads.trace import Trace

from dataclasses import dataclass


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


class PredictiveElasticSimulator(ElasticClusterSimulator):
    """Elastic pool sized by arrival forecasts instead of load hints.

    With ``control`` given, the SLO router is installed over the pool and
    run results are scored for attainment — the full three-thread control
    plane in one simulator.
    """

    def __init__(
        self,
        engine_factory,
        elastic_config: "ElasticConfig | None" = None,
        scheduler_config=None,
        predictive: "PredictiveConfig | None" = None,
        control: "ControlConfig | None" = None,
        **kwargs,
    ):
        super().__init__(
            engine_factory, elastic_config, scheduler_config, **kwargs
        )
        self.predictive = predictive or PredictiveConfig()
        self.control = control
        if control is not None:
            install_slo_router(self, control)
        self._forecast = EwmaForecast(self.predictive.ewma_alpha)
        self._arrivals_seen = 0

    def run_elastic(self, trace: Trace, until: "float | None" = None) -> ElasticResult:
        result = super().run_elastic(trace, until=until)
        if self.control is not None:
            _record_outcomes(result.base, self.control)
        return result

    # ------------------------------------------------------------------
    def _autoscale_tick(self, now: float) -> None:
        cfg = self.predictive
        total = len(self.metrics.arrivals)
        sample = (total - self._arrivals_seen) / self.elastic.check_interval
        self._arrivals_seen = total
        forecast = self._forecast.update(sample)
        demand = forecast * (1.0 + cfg.headroom_fraction)
        desired = max(
            self.elastic.min_gpus,
            min(
                self.elastic.max_gpus,
                math.ceil(demand / cfg.service_rate_per_gpu),
            ),
        )
        # A standing queue means the forecast under-calls actual service
        # cost; never size below what the reactive hint would demand.
        if (
            self.scheduler.queue_depth > 0
            and desired <= self._pool_size() < self.elastic.max_gpus
        ):
            desired = self._pool_size() + 1
        pool = self._pool_size()
        if desired > pool:
            add = desired - pool
            if self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.SCALE_UP,
                    forecast=round(forecast, 9), pool=pool, add=add,
                )
            for _ in range(add):
                self._provisioning += 1
                self._scale_ups += 1
                self.loop.schedule(
                    now + self.elastic.provision_delay, self._activate_gpu
                )
        elif desired < len(self.scheduler.engines):
            self._release_surplus(now, desired, forecast)
        self._update_idle_marks(now)
        # Keep ticking until the pool has drained back to its floor —
        # the shrink tail would otherwise freeze at whatever size the
        # last in-flight request left it.
        if (
            self.work_remaining()
            or self._provisioning > 0
            or len(self.scheduler.engines) > self.elastic.min_gpus
        ):
            self.loop.schedule(
                now + self.elastic.check_interval, self._autoscale_tick
            )

    def _release_surplus(self, now: float, desired: int, forecast: float) -> None:
        """Shrink toward ``desired``, releasing only engines that are
        idle past the grace period and have amortized their warm-up."""
        floor = max(self.elastic.min_gpus, desired)
        for gid in list(self.scheduler.engines):
            if len(self.scheduler.engines) <= floor:
                break
            engine = self.scheduler.engines[gid]
            idle_since = self._idle_since.get(gid)
            lease = self._leases.get(gid)
            if (
                engine.is_idle
                and idle_since is not None
                and now - idle_since >= self.elastic.release_idle_after
                and lease is not None
                and now - lease.start >= self.elastic.provision_delay
            ):
                pool = len(self.scheduler.engines)
                self.scheduler.remove_engine(gid)
                self._gpu_busy.pop(gid, None)
                self._idle_since.pop(gid, None)
                self._leases[gid].end = now
                del self._leases[gid]
                self._releases += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        now, EventKind.SCALE_DOWN, gpu_id=gid,
                        forecast=round(forecast, 9), pool=pool,
                    )

