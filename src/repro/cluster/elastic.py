"""Elastic GPU pool: the §5.1 cloud allocation policy, simulated.

The paper: "(1) If no lightly loaded GPU exists in the cluster, Punica
should request more GPUs. (2) Punica can return the GPU resources for GPU
servers with no load." This module runs the Fig 13 machinery with a pool
that actually grows and shrinks: scale-up requests take a provisioning
delay to land; GPUs idle beyond a grace period are released. The headline
metric is **GPU-seconds provisioned** — what a cloud tenant pays —
compared against a statically sized pool.

One autoscaler tick sizes the pool under one of two rules: the reactive
§5.1 scaling hint (the default) or, with ``predictive=``, an EWMA
forecast of the arrival rate. The forecast rule sizes the pool to
``forecast * (1 + headroom) / service_rate_per_gpu``, grows by several
GPUs in one tick when a burst lands, and releases an engine only once it
has amortized its warm-up (held its lease for one provisioning delay).
Its scale decisions emit SCALE_UP / SCALE_DOWN trace events carrying the
forecast that drove them (docs/slo.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable

from repro.cluster.control.config import ControlConfig, EwmaForecast, PredictiveConfig
from repro.cluster.simulator import ClusterSimulator, SimulationResult
from repro.obs.tracer import EventKind
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class ElasticConfig:
    """Knobs of the autoscaler."""

    min_gpus: int = 1
    max_gpus: int = 16
    provision_delay: float = 30.0
    """Seconds from the scale-up decision until the new GPU serves."""
    release_idle_after: float = 20.0
    """A GPU idle this long is returned to the provider."""
    check_interval: float = 5.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_gpus <= self.max_gpus:
            raise ValueError("need 1 <= min_gpus <= max_gpus")
        if self.provision_delay < 0 or self.release_idle_after < 0:
            raise ValueError("delays must be nonnegative")
        if self.check_interval <= 0:
            raise ValueError("check_interval must be positive")


@dataclass
class GpuLease:
    """One provisioned GPU's billing window."""

    gpu_id: str
    start: float
    end: "float | None" = None

    def seconds(self, horizon: float) -> float:
        return (self.end if self.end is not None else horizon) - self.start


@dataclass
class ElasticResult:
    """SimulationResult plus the elasticity accounting."""

    base: SimulationResult
    leases: list[GpuLease] = field(default_factory=list)
    scale_ups: int = 0
    releases: int = 0

    def gpu_seconds(self) -> float:
        return sum(lease.seconds(self.base.duration) for lease in self.leases)

    def peak_pool_size(self) -> int:
        events = []
        for lease in self.leases:
            events.append((lease.start, 1))
            events.append((lease.end if lease.end is not None else float("inf"), -1))
        events.sort()
        cur = peak = 0
        for _, delta in events:
            cur += delta
            peak = max(peak, cur)
        return peak


class ElasticClusterSimulator(ClusterSimulator):
    """Cluster simulator whose GPU pool follows an autoscaler.

    ``predictive=None`` sizes the pool by the §5.1 scaling hints; a
    :class:`~repro.cluster.control.PredictiveConfig` sizes it by an EWMA
    arrival forecast. ``control`` picks the router as in
    :class:`~repro.cluster.simulator.ClusterSimulator`.
    """

    def __init__(
        self,
        engine_factory: Callable[[str], object],
        elastic_config: ElasticConfig | None = None,
        scheduler_config=None,
        registry=None,
        tracer=None,
        fast_path: bool | None = None,
        predictive: "PredictiveConfig | None" = None,
        control: "ControlConfig | None" = None,
    ):
        self.elastic = elastic_config or ElasticConfig()
        self.engine_factory = engine_factory
        self._next_gpu_index = self.elastic.min_gpus
        initial = [engine_factory(f"gpu{i:02d}") for i in range(self.elastic.min_gpus)]
        super().__init__(
            initial,
            scheduler_config,
            registry=registry,
            tracer=tracer,
            fast_path=fast_path,
            control=control,
        )
        self.predictive = predictive
        self._forecast = (
            None if predictive is None else EwmaForecast(predictive.ewma_alpha)
        )
        self._arrivals_seen = 0
        self._leases: dict[str, GpuLease] = {
            e.gpu_id: GpuLease(gpu_id=e.gpu_id, start=0.0) for e in initial
        }
        """Every lease of the run in provisioning order (GPU ids are never
        recycled); a released GPU's lease stays with its end time set."""
        self._idle_since: dict[str, float] = {e.gpu_id: 0.0 for e in initial}
        self._provisioning = 0
        self._scale_ups = 0
        self._releases = 0

    # ------------------------------------------------------------------
    def run_elastic(self, trace: Trace, until: float | None = None) -> ElasticResult:
        """:meth:`run` plus the lease accounting."""
        return ElasticResult(
            base=self.run(trace, until=until),
            leases=list(self._leases.values()),
            scale_ups=self._scale_ups,
            releases=self._releases,
        )

    def _start(self, trace: Trace) -> "list":
        requests = super()._start(trace)
        self.loop.schedule(self.elastic.check_interval, self._autoscale_tick)
        return requests

    # ------------------------------------------------------------------
    def _pool_size(self) -> int:
        return len(self.scheduler.engines) + self._provisioning

    def _autoscale_tick(self, now: float) -> None:
        """Size the pool, then grow or release toward that size.

        The reactive rule (no forecast) keeps its original shape: no
        warm-up veto, no SCALE_UP/SCALE_DOWN events, and it stops ticking
        with the work. The forecast rule keeps ticking until the pool has
        drained back to its floor — the shrink tail would otherwise freeze
        at whatever size the last in-flight request left it.
        """
        pool = self._pool_size()
        forecast = None
        if self._forecast is None:
            # §5.1: one more GPU on a scale-up hint, down to the floor on
            # a scale-down hint.
            desired = {
                "scale-up": min(pool + 1, self.elastic.max_gpus),
                "scale-down": self.elastic.min_gpus,
            }.get(self.scheduler.scaling_hint(), pool)
        else:
            forecast, desired = self._forecast_size(pool)
        if desired > pool:
            if forecast is not None and self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.SCALE_UP,
                    forecast=round(forecast, 9), pool=pool, add=desired - pool,
                )
            for _ in range(desired - pool):
                self._provisioning += 1
                self._scale_ups += 1
                self.loop.schedule(now + self.elastic.provision_delay, self._activate_gpu)
        elif desired < len(self.scheduler.engines):
            self._release_idle(now, desired, forecast)
        self._update_idle_marks(now)
        above_floor = len(self.scheduler.engines) > self.elastic.min_gpus
        if (
            self.work_remaining()
            or self._provisioning > 0
            or (forecast is not None and above_floor)
        ):
            self.loop.schedule(now + self.elastic.check_interval, self._autoscale_tick)

    def _forecast_size(self, pool: int) -> "tuple[float, int]":
        """Fold this interval's arrival rate into the EWMA and size the
        pool to cover it with headroom."""
        cfg = self.predictive
        total = len(self.metrics.arrivals)
        sample = (total - self._arrivals_seen) / self.elastic.check_interval
        self._arrivals_seen = total
        forecast = self._forecast.update(sample)
        demand = forecast * (1.0 + cfg.headroom_fraction)
        desired = max(
            self.elastic.min_gpus,
            min(self.elastic.max_gpus, math.ceil(demand / cfg.service_rate_per_gpu)),
        )
        # A standing queue means the forecast under-calls actual service
        # cost; never size below what the reactive hint would demand.
        if self.scheduler.queue_depth > 0 and desired <= pool < self.elastic.max_gpus:
            desired = pool + 1
        return forecast, desired

    def _update_idle_marks(self, now: float) -> None:
        for gid, engine in self.scheduler.engines.items():
            if engine.is_idle:
                self._idle_since.setdefault(gid, now)
            else:
                self._idle_since.pop(gid, None)

    def _activate_gpu(self, now: float) -> None:
        self._provisioning -= 1
        gpu_id = f"gpu{self._next_gpu_index:02d}"
        self._next_gpu_index += 1
        engine = self.engine_factory(gpu_id)
        self._wire_tracer(engine)
        self.scheduler.add_engine(engine)
        self._gpu_busy[gpu_id] = False
        self._leases[gpu_id] = GpuLease(gpu_id=gpu_id, start=now)
        self._idle_since[gpu_id] = now
        placed = self.scheduler.drain_queue(now)
        for gid in set(placed):
            self._kick(gid, now)

    def _release_idle(
        self, now: float, desired: int, forecast: "float | None" = None
    ) -> None:
        """Shrink toward ``desired`` (never below ``min_gpus``), releasing
        only engines idle past the grace period. Under the forecast rule
        an engine must also have amortized its warm-up: held its lease for
        at least one provisioning delay."""
        floor = max(self.elastic.min_gpus, desired)
        for gid in list(self.scheduler.engines):
            pool = len(self.scheduler.engines)
            if pool <= floor:
                break
            engine = self.scheduler.engines[gid]
            idle_since = self._idle_since.get(gid)
            lease = self._leases[gid]
            if (
                not engine.is_idle
                or idle_since is None
                or now - idle_since < self.elastic.release_idle_after
                or (
                    forecast is not None
                    and now - lease.start < self.elastic.provision_delay
                )
            ):
                continue
            self._collect_adapter_events(self.scheduler.remove_engine(gid))
            self._gpu_busy.pop(gid, None)
            self._idle_since.pop(gid, None)
            lease.end = now
            self._releases += 1
            if forecast is not None and self.tracer is not None:
                self.tracer.emit(
                    now, EventKind.SCALE_DOWN, gpu_id=gid,
                    forecast=round(forecast, 9), pool=pool,
                )
