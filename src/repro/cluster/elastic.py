"""Elastic GPU pool: the §5.1 cloud allocation policy, simulated.

The paper: "(1) If no lightly loaded GPU exists in the cluster, Punica
should request more GPUs. (2) Punica can return the GPU resources for GPU
servers with no load." This module runs the Fig 13 machinery with a pool
that actually grows and shrinks: scale-up requests take a provisioning
delay to land; GPUs idle beyond a grace period are released. The headline
metric is **GPU-seconds provisioned** — what a cloud tenant pays —
compared against a statically sized pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

from repro.cluster.simulator import ClusterSimulator, SimulationResult
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
    """Cluster simulator whose GPU pool follows the §5.1 scaling hints."""

    def __init__(
        self,
        engine_factory: Callable[[str], object],
        elastic_config: ElasticConfig | None = None,
        scheduler_config=None,
        registry=None,
        tracer=None,
        fast_path: bool | None = None,
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
        )
        self._leases: dict[str, GpuLease] = {
            e.gpu_id: GpuLease(gpu_id=e.gpu_id, start=0.0) for e in initial
        }
        self._lease_log: list[GpuLease] = list(self._leases.values())
        self._idle_since: dict[str, float] = {e.gpu_id: 0.0 for e in initial}
        self._provisioning = 0
        self._scale_ups = 0
        self._releases = 0

    # ------------------------------------------------------------------
    def run_elastic(self, trace: Trace, until: float | None = None) -> ElasticResult:
        requests = self._start(trace)
        self.loop.schedule(self.elastic.check_interval, self._autoscale_tick)
        end = self.loop.run(until=until)
        return ElasticResult(
            base=self._result(requests, end),
            leases=self._lease_log,
            scale_ups=self._scale_ups,
            releases=self._releases,
        )

    # ------------------------------------------------------------------
    def _pool_size(self) -> int:
        return len(self.scheduler.engines) + self._provisioning

    def _autoscale_tick(self, now: float) -> None:
        hint = self.scheduler.scaling_hint()
        if hint == "scale-up" and self._pool_size() < self.elastic.max_gpus:
            self._provisioning += 1
            self._scale_ups += 1
            self.loop.schedule(now + self.elastic.provision_delay, self._activate_gpu)
        elif hint == "scale-down":
            self._release_idle(now)
        self._update_idle_marks(now)
        if self.work_remaining() or self._provisioning > 0:
            self.loop.schedule(now + self.elastic.check_interval, self._autoscale_tick)

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
        if self.tracer is not None:
            # Engines provisioned mid-run need the same tracer threading
            # the initial pool got in ClusterSimulator.__init__.
            if hasattr(engine, "tracer"):
                engine.tracer = self.tracer
            store = getattr(getattr(engine, "loader", None), "store", None)
            if store is not None:
                store.tracer = self.tracer
        self.scheduler.add_engine(engine)
        self._gpu_busy[gpu_id] = False
        lease = GpuLease(gpu_id=gpu_id, start=now)
        self._leases[gpu_id] = lease
        self._lease_log.append(lease)
        self._idle_since[gpu_id] = now
        placed = self.scheduler.drain_queue(now)
        for gid in set(placed):
            self._kick(gid, now)

    def _release_idle(self, now: float) -> None:
        for gid in list(self.scheduler.engines):
            if len(self.scheduler.engines) <= self.elastic.min_gpus:
                break
            engine = self.scheduler.engines[gid]
            idle_since = self._idle_since.get(gid)
            if (
                engine.is_idle
                and idle_since is not None
                and now - idle_since >= self.elastic.release_idle_after
            ):
                self.scheduler.remove_engine(gid)
                self._gpu_busy.pop(gid, None)
                self._idle_since.pop(gid, None)
                self._leases[gid].end = now
                del self._leases[gid]
                self._releases += 1
