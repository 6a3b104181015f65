"""Time-series metrics for cluster experiments (the three panels of Fig 13,
plus the adapter-lifecycle panels the tiered cache ablation plots).

Every counter here also feeds a per-run
:class:`~repro.obs.metrics.MetricsRegistry` under the unified ``repro_``
namespace, so one registry snapshot (JSON or Prometheus text) covers the
cluster, adapter and fault counters that used to live in three places.
Both the time series and the registry are *instance* state created in
``__init__`` — nothing module-level survives a run, so two back-to-back
simulations report identical numbers (tests/test_metrics_parity.py's
reset-isolation test pins this)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adapters.registry import Tier
from repro.obs.metrics import MetricsRegistry


class TimeSeries:
    """Sparse (time, value) samples with bucketed aggregation.

    Storage is a pair of growable ``float64`` arrays (amortised-O(1)
    appends) rather than Python lists — the per-step recording path is
    hot enough in million-request runs that list-of-float boxing
    dominated. ``times``/``values`` expose trimmed array views; equality
    compares contents, so differential tests keep their
    ``series_a == series_b`` shape.
    """

    __slots__ = ("_times", "_values", "_n")

    def __init__(self) -> None:
        self._times = np.empty(16, dtype=np.float64)
        self._values = np.empty(16, dtype=np.float64)
        self._n = 0

    @property
    def times(self) -> np.ndarray:
        return self._times[: self._n]

    @property
    def values(self) -> np.ndarray:
        return self._values[: self._n]

    def _grow(self, need: int) -> None:
        cap = len(self._times)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        self._times = np.resize(self._times, cap)
        self._values = np.resize(self._values, cap)

    def record(self, t: float, v: float) -> None:
        n = self._n
        if n and t < self._times[n - 1]:
            raise ValueError(
                f"samples must be time-ordered: {t} < {self._times[n - 1]}"
            )
        self._grow(n + 1)
        self._times[n] = t
        self._values[n] = v
        self._n = n + 1

    def record_unordered(self, t: float, v: float) -> None:
        """Insert a sample keeping time order.

        The SLO router records at two interleaved clocks: loop events,
        and step-completion times, which run ahead of the loop (a step's
        finish handling drains the queues at its end time, and the fast
        path's inline coalescing runs whole steps early). The occasional
        out-of-order sample pays an O(n) shift; ties keep insertion order
        so replays stay stable.
        """
        n = self._n
        if not n or t >= self._times[n - 1]:
            self.record(t, v)
            return
        idx = int(np.searchsorted(self._times[:n], t, side="right"))
        self._grow(n + 1)
        self._times[idx + 1 : n + 1] = self._times[idx:n]
        self._values[idx + 1 : n + 1] = self._values[idx:n]
        self._times[idx] = t
        self._values[idx] = v
        self._n = n + 1

    def __len__(self) -> int:
        return self._n

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return np.array_equal(self.times, other.times) and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"TimeSeries(n={self._n})"

    def bucket_sum(self, bucket: float, duration: float) -> "list[tuple[float, float]]":
        """Sum of values per bucket — e.g. tokens/s when divided by bucket."""
        return self._bucket(bucket, duration, np.sum)

    def bucket_mean(self, bucket: float, duration: float) -> "list[tuple[float, float]]":
        return self._bucket(bucket, duration, lambda a: float(np.mean(a)) if len(a) else 0.0)

    def _bucket(self, bucket: float, duration: float, agg) -> "list[tuple[float, float]]":
        if bucket <= 0 or duration <= 0:
            raise ValueError("bucket and duration must be positive")
        edges = np.arange(0.0, duration + bucket, bucket)
        times = self.times
        values = self.values
        # ``times`` is sorted (record enforces it), so one searchsorted pass
        # finds every bucket boundary: O(samples + buckets) instead of one
        # boolean mask per bucket. Each slice holds exactly the samples in
        # [lo, hi), in recording order, so aggregates are bit-identical to
        # the masked version.
        cuts = np.searchsorted(times, edges, side="left")
        out = []
        for i in range(len(edges) - 1):
            out.append(
                (float(edges[i]), float(agg(values[cuts[i]:cuts[i + 1]])))
            )
        return out

    def value_at(self, t: float) -> float:
        """Step-function lookup: the last recorded value at or before ``t``."""
        i = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self._values[i]) if i >= 0 else 0.0


#: Deadline-headroom buckets (seconds). Deadlines are sub-second, so the
#: interesting resolution is around zero; negative buckets keep the
#: expected-miss placements distinguishable from comfortable admits.
SLO_HEADROOM_BUCKETS = (
    -1.0, -0.5, -0.1, 0.0, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


@dataclass
class ClusterMetrics:
    """Everything Fig 13 plots, collected during one simulation run."""

    arrivals: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per request arrival — bucket_sum/bucket = request rate."""
    tokens: TimeSeries = field(default_factory=TimeSeries)
    """(step end, tokens generated that step) — bucket_sum/bucket = tok/s."""
    gpu_batch_size: dict[str, TimeSeries] = field(default_factory=dict)
    """Per-GPU (step start, invocation batch size) — Fig 13 lower panel."""
    adapter_loads: TimeSeries = field(default_factory=TimeSeries)
    """(time, hit tier) per demand adapter load: 2 GPU, 1 HOST, 0 DISK."""
    adapter_evictions: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per adapter demoted out of a GPU pool."""
    prefetch_issues: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per speculative GPU promotion issued."""
    prefetch_hits: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per prefetched adapter a later demand load actually used."""
    pcie_busy: TimeSeries = field(default_factory=TimeSeries)
    """(copy start, copy seconds) per host->GPU transfer — busy time."""
    faults_injected: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per fault the injector actually applied."""
    replacements: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per in-flight request re-placed after a fault (§5.3
    evict + re-prefill used as the recovery mechanism)."""
    sheds: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per request shed with a FAILED terminal state because no
    surviving capacity could ever absorb it."""
    recoveries: TimeSeries = field(default_factory=TimeSeries)
    """(recovery time, seconds since the fault) — one sample per fault
    whose displaced requests all reached a GPU (or terminal state) again."""
    kv_transfers: TimeSeries = field(default_factory=TimeSeries)
    """(transfer completion time, transfer seconds) per paged KV handoff
    between the prefill and decode pools (disaggregated mode)."""
    kv_transfer_failures: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per KV handoff lost to an injected transfer fault; the
    request falls back to the §5.3 re-prefill path."""
    colocated_fallbacks: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per prefilled request kept on its prefill GPU because the
    decode pool was saturated (disaggregated mode's escape hatch)."""
    slo_admits: TimeSeries = field(default_factory=TimeSeries)
    """(placement time, modelled deadline headroom in seconds) per request
    the SLO router placed — negative headroom means a best-effort
    placement the model expected to miss."""
    slo_sheds: TimeSeries = field(default_factory=TimeSeries)
    """(time, 1) per request the SLO router refused because no engine
    could meet its deadline even under the optimistic floor."""
    slo_outcomes: TimeSeries = field(default_factory=TimeSeries)
    """(terminal time, 1 attained / 0 missed) per request scored against
    its TTFT/ITL deadlines at run end."""
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    """The unified per-run registry every record_* call also feeds (the
    tests/test_metrics_parity.py contract keeps both views exactly equal)."""

    def __post_init__(self) -> None:
        # Declare the full instrument schema up front so a snapshot of an
        # idle run still exposes every metric (at zero) rather than a
        # namespace that grows as events happen to occur.
        r = self.registry
        r.counter("requests_arrived_total", "request arrivals at the cluster")
        # Bound handles for record_step, the per-invocation hot path: the
        # registry lookup + label validation per call would otherwise cost
        # more than the recording itself.
        self._tokens_counter = r.counter(
            "tokens_generated_total", "tokens generated by engine steps"
        )
        self._steps_counter = r.counter(
            "engine_steps_total", "batched invocations per GPU", labels=("gpu",)
        )
        self._batch_gauge = r.gauge(
            "gpu_batch_size", "latest invocation batch size", labels=("gpu",)
        )
        r.counter("adapter_loads_total", "demand adapter loads by hit tier",
                  labels=("tier",))
        r.counter("adapter_evictions_total",
                  "adapters demoted out of a GPU pool")
        r.counter("adapter_prefetch_issues_total",
                  "speculative GPU promotions")
        r.counter("adapter_prefetch_hits_total",
                  "prefetched adapters a demand load used")
        r.counter("pcie_busy_seconds_total", "host->GPU link busy time")
        r.histogram("pcie_transfer_seconds",
                    "per-transfer host->GPU copy time")
        r.counter("faults_injected_total", "faults the injector applied")
        r.counter("replacements_total",
                  "in-flight requests re-placed after a fault")
        r.counter("sheds_total", "requests shed with a FAILED terminal state")
        r.histogram("recovery_latency_seconds",
                    "seconds from fault injection to full re-admission")
        r.counter("kv_transfers_total",
                  "paged KV handoffs between prefill and decode pools")
        r.counter("kv_transfer_bytes_total",
                  "bytes of KV history moved over the interconnect")
        r.histogram("kv_transfer_seconds", "per-handoff interconnect time")
        r.counter("kv_transfer_failures_total",
                  "KV handoffs lost to transfer faults (re-prefill)")
        r.counter("disagg_colocated_fallbacks_total",
                  "prefilled requests decoded in place: decode pool full")
        r.counter("slo_attained_total",
                  "requests that met their TTFT and ITL deadlines")
        r.counter("slo_missed_total",
                  "requests that blew a deadline or never finished")
        r.counter("slo_sheds_total",
                  "requests the SLO router refused: no feasible placement")
        r.histogram("slo_deadline_headroom_seconds",
                    "modelled TTFT headroom at placement (negative = the "
                    "cost model already expected a miss)",
                    buckets=SLO_HEADROOM_BUCKETS)

    def record_arrival(self, t: float) -> None:
        self.arrivals.record(t, 1.0)
        self.registry.counter(
            "requests_arrived_total", "request arrivals at the cluster"
        ).inc()

    def record_step(self, gpu_id: str, start: float, tokens: int, batch_size: int) -> None:
        ftokens = float(tokens)
        fbatch = float(batch_size)
        self.tokens.record(start, ftokens)
        series = self.gpu_batch_size.get(gpu_id)
        if series is None:
            series = self.gpu_batch_size.setdefault(gpu_id, TimeSeries())
        series.record(start, fbatch)
        key = (gpu_id,)
        self._tokens_counter.inc_key((), ftokens)
        self._steps_counter.inc_key(key)
        self._batch_gauge.set_key(key, fbatch)

    # -- adapter lifecycle ------------------------------------------------
    def record_adapter_load(self, t: float, tier: "Tier | int") -> None:
        self.adapter_loads.record(t, float(int(tier)))
        self.registry.counter(
            "adapter_loads_total", "demand adapter loads by hit tier",
            labels=("tier",),
        ).inc(tier=Tier(int(tier)).name.lower())

    def record_adapter_eviction(self, t: float) -> None:
        self.adapter_evictions.record(t, 1.0)
        self.registry.counter(
            "adapter_evictions_total", "adapters demoted out of a GPU pool"
        ).inc()

    def record_prefetch_issue(self, t: float) -> None:
        self.prefetch_issues.record(t, 1.0)
        self.registry.counter(
            "adapter_prefetch_issues_total", "speculative GPU promotions"
        ).inc()

    def record_prefetch_hit(self, t: float) -> None:
        self.prefetch_hits.record(t, 1.0)
        self.registry.counter(
            "adapter_prefetch_hits_total",
            "prefetched adapters a demand load used",
        ).inc()

    def record_pcie_transfer(self, t: float, duration: float) -> None:
        self.pcie_busy.record(t, float(duration))
        self.registry.counter(
            "pcie_busy_seconds_total", "host->GPU link busy time"
        ).inc(float(duration))
        self.registry.histogram(
            "pcie_transfer_seconds", "per-transfer host->GPU copy time"
        ).observe(float(duration))

    # -- fault tolerance --------------------------------------------------
    def record_fault(self, t: float) -> None:
        self.faults_injected.record(t, 1.0)
        self.registry.counter(
            "faults_injected_total", "faults the injector applied"
        ).inc()

    def record_replacement(self, t: float) -> None:
        self.replacements.record(t, 1.0)
        self.registry.counter(
            "replacements_total",
            "in-flight requests re-placed after a fault",
        ).inc()

    def record_shed(self, t: float) -> None:
        # The SLO router sheds at either clock (see record_unordered).
        self.sheds.record_unordered(t, 1.0)
        self.registry.counter(
            "sheds_total", "requests shed with a FAILED terminal state"
        ).inc()

    def record_recovery(self, t: float, latency: float) -> None:
        self.recoveries.record(t, float(latency))
        self.registry.histogram(
            "recovery_latency_seconds",
            "seconds from fault injection to full re-admission",
        ).observe(float(latency))

    # -- disaggregated prefill/decode ------------------------------------
    def record_kv_transfer(self, t: float, duration: float, nbytes: float) -> None:
        """One paged KV handoff completed at ``t`` after ``duration`` on
        the wire (recorded at completion so the series stays monotone)."""
        self.kv_transfers.record(t, float(duration))
        self.registry.counter(
            "kv_transfers_total",
            "paged KV handoffs between prefill and decode pools",
        ).inc()
        self.registry.counter(
            "kv_transfer_bytes_total",
            "bytes of KV history moved over the interconnect",
        ).inc(float(nbytes))
        self.registry.histogram(
            "kv_transfer_seconds", "per-handoff interconnect time"
        ).observe(float(duration))

    def record_kv_transfer_failure(self, t: float) -> None:
        self.kv_transfer_failures.record(t, 1.0)
        self.registry.counter(
            "kv_transfer_failures_total",
            "KV handoffs lost to transfer faults (re-prefill)",
        ).inc()

    def record_colocated_fallback(self, t: float) -> None:
        self.colocated_fallbacks.record(t, 1.0)
        self.registry.counter(
            "disagg_colocated_fallbacks_total",
            "prefilled requests decoded in place: decode pool full",
        ).inc()

    # -- SLO control plane -------------------------------------------------
    def record_slo_admit(self, t: float, headroom: float) -> None:
        """SLO router placed a request with ``headroom`` seconds of
        modelled TTFT slack (may be negative for best-effort placements)."""
        self.slo_admits.record_unordered(t, float(headroom))
        self.registry.histogram(
            "slo_deadline_headroom_seconds",
            "modelled TTFT headroom at placement (negative = the "
            "cost model already expected a miss)",
            buckets=SLO_HEADROOM_BUCKETS,
        ).observe(float(headroom))

    def record_slo_shed(self, t: float) -> None:
        self.slo_sheds.record_unordered(t, 1.0)
        self.registry.counter(
            "slo_sheds_total",
            "requests the SLO router refused: no feasible placement",
        ).inc()

    def record_slo_outcome(self, t: float, attained: bool) -> None:
        self.slo_outcomes.record(t, 1.0 if attained else 0.0)
        if attained:
            self.registry.counter(
                "slo_attained_total",
                "requests that met their TTFT and ITL deadlines",
            ).inc()
        else:
            self.registry.counter(
                "slo_missed_total",
                "requests that blew a deadline or never finished",
            ).inc()

    def ingest_adapter_events(self, events) -> None:
        """Fold store event logs (see
        :class:`~repro.adapters.store.AdapterEvent`) into the time series.

        Events from several GPU stores interleave arbitrarily; they are
        sorted here so the monotone-time invariant of each series holds.
        """
        for ev in sorted(events):
            if ev.kind == "load":
                self.record_adapter_load(ev.time, int(ev.value))
            elif ev.kind == "evict":
                self.record_adapter_eviction(ev.time)
            elif ev.kind == "prefetch_issue":
                self.record_prefetch_issue(ev.time)
            elif ev.kind == "prefetch_hit":
                self.record_prefetch_hit(ev.time)
            elif ev.kind == "pcie":
                self.record_pcie_transfer(ev.time, ev.value)
            else:
                raise ValueError(f"unknown adapter event kind {ev.kind!r}")

    # -- series -----------------------------------------------------------
    def request_rate_series(self, bucket: float, duration: float):
        return [(t, v / bucket) for t, v in self.arrivals.bucket_sum(bucket, duration)]

    def throughput_series(self, bucket: float, duration: float):
        return [(t, v / bucket) for t, v in self.tokens.bucket_sum(bucket, duration)]

    def batch_size_series(self, gpu_id: str, bucket: float, duration: float):
        series = self.gpu_batch_size.get(gpu_id, TimeSeries())
        return series.bucket_mean(bucket, duration)

    def pcie_utilization_series(self, bucket: float, duration: float):
        """Fraction of each bucket the host->GPU link spent copying weights."""
        return [
            (t, v / bucket) for t, v in self.pcie_busy.bucket_sum(bucket, duration)
        ]

    # -- summaries ---------------------------------------------------------
    def total_tokens(self) -> float:
        return float(np.sum(self.tokens.values)) if len(self.tokens) else 0.0

    def adapter_hit_counts(self) -> dict[str, int]:
        """Demand loads by the tier that satisfied them."""
        counts = {"gpu": 0, "host": 0, "disk": 0}
        names = {Tier.GPU: "gpu", Tier.HOST: "host", Tier.DISK: "disk"}
        for v in self.adapter_loads.values:
            counts[names[Tier(int(v))]] += 1
        return counts

    def adapter_gpu_hit_rate(self) -> float:
        """Fraction of demand loads that found the adapter GPU-resident."""
        if not len(self.adapter_loads):
            return 0.0
        counts = self.adapter_hit_counts()
        return counts["gpu"] / len(self.adapter_loads.values)

    def eviction_count(self) -> int:
        return len(self.adapter_evictions)

    def prefetch_accuracy(self) -> float:
        """Fraction of speculative promotions a demand load later used."""
        if not len(self.prefetch_issues):
            return 0.0
        return len(self.prefetch_hits) / len(self.prefetch_issues)

    def pcie_busy_seconds(self) -> float:
        return float(np.sum(self.pcie_busy.values)) if len(self.pcie_busy) else 0.0

    def fault_count(self) -> int:
        return len(self.faults_injected)

    def replacement_count(self) -> int:
        return len(self.replacements)

    def shed_count(self) -> int:
        return len(self.sheds)

    def mean_recovery_latency(self) -> float:
        """Mean seconds from fault injection until every displaced request
        was running again (or reached a terminal state)."""
        if not len(self.recoveries):
            return 0.0
        return float(np.mean(self.recoveries.values))

    def kv_transfer_count(self) -> int:
        return len(self.kv_transfers)

    def kv_transfer_seconds(self) -> float:
        """Total interconnect time spent on KV handoffs."""
        if not len(self.kv_transfers):
            return 0.0
        return float(np.sum(self.kv_transfers.values))

    def kv_transfer_failure_count(self) -> int:
        return len(self.kv_transfer_failures)

    def colocated_fallback_count(self) -> int:
        return len(self.colocated_fallbacks)

    def slo_shed_count(self) -> int:
        return len(self.slo_sheds)

    def slo_attained_count(self) -> int:
        return int(np.sum(self.slo_outcomes.values)) if len(self.slo_outcomes) else 0

    def slo_missed_count(self) -> int:
        return len(self.slo_outcomes) - self.slo_attained_count()

    def slo_attainment(self) -> float:
        """Fraction of scored requests that met both deadlines."""
        if not len(self.slo_outcomes):
            return 0.0
        return self.slo_attained_count() / len(self.slo_outcomes)

    def mean_admit_headroom(self) -> float:
        if not len(self.slo_admits):
            return 0.0
        return float(np.mean(self.slo_admits.values))
