"""The million-request scale-out run (``scale`` marker — CI scale job only).

Tier-1 excludes this module via the default ``-m "not scale"`` addopts;
the CI ``scale`` job opts back in with ``-m scale``. The run asserts the
things that only show up at scale: terminal-state accounting over 10^6
requests, monotonic event-loop time through millions of event pops,
and a wall budget extrapolated from the smoke row's throughput
floor.
"""

from __future__ import annotations

from time import perf_counter

import pytest

from repro.bench.fig13_cluster import build_cluster
from repro.bench.perf_gate import DEFAULT_THRESHOLDS
from repro.workloads.scale import FIG13_1M, scale_trace

pytestmark = pytest.mark.scale


def test_million_request_run_within_budget():
    t0 = perf_counter()
    trace = scale_trace(FIG13_1M, seed=0)
    gen_wall = perf_counter() - t0
    assert len(trace) == FIG13_1M.n_requests == 1_000_000
    sim = build_cluster(
        FIG13_1M.num_gpus, max_batch_size=FIG13_1M.max_batch_size, fast_path=True
    )
    t0 = perf_counter()
    result = sim.run(trace)
    wall = perf_counter() - t0

    # Every request reached a terminal state; nothing was silently dropped.
    assert result.finished_requests + result.failed_requests == 1_000_000
    assert result.tokens_generated >= result.finished_requests * FIG13_1M.response_range[0]
    assert result.duration >= trace.duration

    # The event-throughput floor the smoke row enforces must hold at full
    # scale too — the arrival cursor keeps the pending set at O(GPUs +
    # timers), so event cost does not grow with the trace length.
    floor = DEFAULT_THRESHOLDS["budgets"]["fig13_1m"]["min_events_per_s"]
    events_per_s = result.events_processed / wall
    assert events_per_s >= floor, (
        f"{events_per_s:.0f} events/s below the {floor:.0f} floor "
        f"({result.events_processed} events in {wall:.0f}s)"
    )
    # Trace generation must stay a small fraction of simulation wall.
    assert gen_wall < 0.25 * wall
