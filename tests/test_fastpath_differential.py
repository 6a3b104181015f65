"""Differential equivalence: the fast-path engine vs the reference path.

The fast path (``REPRO_FASTPATH``, default on) layers four optimisations
over the simulation engine — kernel-cost memoisation, per-plan latency-term
caching, the engine's steady-state decode lane, and the simulator's inline
same-engine decode coalescing. The contract for every one of them is *bit
identity*: the optimised run must produce byte-identical traces and equal
results, not merely statistically similar ones.

This suite enforces the contract two ways:

* the three golden scenarios are run through both paths and compared on
  canonical JSONL bytes, per-request latency breakdowns, terminal request
  state and the unified metrics registry;
* Hypothesis generates randomized cluster workloads — mixed LoRA ranks and
  popularity, staggered arrivals, mid-run cancellations, scripted faults,
  1–3 GPUs, small batch limits — and replays each through both paths.

A final canary asserts the fast lanes actually engage, so a silent guard
regression cannot reduce this suite to comparing the slow path to itself.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.faults import FaultInjector, FaultKind, FaultSpec
from repro.cluster.scheduler import SchedulerConfig
from repro.cluster.simulator import ClusterSimulator
from repro.models.config import LLAMA2_7B
from repro.obs.analysis import compute_breakdowns
from repro.obs.scenarios import SCENARIOS, run_scenario
from repro.obs.tracer import Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import RequestState
from repro.runtime.spec import SpecConfig
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import generate_trace


def _request_states(requests):
    return [
        (
            r.request_id,
            r.state,
            r.num_generated,
            r.kv_len,
            r.first_admitted_time,
            r.first_token_time,
            r.finish_time,
            r.num_migrations,
            r.failure_reason,
            tuple(r.generated_tokens),
        )
        for r in sorted(requests, key=lambda r: r.request_id)
    ]


def _assert_equivalent(fast, ref):
    """Full observable-state comparison of two ScenarioResult-likes."""
    assert fast.tracer.dumps_jsonl() == ref.tracer.dumps_jsonl()
    assert compute_breakdowns(fast.tracer) == compute_breakdowns(ref.tracer)
    assert _request_states(fast.requests) == _request_states(ref.requests)
    if fast.metrics is not None or ref.metrics is not None:
        assert fast.metrics.registry.to_json() == ref.metrics.registry.to_json()
        assert fast.metrics.tokens == ref.metrics.tokens
        assert fast.metrics.gpu_batch_size == ref.metrics.gpu_batch_size


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", [0, 7])
def test_scenario_differential(name, seed):
    """Golden scenarios produce byte-identical traces through both paths."""
    fast = run_scenario(name, seed=seed, fast_path=True)
    ref = run_scenario(name, seed=seed, fast_path=False)
    _assert_equivalent(fast, ref)


# ---------------------------------------------------------------------------
# Randomized workloads
# ---------------------------------------------------------------------------
def _short_lengths():
    return ShareGptLengths(max_prompt_len=40, max_response_len=8)


def _build_and_run(
    *,
    seed,
    num_gpus,
    max_batch,
    rate,
    duration,
    lora_rank,
    cancel_picks,
    fault_plan,
    fast_path,
    spec=None,
):
    trace = generate_trace(
        int(rate * duration) + 8,
        "skewed",
        seed=seed,
        lengths=_short_lengths(),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )
    tracer = Tracer()
    injector = (
        FaultInjector(fault_plan, seed=seed) if fault_plan else None
    )
    sim = ClusterSimulator(
        [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(
                    LLAMA2_7B, step_overhead=0.05, lora_rank=lora_rank,
                    fast_path=fast_path,
                ),
                EngineConfig(max_batch_size=max_batch, spec=spec),
                fast_path=fast_path,
            )
            for i in range(num_gpus)
        ],
        SchedulerConfig(migration_interval=1.0, light_load_fraction=0.5),
        fault_injector=injector,
        tracer=tracer,
        fast_path=fast_path,
    )
    # Mid-run cancellations: each pick is (spec index, delay after its
    # arrival). The callback consults live request state, so both paths
    # issue exactly the same cancels iff their state evolution matches —
    # a divergence surfaces as differing CANCEL events in the trace.
    for idx, delay in cancel_picks:
        spec = trace.requests[idx % len(trace.requests)]
        when = spec.arrival_time + delay

        def _cancel(now, rid=spec.request_id):
            req = sim._requests.get(rid)
            if req is not None and req.state in (
                RequestState.QUEUED, RequestState.RUNNING
            ):
                sim.cancel(req, now)

        sim.loop.schedule(when, _cancel)
    result = sim.run(trace)
    summary = (
        result.events_processed,
        result.finished_requests,
        result.failed_requests,
        result.tokens_generated,
        result.num_migrations,
        result.duration,
    )
    return tracer, result, summary, sim


_FAULT_MENU = (
    FaultSpec(kind=FaultKind.GPU_SLOWDOWN, time=1.0, duration=1.0, factor=3.0),
    FaultSpec(kind=FaultKind.PCIE_STALL, time=1.5, duration=0.5),
    FaultSpec(kind=FaultKind.GPU_CRASH, time=2.0),
)

# The speculative lane menu: disarmed, a rejection-heavy low-acceptance
# draft (maximum rollback traffic), and a burst-heavy high-acceptance one.
_SPEC_MENU = (
    None,
    SpecConfig(draft_len=2, acceptance_rate=0.2, seed=1),
    SpecConfig(draft_len=4, acceptance_rate=0.9, seed=2),
)


class _Run:
    def __init__(self, tracer, result, summary):
        self.tracer = tracer
        self.requests = result.requests
        self.metrics = result.metrics
        self.summary = summary


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    num_gpus=st.integers(min_value=1, max_value=3),
    max_batch=st.integers(min_value=2, max_value=6),
    rate=st.sampled_from([4.0, 8.0, 14.0]),
    duration=st.sampled_from([2.0, 3.5]),
    lora_rank=st.sampled_from([8, 16, 32]),
    cancel_picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.floats(min_value=0.05, max_value=1.5),
        ),
        max_size=3,
    ),
    fault_subset=st.sets(st.integers(min_value=0, max_value=2), max_size=3),
    spec=st.sampled_from(_SPEC_MENU),
)
def test_random_workload_differential(
    seed, num_gpus, max_batch, rate, duration, lora_rank, cancel_picks,
    fault_subset, spec,
):
    """Any generated workload replays byte-identically through both paths."""
    fault_plan = [_FAULT_MENU[i] for i in sorted(fault_subset)]
    if num_gpus == 1:
        # A crash with no survivor leaves nothing to compare recovery on.
        fault_plan = [f for f in fault_plan if f.kind is not FaultKind.GPU_CRASH]
    kwargs = dict(
        seed=seed, num_gpus=num_gpus, max_batch=max_batch, rate=rate,
        duration=duration, lora_rank=lora_rank, cancel_picks=cancel_picks,
        fault_plan=fault_plan, spec=spec,
    )
    ftracer, fresult, fsummary, fsim = _build_and_run(fast_path=True, **kwargs)
    rtracer, rresult, rsummary, rsim = _build_and_run(fast_path=False, **kwargs)
    assert fsummary == rsummary
    _assert_equivalent(
        _Run(ftracer, fresult, fsummary), _Run(rtracer, rresult, rsummary)
    )
    # Page accounting returns to baseline on both paths: rejected drafts,
    # cancels and crashes may not leak a single KvCache page.
    for sim in (fsim, rsim):
        for engine in sim.scheduler.engines.values():
            assert engine.backend.kv.allocator.used_pages == 0


# ---------------------------------------------------------------------------
# Composed untraced workloads: the fast lanes under load
# ---------------------------------------------------------------------------
# These runs go untraced — the path the benches and scale runs take — and
# compare everything that remains observable without a trace: terminal
# request state, the unified metrics registry, the metrics time-series,
# and the summary tuple. Workloads *compose* the
# features the per-feature suites cover in isolation: disagg pools,
# scripted faults, cancellation storms, and the serve gateway's
# admission + disconnect path.


def _serve_drive(sim, trace, storm_picks):
    """Drive ``trace`` through the ServeGateway on the sim's event loop.

    ``storm_picks`` schedules mid-stream client disconnects (the
    cancellation storm, expressed the way the serving frontend causes
    it: ``client_close`` -> CANCEL ``reason="disconnect"``).
    """
    from repro.cluster.frontend import Frontend
    from repro.serve.gateway import ServeGateway
    from repro.serve.limits import AdmissionController, TenantPolicy
    from repro.serve.metrics import ServeMetrics

    gateway = ServeGateway(
        Frontend(sim),
        AdmissionController(
            default_policy=TenantPolicy(rate=3.0, burst=2.0, max_inflight=5),
            max_total_inflight=24,
        ),
        metrics=ServeMetrics(),
        tracer=None,
    )
    storm = {idx % len(trace.requests): delay for idx, delay in storm_picks}

    def make_open(spec, index: int):
        def action(now: float) -> None:
            stream, _ = gateway.open(
                tenant=spec.lora_id, lora_id=spec.lora_id,
                prompt_len=spec.prompt_len, response_len=spec.response_len,
                now=now, request_id=spec.request_id,
            )
            delay = storm.get(index)
            if stream is not None and delay is not None:
                sim.loop.schedule(
                    now + delay,
                    lambda t, rid=spec.request_id: gateway.client_close(rid, t),
                )

        return action

    for i, spec in enumerate(trace):
        sim.loop.schedule(spec.arrival_time, make_open(spec, i))

    def poll_tick(now: float) -> None:
        gateway.poll(now)
        if sim.work_remaining() or gateway.open_streams():
            sim.loop.schedule(now + 0.25, poll_tick)

    sim.loop.schedule(0.25, poll_tick)
    sim.loop.run()
    gateway.poll(sim.now)
    return list(sim._requests.values())


def _build_composed(
    *,
    seed,
    topology,
    num_gpus,
    max_batch,
    rate,
    duration,
    lora_rank,
    storm_picks,
    fault_plan,
    serve_frontend,
    fast_path,
    spec=None,
):
    from repro.cluster.disagg import DisaggConfig, DisaggSimulator

    trace = generate_trace(
        int(rate * duration) + 8,
        "skewed",
        seed=seed,
        lengths=_short_lengths(),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )
    injector = FaultInjector(fault_plan, seed=seed) if fault_plan else None

    def engines(ids):
        return [
            GpuEngine(
                f"gpu{i:02d}",
                SimulatedBackend(
                    LLAMA2_7B, step_overhead=0.05, lora_rank=lora_rank,
                    fast_path=fast_path,
                ),
                EngineConfig(max_batch_size=max_batch, spec=spec),
                fast_path=fast_path,
            )
            for i in ids
        ]

    if topology == "disagg":
        n_prefill = max(1, num_gpus // 2)
        sim = DisaggSimulator(
            engines(range(n_prefill)),
            engines(range(n_prefill, num_gpus)),
            config=DisaggConfig(decode_queue_limit=2),
            fault_injector=injector,
            tracer=None,
            fast_path=fast_path,
        )
    else:
        sim = ClusterSimulator(
            engines(range(num_gpus)),
            SchedulerConfig(migration_interval=1.0, light_load_fraction=0.5),
            fault_injector=injector,
            tracer=None,
            fast_path=fast_path,
        )

    if serve_frontend:
        requests = _serve_drive(sim, trace, storm_picks)
        by_state = {}
        for r in requests:
            by_state[r.state.name] = by_state.get(r.state.name, 0) + 1
        summary = (
            sim.loop.processed,
            tuple(sorted(by_state.items())),
            sum(r.num_generated for r in requests),
            sim.now,
        )
        return requests, sim.metrics, summary, sim

    # Direct cancellation storm: same mechanism as the traced suite, but
    # storm-sized.
    for idx, delay in storm_picks:
        spec = trace.requests[idx % len(trace.requests)]

        def _cancel(now, rid=spec.request_id):
            req = sim._requests.get(rid)
            if req is not None and req.state in (
                RequestState.QUEUED, RequestState.RUNNING
            ):
                sim.cancel(req, now)

        sim.loop.schedule(spec.arrival_time + delay, _cancel)
    result = sim.run(trace)
    summary = (
        result.events_processed,
        result.finished_requests,
        result.failed_requests,
        result.tokens_generated,
        result.num_migrations,
        result.duration,
    )
    return result.requests, result.metrics, summary, sim


def _assert_composed_equivalent(fast, ref):
    frequests, fmetrics, fsummary, _ = fast
    rrequests, rmetrics, rsummary, _ = ref
    assert fsummary == rsummary
    assert _request_states(frequests) == _request_states(rrequests)
    assert fmetrics.registry.to_json() == rmetrics.registry.to_json()
    assert fmetrics.tokens == rmetrics.tokens
    assert fmetrics.gpu_batch_size == rmetrics.gpu_batch_size


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    topology=st.sampled_from(["cluster", "disagg"]),
    serve_frontend=st.booleans(),
    num_gpus=st.integers(min_value=2, max_value=4),
    max_batch=st.integers(min_value=2, max_value=6),
    rate=st.sampled_from([6.0, 10.0, 14.0]),
    duration=st.sampled_from([2.0, 3.5]),
    lora_rank=st.sampled_from([8, 16]),
    storm_picks=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.floats(min_value=0.05, max_value=1.5),
        ),
        max_size=10,
    ),
    fault_subset=st.sets(st.integers(min_value=0, max_value=2), max_size=3),
    spec=st.sampled_from(_SPEC_MENU),
)
def test_composed_untraced_differential(
    seed, topology, serve_frontend, num_gpus, max_batch, rate, duration,
    lora_rank, storm_picks, fault_subset, spec,
):
    """Disagg pools x faults x cancellation storms x serve admission,
    untraced: both paths must agree on every observable the run leaves
    behind."""
    fault_plan = [_FAULT_MENU[i] for i in sorted(fault_subset)]
    if num_gpus <= 2:
        # Disagg's decode pool (or a 2-GPU cluster) may not survive a
        # crash with work to compare afterwards.
        fault_plan = [f for f in fault_plan if f.kind is not FaultKind.GPU_CRASH]
    if serve_frontend and topology == "disagg":
        # The serve gateway drives the plain cluster scheduler; disagg
        # exercises its own handoff frontend instead.
        topology = "cluster"
    kwargs = dict(
        seed=seed, topology=topology, num_gpus=num_gpus, max_batch=max_batch,
        rate=rate, duration=duration, lora_rank=lora_rank,
        storm_picks=storm_picks, fault_plan=fault_plan,
        serve_frontend=serve_frontend, spec=spec,
    )
    fast = _build_composed(fast_path=True, **kwargs)
    ref = _build_composed(fast_path=False, **kwargs)
    _assert_composed_equivalent(fast, ref)


# ---------------------------------------------------------------------------
# Canary: the fast lanes must actually engage
# ---------------------------------------------------------------------------
def test_fast_lanes_engage():
    """A decode-heavy run must hit the steady lane, the inline coalescer
    and the plan cache — otherwise the differential suite would be
    comparing the reference path to itself."""
    trace = generate_trace(
        40, "skewed", seed=3,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=24),
        arrivals=PoissonArrivals(rate=constant_rate(10.0), duration=4.0),
    )
    engines = [
        GpuEngine(
            f"gpu{i:02d}",
            SimulatedBackend(LLAMA2_7B, fast_path=True),
            EngineConfig(max_batch_size=8),
            fast_path=True,
        )
        for i in range(2)
    ]
    sim = ClusterSimulator(engines, fast_path=True)
    sim.run(trace)
    assert sum(e.fast_steps for e in engines) > 0
    assert sum(e.slow_steps for e in engines) > 0
    assert sim.inline_steps > 0
    assert any(e._plan_cache.hits + e._plan_cache.misses > 0 for e in engines)


def test_spec_lane_engages_in_differential_workloads():
    """The canary for the spec dimension: an armed workload from the
    Hypothesis menu must actually run speculative rounds on both paths —
    otherwise the spec x faults x cancellation sweep is vacuous."""
    kwargs = dict(
        seed=9, num_gpus=2, max_batch=4, rate=8.0, duration=2.0,
        lora_rank=16, cancel_picks=[(3, 0.2)], fault_plan=[_FAULT_MENU[0]],
        spec=_SPEC_MENU[1],
    )
    for fast_path in (True, False):
        _, _, _, sim = _build_and_run(fast_path=fast_path, **kwargs)
        engines = list(sim.scheduler.engines.values())
        assert sum(e.spec_rounds for e in engines) > 0
        # Armed engines never take the one-token steady lane.
        assert all(e.fast_steps == 0 for e in engines)


def test_reference_path_never_engages_fast_lanes():
    trace = generate_trace(
        20, "skewed", seed=3,
        lengths=ShareGptLengths(max_prompt_len=32, max_response_len=12),
        arrivals=PoissonArrivals(rate=constant_rate(8.0), duration=2.0),
    )
    engines = [
        GpuEngine(
            "gpu00",
            SimulatedBackend(LLAMA2_7B, fast_path=False),
            EngineConfig(max_batch_size=8),
            fast_path=False,
        )
    ]
    sim = ClusterSimulator(engines, fast_path=False)
    sim.run(trace)
    assert engines[0].fast_steps == 0
    assert sim.inline_steps == 0
    assert engines[0]._plan_cache is None
