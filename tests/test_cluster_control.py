"""Tests for the SLO-aware control plane (docs/slo.md).

Covers the three threads over the shared cost model: deadline-headroom
admission/routing (with provable-hopelessness shedding), heterogeneous
per-role fitness on mixed HwSpec fleets, and the EWMA predictive
autoscaler with its warm-up-aware shrink. The disaggregated variant's
EDF decode queue and its shed guard round out the matrix.
"""

import types

import pytest

from repro.cluster.control import (
    ControlConfig,
    EwmaForecast,
    FleetCostModel,
    PredictiveConfig,
    PredictiveElasticSimulator,
    SloClusterSimulator,
    SloDisaggSimulator,
    SloPolicy,
    SloRouter,
    install_slo_router,
    score_requests,
    slo_attainment,
)
from repro.cluster.elastic import ElasticConfig
from repro.cluster.simulator import ClusterSimulator
from repro.hw.spec import HwSpec
from repro.models.config import LLAMA2_7B
from repro.obs.tracer import EventKind, Tracer
from repro.runtime.backend import SimulatedBackend
from repro.runtime.engine import EngineConfig, GpuEngine
from repro.runtime.request import Request, RequestState
from repro.workloads.arrivals import PoissonArrivals, constant_rate
from repro.workloads.lengths import ShareGptLengths
from repro.workloads.trace import RequestSpec, generate_trace


def make_engine(gpu_id, preset="a100-80g", max_batch=4, step_overhead=0.0):
    return GpuEngine(
        gpu_id,
        SimulatedBackend(
            LLAMA2_7B, gpu=HwSpec.preset(preset), step_overhead=step_overhead
        ),
        EngineConfig(max_batch_size=max_batch),
    )


def make_request(rid, arrival=0.0, prompt=64, response=8, lora="lora-0"):
    return Request(spec=RequestSpec(rid, lora, arrival, prompt, response))


def make_trace(seed=0, n=40, rate=8.0, duration=4.0, prompt=64, response=8):
    return generate_trace(
        n, "skewed", seed=seed,
        lengths=ShareGptLengths(max_prompt_len=prompt, max_response_len=response),
        arrivals=PoissonArrivals(rate=constant_rate(rate), duration=duration),
    )


class TestConfig:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(ttft_deadline=0.0)
        with pytest.raises(ValueError):
            SloPolicy(itl_deadline=-0.1)

    def test_per_tenant_policy_lookup(self):
        premium = SloPolicy(ttft_deadline=0.1, itl_deadline=0.01)
        cfg = ControlConfig(per_tenant={"lora-vip": premium})
        assert cfg.policy_for("lora-vip") is premium
        assert cfg.policy_for("lora-other") is cfg.default_policy

    def test_predictive_validation(self):
        with pytest.raises(ValueError):
            PredictiveConfig(ewma_alpha=0.0)
        with pytest.raises(ValueError):
            PredictiveConfig(ewma_alpha=1.5)
        with pytest.raises(ValueError):
            PredictiveConfig(service_rate_per_gpu=0.0)
        with pytest.raises(ValueError):
            PredictiveConfig(headroom_fraction=-0.1)


class TestEwmaForecast:
    def test_primes_on_first_sample(self):
        f = EwmaForecast(alpha=0.5)
        assert f.update(10.0) == 10.0

    def test_smooths_toward_samples(self):
        f = EwmaForecast(alpha=0.5)
        f.update(0.0)
        assert f.update(8.0) == 4.0
        assert f.update(8.0) == 6.0

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            EwmaForecast(alpha=0.0)


class TestFleetCostModel:
    def test_h100_prefill_beats_l4(self):
        cost = FleetCostModel()
        req = make_request("r", prompt=768)
        h100 = make_engine("h", preset="h100")
        l4 = make_engine("l", preset="l4")
        assert cost.predict_ttft(h100, req) < cost.predict_ttft(l4, req)

    def test_bandwidth_rules_decode(self):
        cost = FleetCostModel()
        req = make_request("r", prompt=512)
        a100 = make_engine("a", preset="a100-80g")
        l4 = make_engine("l", preset="l4")
        # Decode is memory-bound: 1935 GB/s vs 300 GB/s.
        assert cost.predict_itl(a100, req) < cost.predict_itl(l4, req)

    def test_load_stall_by_residency_tier(self):
        cost = FleetCostModel()
        req = make_request("r")
        for tier, expected in (
            (2, 0.0),
            (1, cost.host_load_seconds),
            (0, cost.disk_load_seconds),
        ):
            engine = types.SimpleNamespace(adapter_tier=lambda _l, t=tier: t)
            assert cost.load_stall(engine, req) == expected

    def test_optimistic_floor_is_a_lower_bound_and_cached(self):
        cost = FleetCostModel()
        engine = make_engine("g")
        req = make_request("r", prompt=256)
        floor = cost.optimistic_floor(engine, req)
        assert 0.0 < floor <= cost.predict_ttft(engine, req)
        # Busy the engine: the floor must not move (it is state-free).
        engine.add_request(make_request("other", prompt=256), 0.0)
        assert cost.optimistic_floor(engine, req) == floor
        assert cost.predict_ttft(engine, req) > floor

    def test_estimate_headroom_goes_negative_past_deadline(self):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=0.05)
        )
        cost = FleetCostModel(control)
        engine = make_engine("g")
        est = cost.estimate(engine, make_request("r", arrival=0.0), now=10.0)
        assert est.ttft_headroom < 0
        assert est.fitness < 0

    def test_fleet_cost_sums_presets_and_defaults_unpriced_specs(self):
        engines = [
            make_engine("h", preset="h100"),
            make_engine("l", preset="l4"),
        ]
        assert FleetCostModel.fleet_cost_per_hour(engines) == pytest.approx(2.25)
        plain = GpuEngine(
            "p", SimulatedBackend(LLAMA2_7B), EngineConfig(max_batch_size=2)
        )
        assert FleetCostModel.engine_cost_per_hour(plain) == 1.0


class TestSloRouter:
    def _router(self, engines, ttft=100.0, itl=1.0, tracer=None):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=ttft, itl_deadline=itl)
        )
        return SloRouter(engines, tracer=tracer, control=control)

    def test_prefill_heavy_request_routes_to_the_h100(self):
        router = self._router(
            [make_engine("l4-0", preset="l4"), make_engine("h100-0", preset="h100")]
        )
        gpu = router.submit(make_request("r", prompt=768), 0.0)
        assert gpu == "h100-0"

    def test_decode_admission_prefers_bandwidth(self):
        router = self._router(
            [make_engine("l4-0", preset="l4"), make_engine("a100-0")]
        )
        assert router.route_decode(make_request("r", prompt=512), 512) == "a100-0"

    def test_queue_drains_in_deadline_order_not_fcfs(self):
        tracer = Tracer()
        blocker = make_engine("g0", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        router = self._router([blocker], ttft=100.0, tracer=tracer)
        # Submit the *later* deadline first: FCFS would drain it first,
        # EDF must not.
        late = make_request("late", arrival=5.0)
        early = make_request("early", arrival=1.0)
        assert router.submit(late, 6.0) is None
        assert router.submit(early, 6.0) is None
        assert router.queue_depth == 2
        router.add_engine(make_engine("g1", max_batch=4))
        placed = router.drain_queue(7.0)
        assert placed == ["g1", "g1"]
        admits = [
            e.request_id for e in tracer.by_kind(EventKind.SLO_ADMIT)
        ]
        assert admits == ["early", "late"]

    def test_negative_headroom_still_places_best_effort(self):
        router = self._router([make_engine("g")], ttft=0.001)
        req = make_request("r", prompt=512)
        assert router.submit(req, 0.0) == "g"
        assert req.state is RequestState.RUNNING
        assert router.num_slo_sheds == 0

    def test_hopeless_request_is_shed_not_queued(self):
        tracer = Tracer()
        blocker = make_engine("g", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        router = self._router([blocker], ttft=0.5, tracer=tracer)
        req = make_request("r", arrival=0.0)
        assert router.submit(req, 10.0) is None
        assert req.state is RequestState.FAILED
        assert router.num_slo_sheds == 1
        assert router.queue_depth == 0
        sheds = tracer.by_kind(EventKind.SLO_SHED)
        assert [e.request_id for e in sheds] == ["r"]
        assert sheds[0].attrs["reason"] == "deadline_infeasible"
        assert sheds[0].attrs["budget"] < 0

    def test_queued_request_sheds_once_budget_drops_below_floor(self):
        blocker = make_engine("g", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        router = self._router([blocker], ttft=2.0)
        req = make_request("r", arrival=0.0)
        router.submit(req, 0.1)
        assert router.queue_depth == 1
        router.drain_queue(50.0)
        assert req.state is RequestState.FAILED
        assert router.num_slo_sheds == 1

    def test_shedding_can_be_disabled(self):
        blocker = make_engine("g", max_batch=1)
        blocker.add_request(make_request("hog"), 0.0)
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=1.0),
            shed_infeasible=False,
        )
        router = SloRouter([blocker], control=control)
        req = make_request("r", arrival=0.0)
        assert router.submit(req, 10.0) is None
        assert req.state is not RequestState.FAILED
        assert router.queue_depth == 1

    def test_install_guard_rejects_live_queues(self):
        sim = ClusterSimulator([make_engine("g", max_batch=1)])
        sim.scheduler.engines["g"].add_request(make_request("hog"), 0.0)
        sim.scheduler.submit(make_request("r"), 0.0)
        assert sim.scheduler.queue_depth == 1
        with pytest.raises(RuntimeError, match="before submitting"):
            install_slo_router(sim)


class TestSloClusterSimulator:
    def test_attainment_recorded_and_matches_helper(self):
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=1.0, itl_deadline=0.25)
        )
        sim = SloClusterSimulator(
            [make_engine(f"g{i}") for i in range(2)], control=control
        )
        result = sim.run(make_trace())
        assert result.requests
        recorded = sim.metrics.slo_attainment()
        assert recorded == pytest.approx(
            slo_attainment(result.requests, control, result.duration)
        )
        assert (
            sim.metrics.slo_attained_count() + sim.metrics.slo_missed_count()
            == len(result.requests)
        )

    def test_deterministic(self):
        def run():
            tracer = Tracer()
            sim = SloClusterSimulator(
                [make_engine(f"g{i}", step_overhead=0.01) for i in range(2)],
                tracer=tracer,
            )
            sim.run(make_trace(rate=12.0))
            return tracer.dumps_jsonl()

        assert run() == run()

    def test_cancelled_requests_are_not_scored(self):
        control = ControlConfig()
        req = make_request("r")
        req.mark_cancelled()
        assert score_requests([req], control, 1.0) == []
        assert slo_attainment([req], control, 1.0) == 0.0


class TestPredictiveAutoscaler:
    def _sim(self, tracer=None, **cfg):
        defaults = dict(
            min_gpus=1, max_gpus=4, provision_delay=1.0,
            release_idle_after=0.5, check_interval=0.5,
        )
        defaults.update(cfg)
        return PredictiveElasticSimulator(
            lambda gid: make_engine(gid, max_batch=4),
            elastic_config=ElasticConfig(**defaults),
            predictive=PredictiveConfig(service_rate_per_gpu=2.0),
            tracer=tracer,
        )

    def test_burst_grows_the_pool_ahead_of_the_queue(self):
        tracer = Tracer()
        sim = self._sim(tracer=tracer)
        result = sim.run_elastic(make_trace(rate=12.0, duration=3.0))
        assert result.scale_ups > 0
        ups = tracer.by_kind(EventKind.SCALE_UP)
        assert ups and all(e.attrs["forecast"] > 0 for e in ups)
        # Forecast sizing can add several GPUs in one decision.
        assert sum(e.attrs["add"] for e in ups) == result.scale_ups

    def test_drain_tail_releases_back_to_the_floor(self):
        tracer = Tracer()
        sim = self._sim(tracer=tracer)
        result = sim.run_elastic(make_trace(rate=12.0, duration=2.0))
        assert result.releases > 0
        assert len(sim.scheduler.engines) == 1
        downs = tracer.by_kind(EventKind.SCALE_DOWN)
        assert len(downs) == result.releases
        assert all(e.gpu_id is not None for e in downs)

    def test_warm_up_veto_blocks_immediate_release(self):
        # Grace period far below the provisioning delay: without the
        # warm-up veto every landed GPU would be released the tick after
        # its burst passed, before amortizing its provisioning cost.
        sim = self._sim(provision_delay=2.0, release_idle_after=0.1)
        result = sim.run_elastic(make_trace(rate=12.0, duration=2.0))
        closed = [l for l in result.leases if l.end is not None]
        assert closed, "expected the drain tail to release grown GPUs"
        for lease in closed:
            assert lease.end - lease.start >= 2.0

    def test_deterministic(self):
        r1 = self._sim().run_elastic(make_trace(seed=3, rate=12.0))
        r2 = self._sim().run_elastic(make_trace(seed=3, rate=12.0))
        assert r1.gpu_seconds() == r2.gpu_seconds()
        assert r1.scale_ups == r2.scale_ups


class TestSloDisagg:
    def test_late_waiters_shed_but_delivered_requests_keep_their_place(self):
        from repro.hw.interconnect import InterconnectSpec

        slow_wire = InterconnectSpec(
            name="slow", bus_bandwidth=1e9, latency=0.6
        )
        from repro.cluster.disagg import DisaggConfig

        tracer = Tracer()
        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=1.0)
        )
        sim = SloDisaggSimulator(
            [make_engine("p0")], [make_engine("d0")],
            control=control,
            config=DisaggConfig(interconnect=slow_wire),
            tracer=tracer,
        )
        result = sim.run(make_trace(n=6, rate=4.0, duration=1.0))
        # Every handoff lands after the 0.6 s wire beats the 0.5 s TTFT
        # deadline: all first-token waiters are shed at the EDF drain.
        sheds = tracer.by_kind(EventKind.SLO_SHED)
        assert sheds
        shed_ids = {e.request_id for e in sheds}
        for req in result.requests:
            if req.request_id in shed_ids:
                assert req.state is RequestState.FAILED
        assert sim.metrics.slo_shed_count() == len(sheds)

    def test_drain_guard_never_sheds_a_delivered_request(self):
        import heapq

        control = ControlConfig(
            default_policy=SloPolicy(ttft_deadline=0.5, itl_deadline=1.0)
        )
        sim = SloDisaggSimulator(
            [make_engine("p0")], [make_engine("d0")], control=control
        )
        # Simulate a re-transfer after a mid-decode migration: the waiter
        # already has its first token, so however late the clock runs the
        # EDF drain must route it instead of shedding.
        req = make_request("r", prompt=16, response=8)
        req.needs_prefill = False
        req.mark_running("p0", 0.0)
        req.first_token_time = 0.2
        heapq.heappush(sim._decode_queue, (10.0, 0, req, 16))
        handled = sim._drain_decode_queue(10.0)
        assert handled == ["r"]
        assert req.state is not RequestState.FAILED
        assert sim.scheduler.engines["d0"].has_request("r")

    def test_deterministic(self):
        def run():
            tracer = Tracer()
            sim = SloDisaggSimulator(
                [make_engine("p0"), make_engine("p1")],
                [make_engine("d0"), make_engine("d1")],
                control=ControlConfig(
                    default_policy=SloPolicy(
                        ttft_deadline=0.8, itl_deadline=0.25
                    )
                ),
                tracer=tracer,
            )
            sim.run(make_trace(rate=10.0))
            return tracer.dumps_jsonl()

        assert run() == run()
