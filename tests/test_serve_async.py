"""End-to-end asyncio serving tests: the acceptance smoke for PR 6.

Every test here runs the full stack — asyncio TCP server, newline-framed
protocol, backend bridge, admission control — via :mod:`repro.serve.harness`
builders, driven by the load-generation client. ``REPRO_SERVE_SEED`` (CI
runs a small seed matrix) varies the request mix; assertions are
invariants, not golden values, because asyncio interleaving is not
reproducible even when the mix is.

The headline guarantees exercised:

* >= 100 concurrent streaming clients against the time-warped simulator;
* a client disconnect mid-stream reaches the engine as a CANCEL trace
  event with ``reason="disconnect"`` (both polite CancelOp and rude
  socket-abort variants);
* per-tenant rate limiting sheds the over-limit tenant without starving
  compliant ones;
* a slow reader backpressures only its own connection;
* the functional backend streams real, deterministic token ids.

No pytest-asyncio in the image: each test is a sync function running its
coroutine through ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.obs.tracer import EventKind
from repro.serve.client import LoadSpec, ServeClient, expand_plans
from repro.serve.harness import (
    build_functional_stack,
    build_sim_stack,
    run_load,
)
from repro.serve.limits import TenantPolicy
from repro.serve.protocol import CancelOp, ErrorFrame, GenerateOp

SEED = int(os.environ.get("REPRO_SERVE_SEED", "0"))


def run(coro):
    return asyncio.run(coro)


class TestConcurrentLoad:
    def test_hundred_concurrent_streaming_clients(self):
        """The acceptance floor: 100 clients stream concurrently against
        the simulator and every admitted stream runs to completion with
        exactly its requested number of tokens."""
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(num_clients=100, seed=SEED)
        summary, results = run(run_load(stack, spec))
        assert summary["clients"] == 100
        assert summary["by_status"] == {"finished": 100}
        for plan, result in zip(expand_plans(spec), results):
            assert result.num_tokens == plan.op.response_len
        reg = stack.metrics.registry
        assert reg.get("serve_requests_finished_total").total() == 100
        assert reg.get("serve_tokens_streamed_total").total() == summary["tokens"]
        assert reg.get("serve_active_streams").total() == 0
        assert reg.get("serve_active_connections").total() == 0

    def test_token_frames_are_ordered_and_indexed(self):
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(num_clients=16, seed=SEED)
        _, results = run(run_load(stack, spec))
        for result in results:
            assert result.status == "finished"
            assert result.num_tokens == len(result.tokens)


class TestCancellationStorm:
    def test_disconnect_mid_stream_reaches_engine_as_cancel(self):
        """A storm of mid-stream cancels (polite CancelOp) and rude socket
        aborts, over a time-warped simulator slow enough that responses
        are genuinely in flight when the disconnects land. Every cancel
        the client observed must appear at the engine boundary as a CANCEL
        trace event carrying ``reason="disconnect"``."""
        stack = build_sim_stack(warp=8.0, quantum=0.05)
        spec = LoadSpec(
            num_clients=100,
            response_len=(24, 48),
            cancel_fraction=0.15,
            abort_fraction=0.10,
            cancel_after=2,
            seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        by_status = summary["by_status"]
        assert by_status.get("finished", 0) > 0
        storm = by_status.get("cancelled", 0) + by_status.get("aborted", 0)
        assert storm > 0, f"no disconnects landed mid-stream: {by_status}"

        cancel_events = [
            e for e in stack.tracer.by_kind(EventKind.CANCEL)
            if e.attrs.get("reason") == "disconnect"
        ]
        cancelled_ids = {
            r.request_id for r in results if r.status in ("cancelled", "aborted")
        }
        traced_ids = {e.request_id for e in cancel_events}
        # Every client-observed cancellation that was still in flight shows
        # up at the engine; the engine never invents disconnects.
        assert traced_ids, "no CANCEL(reason=disconnect) reached the engine"
        assert traced_ids <= cancelled_ids
        # Exactly-once at the engine boundary.
        assert len(cancel_events) == len(traced_ids)

        reg = stack.metrics.registry
        assert reg.get("serve_client_cancels_total").total() == storm
        assert reg.get("serve_active_streams").total() == 0

    def test_cancelled_stream_stops_promptly(self):
        """After a CancelOp the client sees its EndFrame without having to
        drain the full response."""
        stack = build_sim_stack(warp=8.0)
        spec = LoadSpec(
            num_clients=12, response_len=(32, 48),
            cancel_fraction=1.0, cancel_after=2, seed=SEED,
        )
        _, results = run(run_load(stack, spec))
        for plan, result in zip(expand_plans(spec), results):
            if result.status == "cancelled":
                assert result.num_tokens < plan.op.response_len


class TestRateLimiting:
    def test_over_limit_tenant_sheds_without_starving_compliant(self):
        """One tenant gets a tight policy; the default stays permissive.
        The tight tenant is shed past its burst, the compliant tenants all
        finish, and sheds never consume engine capacity."""
        tight = TenantPolicy(rate=1.0, burst=3.0, max_inflight=4)
        stack = build_sim_stack(
            warp=None, tenant_policies={"greedy": tight},
        )
        spec = LoadSpec(
            num_clients=90,
            tenants=("greedy", "good-a", "good-b"),
            response_len=(4, 8),
            seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        shed = [r for r in results if r.status == "shed"]
        assert shed, "the greedy tenant was never shed"
        assert {r.tenant for r in shed} == {"greedy"}
        for r in results:
            if r.tenant != "greedy":
                assert r.status == "finished", (
                    f"compliant tenant starved: {r.tenant} -> {r.status}"
                )
        # Some greedy requests (the burst) do get through.
        assert any(
            r.tenant == "greedy" and r.status == "finished" for r in results
        )
        reg = stack.metrics.registry
        assert reg.get("serve_requests_shed_total").value(
            tenant="greedy", reason="rate_limited"
        ) == len(shed)
        # A shed connection never reached the scheduler: finished count
        # equals admitted count.
        assert (
            reg.get("serve_requests_finished_total").total()
            == reg.get("serve_requests_admitted_total").total()
        )


class TestSlowReaders:
    def test_slow_reader_does_not_stall_other_connections(self):
        """A fifth of the clients lag between reads (event-loop yields,
        not wall-clock sleeps — this test must not be load-sensitive).
        Everyone still finishes with a full response — the backend buffers
        into the slow streams' queues instead of blocking on their
        sockets."""
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(
            num_clients=60, response_len=(4, 16),
            slow_fraction=0.2, slow_yields=40, seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        assert summary["by_status"] == {"finished": 60}
        for plan, result in zip(expand_plans(spec), results):
            assert result.num_tokens == plan.op.response_len


class TestStaggeredStarts:
    def test_wave_ramp_is_event_driven_and_completes(self):
        """Client starts chained in waves of 8: wave k+1 connects only
        after wave k has. The ramp shape comes from causality, not
        timers, so the test is immune to machine load; every admitted
        stream still finishes with its full response."""
        stack = build_sim_stack(warp=None)
        spec = LoadSpec(
            num_clients=48, response_len=(4, 12), stagger=8, seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        assert summary["by_status"] == {"finished": 48}
        for plan, result in zip(expand_plans(spec), results):
            assert result.num_tokens == plan.op.response_len
        reg = stack.metrics.registry
        assert reg.get("serve_active_connections").total() == 0


class TestFunctionalBackend:
    def test_streams_real_deterministic_tokens(self):
        """The functional NumPy backend serves real argmax token ids:
        identical prompts through the same adapter yield identical
        streams regardless of asyncio interleaving."""
        async def scenario():
            stack = build_functional_stack(seed=SEED)
            await stack.server.start()
            try:
                prompt = (1, 2, 3, 4, 5, 6, 7, 8)

                async def one(rid: str, lora: str):
                    client = ServeClient("127.0.0.1", stack.server.port)
                    await client.connect()
                    try:
                        return await client.generate(
                            GenerateOp(
                                request_id=rid, tenant="t", lora_id=lora,
                                prompt_len=len(prompt), response_len=6,
                                prompt_tokens=prompt,
                            )
                        )
                    finally:
                        await client.close()

                return await asyncio.gather(
                    one("fa", "lora-0"), one("fb", "lora-0"),
                    one("fc", "lora-1"),
                )
            finally:
                await stack.server.stop()

        a, b, c = run(scenario())
        for r in (a, b, c):
            assert r.status == "finished"
            assert len(r.tokens) == 6
            assert all(0 <= t < 128 for t in r.tokens)
        # Same prompt + same adapter => same tokens, independent of timing.
        assert a.tokens == b.tokens

    def test_functional_load_with_cancels(self):
        stack = build_functional_stack(seed=SEED)
        spec = LoadSpec(
            num_clients=24, prompt_len=(4, 12), response_len=(8, 16),
            cancel_fraction=0.25, cancel_after=2, seed=SEED,
        )
        summary, results = run(run_load(stack, spec))
        assert summary["clients"] == 24
        assert set(summary["by_status"]) <= {"finished", "cancelled"}
        assert summary["by_status"].get("finished", 0) > 0
        reg = stack.metrics.registry
        assert reg.get("serve_active_streams").total() == 0


class TestServerProtocolErrors:
    def test_malformed_line_and_unknown_cancel(self):
        async def scenario():
            stack = build_sim_stack(warp=None)
            await stack.server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                from repro.serve.protocol import decode_frame, encode_frame
                bad = decode_frame(await reader.readline())
                writer.write(encode_frame(CancelOp(request_id="ghost")))
                await writer.drain()
                missing = decode_frame(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return bad, missing
            finally:
                await stack.server.stop()

        bad, missing = run(scenario())
        assert isinstance(bad, ErrorFrame) and bad.code == 400
        assert isinstance(missing, ErrorFrame) and missing.code == 404


class TestDuplicateRequestId:
    """A GenerateOp reusing a live request id gets one 409 for that id; the
    live stream, its admission slot and the connection are untouched."""

    @pytest.mark.parametrize("backend", ["sim", "functional"])
    def test_live_id_reuse_is_refused_with_409(self, backend):
        from repro.serve.protocol import (
            AcceptedFrame, EndFrame, TokenFrame, decode_frame, encode_frame,
        )

        op = GenerateOp(
            request_id="dup", tenant="t", lora_id="lora-0",
            prompt_len=8, response_len=12,
        )

        async def read_until_end(reader, rid, frames):
            while True:
                frame = decode_frame(await reader.readline())
                frames.append(frame)
                if isinstance(frame, EndFrame) and frame.request_id == rid:
                    return

        async def scenario():
            if backend == "sim":
                stack = build_sim_stack(warp=None)
                controller = stack.bridge.gateway.controller
            else:
                stack = build_functional_stack(seed=SEED)
                controller = stack.bridge.controller
            await stack.server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.server.port
                )
                # Both ops in one write: the server reads the second while
                # the first stream is certainly still open.
                writer.write(encode_frame(op) + encode_frame(op))
                await writer.drain()
                frames = []
                await read_until_end(reader, "dup", frames)
                inflight_after_first = controller.total_inflight
                # The connection still serves new streams.
                writer.write(encode_frame(GenerateOp(
                    request_id="next", tenant="t", lora_id="lora-0",
                    prompt_len=8, response_len=4,
                )))
                await writer.drain()
                later = []
                await read_until_end(reader, "next", later)
                writer.close()
                await writer.wait_closed()
                return frames, later, inflight_after_first, controller
            finally:
                await stack.server.stop()

        frames, later, inflight_after_first, controller = run(
            asyncio.wait_for(scenario(), timeout=60)
        )
        accepted = [f for f in frames if isinstance(f, AcceptedFrame)]
        errors = [f for f in frames if isinstance(f, ErrorFrame)]
        tokens = [f for f in frames if isinstance(f, TokenFrame)]
        assert [f.request_id for f in accepted] == ["dup"]
        assert [(f.request_id, f.code) for f in errors] == [("dup", 409)]
        assert [f.index for f in tokens] == list(range(op.response_len))
        assert frames[-1].status == "finished"
        assert frames[-1].num_tokens == op.response_len
        # The refused op took no slot: the one stream released the only one.
        assert inflight_after_first == 0
        assert isinstance(later[0], AcceptedFrame)
        assert later[-1].status == "finished"
        assert controller.total_inflight == 0

    @pytest.mark.parametrize("backend,reused", [("sim", False), ("functional", True)])
    def test_finished_id_reuse_per_bridge(self, backend, reused):
        """The simulator stack's ids are single-use (a finished id still gets
        409); the functional bridge takes only live ids, so it serves a
        finished id again."""
        from repro.serve.protocol import EndFrame, decode_frame, encode_frame

        op = GenerateOp(
            request_id="once", tenant="t", lora_id="lora-0",
            prompt_len=8, response_len=4,
        )

        async def scenario():
            if backend == "sim":
                stack = build_sim_stack(warp=None)
            else:
                stack = build_functional_stack(seed=SEED)
            await stack.server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", stack.server.port
                )
                writer.write(encode_frame(op))
                await writer.drain()
                while not isinstance(decode_frame(await reader.readline()), EndFrame):
                    pass
                writer.write(encode_frame(op))
                await writer.drain()
                second = decode_frame(await reader.readline())
                while not isinstance(second, (EndFrame, ErrorFrame)):
                    second = decode_frame(await reader.readline())
                writer.close()
                await writer.wait_closed()
                return second
            finally:
                await stack.server.stop()

        second = run(asyncio.wait_for(scenario(), timeout=60))
        if reused:
            assert isinstance(second, EndFrame) and second.status == "finished"
        else:
            assert isinstance(second, ErrorFrame) and second.code == 409
