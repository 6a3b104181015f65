"""Child process: one offline replay of the cluster simulator.

Usage: ``python3 perfbench/replay.py --seed N --trace 0|1
[--spans-out PATH]`` with ``src`` on ``PYTHONPATH``.

Prints ``READY`` once the trace is generated and the cluster built, then
runs the simulation and prints ``REPORT <json>`` with the host time, every
finished request's modelled TTFT and time per output token, the output
checks and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

from spans import SpanRecorder, install, layer_metrics
from workloads import REPLAY


def modelled(requests) -> dict:
    """Modelled latencies (ms) and a digest of every request's timestamps."""
    from repro.runtime.request import RequestState

    finished = [r for r in requests if r.state is RequestState.FINISHED]
    ttft = [r.time_to_first_token() * 1e3 for r in finished]
    tpot = [
        r.decode_time() / (r.num_generated - 1) * 1e3
        for r in finished if r.num_generated > 1
    ]
    good = sum(
        1 for r in finished
        if r.time_to_first_token() * 1e3 <= REPLAY.ttft_limit_ms
        and (r.num_generated < 2
             or r.decode_time() / (r.num_generated - 1) * 1e3 <= REPLAY.itl_limit_ms)
    )
    digest = hashlib.sha256()
    for r in requests:
        digest.update(repr((
            r.request_id, r.state.value, r.first_token_time, r.finish_time,
            r.num_generated, r.num_migrations,
        )).encode())
    return {"ttft_ms": ttft, "tpot_ms": tpot, "good": good, "digest": digest.hexdigest()}


def check(result, trace) -> "list[str]":
    """Output checks of one replay; returns the failures."""
    from repro.runtime.request import RequestState

    problems = []
    states = [r.state for r in result.requests]
    if len(states) != len(trace):
        problems.append(f"{len(states)} requests in the result for {len(trace)} in the trace")
    live = [r.request_id for r in result.requests if not r.state.is_terminal]
    if live:
        problems.append(f"{len(live)} requests not in a terminal state, e.g. {live[0]}")
    finished = [r for r in result.requests if r.state is RequestState.FINISHED]
    expected = sum(r.spec.response_len for r in finished)
    if result.tokens_generated != expected:
        problems.append(
            f"tokens generated {result.tokens_generated} != summed response "
            f"lengths of finished requests {expected}"
        )
    short = [r.request_id for r in finished if r.num_generated != r.spec.response_len]
    if short:
        problems.append(f"{len(short)} finished requests with a wrong token count")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    rec = None
    if args.trace:
        rec = SpanRecorder()
        install(rec)
    from repro.bench.fig13_cluster import build_cluster
    from repro.workloads.scale import FIG13_1M, scale_trace

    trace = scale_trace(FIG13_1M, fraction=REPLAY.fraction, seed=args.seed)
    sim = build_cluster(FIG13_1M.num_gpus, max_batch_size=FIG13_1M.max_batch_size)
    print("READY", flush=True)

    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = sim.run(trace)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    report = {
        "requests": len(trace),
        "wall_s": wall,
        "cpu_s": cpu,
        "events": result.events_processed,
        "problems": check(result, trace),
        **modelled(result.requests),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        report["layers"] = layer_metrics(rec, loop=sim.loop)
        if args.spans_out:
            rec.write(args.spans_out)
    print("REPORT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
