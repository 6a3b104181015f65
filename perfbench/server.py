"""Child process: one serving stack listening on loopback TCP.

Usage: ``python3 perfbench/server.py --workload NAME --seed N --trace 0|1
[--spans-out PATH]`` with ``src`` on ``PYTHONPATH``.

Prints ``READY <port>`` once the server listens, serves until its
standard input closes, then stops the server and prints
``REPORT <json>`` with its peak RSS and, when traced, the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys

from spans import SpanRecorder, install, layer_metrics
from stacks import build_functional_server, build_sim_server
from workloads import WORKLOADS


async def serve(server) -> None:
    await server.start()
    print(f"READY {server.port}", flush=True)
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    transport, _ = await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin
    )
    try:
        await stdin.read()  # until the parent closes our stdin
    finally:
        transport.close()
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("serve_lora_functional", "serve_sim_churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    rec = None
    if args.trace:
        rec = SpanRecorder()
        install(rec)
    if WORKLOADS[args.workload].backend == "functional":
        server, sim = build_functional_server(args.seed)
    else:
        server, sim = build_sim_server(args.seed)
    asyncio.run(serve(server))

    report = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if rec is not None:
        report["layers"] = layer_metrics(rec, loop=sim.loop if sim is not None else None)
        if args.spans_out:
            rec.write(args.spans_out)
    print("REPORT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
