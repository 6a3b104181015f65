"""Open-loop, demultiplexing load generator for the serving stack.

One asyncio loop sends every planned stream at its due time, whatever the
server is doing, over a few shared TCP connections; a reader per
connection routes each frame to its stream by request id. Every stream
is timed from its due time, so a late send shows up as latency, and the
generator records how late it ran.

The wire format is the server's newline-delimited JSON
(``repro.serve.protocol``), spoken directly with :mod:`json` so the load
side imports nothing of the program under test.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

from workloads import PlannedRequest


@dataclass
class StreamResult:
    """What the client saw of one stream."""

    plan: PlannedRequest
    due: float = 0.0
    sent: float = 0.0
    accepted: bool = False
    token_times: "list[float]" = field(default_factory=list)
    tokens: "list[int]" = field(default_factory=list)
    indices: "list[int]" = field(default_factory=list)
    end_status: "str | None" = None
    end_tokens: int = 0
    end_time: float = 0.0
    error: "str | None" = None
    """Reason of an error frame other than the 404 reply to our cancel."""
    timed_out: bool = False
    """No end frame before the drain timeout."""
    disconnected: bool = False
    """The connection closed before the end frame."""
    connection: int = 0
    cancel_sent: "float | None" = None
    cancel_unknown: bool = False
    """The server answered our cancel with 404: the stream had already ended."""
    frames_after_end: int = 0
    """Frames after the end frame, other than the 404 reply to our cancel."""

    @property
    def refused(self) -> bool:
        """Shed by the server (error frame) before it accepted the stream."""
        return self.error is not None and not self.accepted

    @property
    def done(self) -> bool:
        return self.end_status is not None or self.refused or self.disconnected

    @property
    def failed(self) -> bool:
        """Failed, shed, errored, or ended without the client asking."""
        if self.error is not None:
            return True
        if self.end_status is None:
            return True
        if self.end_status == "cancelled":
            return self.cancel_sent is None
        return self.end_status != "finished"

    @property
    def ttft(self) -> "float | None":
        return self.token_times[0] - self.due if self.token_times else None

    @property
    def mean_itl(self) -> "float | None":
        if len(self.token_times) < 2:
            return None
        return (self.token_times[-1] - self.token_times[0]) / (len(self.token_times) - 1)


class LoadGenerator:
    """Send ``plan`` open-loop to ``host:port`` over ``connections`` sockets."""

    def __init__(self, host: str, port: int, plan: "list[PlannedRequest]",
                 connections: int, drain_timeout: float, probe=None):
        self.host = host
        self.port = port
        self.plan = plan
        self.connections = max(1, connections)
        self.drain_timeout = drain_timeout
        self.results = {p.request_id: StreamResult(plan=p) for p in plan}
        self.lags: "list[float]" = []
        self.stray_frames = 0
        """Frames naming no stream of this run, or none at all."""
        self.probe = probe
        self.measured_probe = None
        """``probe()`` taken as the first measured stream was sent."""
        self._open = len(plan)
        self._all_done: "asyncio.Event | None" = None
        self._writers: "list[asyncio.StreamWriter]" = []
        self._closing = False

    async def run(self) -> "list[StreamResult]":
        self._all_done = asyncio.Event()
        streams = [await asyncio.open_connection(self.host, self.port)
                   for _ in range(self.connections)]
        self._writers = [w for _, w in streams]
        readers = [asyncio.create_task(self._read(i, r, w))
                   for i, (r, w) in enumerate(streams)]
        try:
            await self._send_all()
            try:
                await asyncio.wait_for(self._all_done.wait(), self.drain_timeout)
            except asyncio.TimeoutError:
                pass
        finally:
            self._closing = True
            for w in self._writers:
                w.close()
            for task in readers:
                task.cancel()
            await asyncio.gather(*readers, return_exceptions=True)
        for res in self.results.values():
            res.timed_out = not res.done
        return [self.results[p.request_id] for p in self.plan]

    async def _send_all(self) -> None:
        start = time.perf_counter()
        for i, p in enumerate(self.plan):
            res = self.results[p.request_id]
            res.due = start + p.due
            wait = res.due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            res.connection = i % self.connections
            if p.phase == "measured" and self.measured_probe is None and self.probe:
                self.measured_probe = self.probe()
            res.sent = time.perf_counter()
            self.lags.append(res.sent - res.due)
            writer = self._writers[res.connection]
            try:
                writer.write(_line(p.generate_op()))
                await writer.drain()
            except ConnectionError:
                self._disconnect(res.connection)

    def _finish(self) -> None:
        self._open -= 1
        if self._open == 0:
            self._all_done.set()

    def _disconnect(self, connection: int) -> None:
        """The server closed ``connection``: its open streams end here."""
        if self._closing:
            return
        for res in self.results.values():
            if res.connection == connection and res.sent and not res.done:
                res.disconnected = True
                self._finish()

    async def _read(self, connection: int, reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                line = await reader.readline()
            except ConnectionError:
                line = b""
            if not line:
                self._disconnect(connection)
                return
            now = time.perf_counter()
            frame = json.loads(line)
            res = self.results.get(frame.get("request_id", ""))
            if res is None:
                self.stray_frames += 1
                continue
            event = frame.get("event")
            if event == "error" and frame.get("code") == 404 and res.cancel_sent is not None:
                # The stream had already ended when our cancel arrived.
                res.cancel_unknown = True
                continue
            if res.end_status is not None or res.refused:
                res.frames_after_end += 1
                continue
            if event == "accepted":
                res.accepted = True
            elif event == "token":
                res.token_times.append(now)
                res.tokens.append(frame["token"])
                res.indices.append(frame["index"])
                n = res.plan.cancel_after
                if n is not None and res.cancel_sent is None and len(res.tokens) >= n:
                    res.cancel_sent = time.perf_counter()
                    writer.write(_line({"op": "cancel", "request_id": res.plan.request_id}))
            elif event == "end":
                res.end_status = frame["status"]
                res.end_tokens = frame["num_tokens"]
                res.end_time = now
                self._finish()
            elif event == "error":
                res.error = frame.get("reason", "error")
                if not res.accepted:
                    self._finish()
            else:
                self.stray_frames += 1


def _line(obj: dict) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def run_load(host: str, port: int, plan, connections: int, drain_timeout: float, probe=None):
    gen = LoadGenerator(host, port, plan, connections, drain_timeout, probe)
    results = asyncio.run(gen.run())
    return gen, results
