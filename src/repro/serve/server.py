"""The asyncio serving frontend: newline-framed JSON over TCP.

:class:`ServeServer` accepts client connections, decodes
:mod:`repro.serve.protocol` frames, and drives a backend bridge
(:class:`~repro.serve.bridge.SimulatorBridge` or
:class:`~repro.serve.bridge.FunctionalBridge`):

* a :class:`~repro.serve.protocol.GenerateOp` is admitted (or shed with a
  429 :class:`~repro.serve.protocol.ErrorFrame`, or refused with a 409 when
  its request id is already taken); admitted streams get an
  :class:`~repro.serve.protocol.AcceptedFrame` and then token frames as
  the backend produces them, each connection multiplexing any number of
  concurrent streams by request id;
* a :class:`~repro.serve.protocol.CancelOp` cancels one stream;
* EOF on the socket with streams still open is a client disconnect: every
  open stream of that connection is cancelled, which propagates down to
  engine eviction (the trace shows CANCEL ``reason="disconnect"``).

One writer task per open stream pumps its update queue to the socket, so
a slow reader backpressures only its own connection (its queue buffers;
``drain()`` blocks only that task) and the backend clock never waits on a
client.
"""

from __future__ import annotations

import asyncio

from repro.serve.limits import Decision
from repro.serve.protocol import (
    AcceptedFrame,
    CancelOp,
    EndFrame,
    ErrorFrame,
    GenerateOp,
    TokenFrame,
    decode_frame,
    encode_frame,
)


class ServeServer:
    """Serve a bridge over TCP; ``port=0`` binds an ephemeral port."""

    def __init__(self, bridge, host: str = "127.0.0.1", port: int = 0):
        self.bridge = bridge
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None
        self._conn_tasks: "set[asyncio.Task]" = set()
        self._conn_writers: "set[asyncio.StreamWriter]" = set()

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the bridge pump and bind the listening socket."""
        await self.bridge.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drop live connections, stop the bridge.

        Connections are dropped by aborting their transports, not by
        cancelling their handler tasks: the handlers see EOF and run
        their own disconnect cleanup (stream cancellation included).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._conn_writers):
            writer.transport.abort()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self.bridge.stop()

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        streams: "dict[str, asyncio.Task]" = {}
        lock = asyncio.Lock()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ValueError as exc:
                    await self._send(writer, lock, ErrorFrame(
                        code=400, reason=str(exc),
                    ))
                    continue
                if isinstance(frame, GenerateOp):
                    await self._handle_generate(frame, writer, lock, streams)
                elif isinstance(frame, CancelOp):
                    if not self.bridge.cancel(frame.request_id):
                        await self._send(writer, lock, ErrorFrame(
                            request_id=frame.request_id, code=404,
                            reason="unknown request",
                        ))
                else:
                    await self._send(writer, lock, ErrorFrame(
                        code=400, reason="clients may only send operations",
                    ))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            # Disconnect: cancel every stream the client left open. The
            # writer tasks each receive their "end" update; they are then
            # cancelled since there is no one left to write to.
            for rid in list(streams):
                self.bridge.cancel(rid)
            for stream_task in streams.values():
                stream_task.cancel()
            if streams:
                await asyncio.gather(
                    *streams.values(), return_exceptions=True
                )
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._conn_tasks.discard(task)

    async def _handle_generate(
        self,
        op: GenerateOp,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        streams: "dict[str, asyncio.Task]",
    ) -> None:
        rid, queue, decision = self.bridge.open(op)
        if queue is None:
            await self._send(writer, lock, ErrorFrame(
                request_id=rid,
                code=409 if decision is Decision.DUPLICATE else 429,
                reason=decision.value,
            ))
            return
        await self._send(writer, lock, AcceptedFrame(request_id=rid))
        stream_task = asyncio.create_task(
            self._pump_stream(rid, queue, writer, lock, streams)
        )
        streams[rid] = stream_task

    async def _pump_stream(
        self,
        rid: str,
        queue: asyncio.Queue,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        streams: "dict[str, asyncio.Task]",
    ) -> None:
        """Forward one stream's updates until its end frame."""
        try:
            while True:
                update = await queue.get()
                if update.kind == "token":
                    await self._send(writer, lock, TokenFrame(
                        request_id=rid, token=update.token,
                        index=update.index, time=update.time,
                    ))
                else:
                    await self._send(writer, lock, EndFrame(
                        request_id=rid, status=update.status,
                        num_tokens=update.num_tokens,
                    ))
                    return
        except (ConnectionError, OSError):
            pass
        finally:
            streams.pop(rid, None)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, lock: asyncio.Lock, frame) -> None:
        """One frame, atomically: drain under the connection's lock so a
        slow socket cannot interleave half-written frames from concurrent
        stream tasks."""
        async with lock:
            writer.write(encode_frame(frame))
            await writer.drain()
