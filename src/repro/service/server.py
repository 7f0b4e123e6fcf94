"""The live allocation server: JSON-lines over TCP or stdio, asyncio-driven.

:class:`AllocationServer` wraps one :class:`AllocationSession` behind an
``asyncio`` TCP listener. Slots advance on an **event trigger** by
default — every in-order ``update`` message is solved immediately — or
on a **wall-clock trigger** when ``tick_s`` is set: updates are buffered
(latest wins, superseded updates are answered as such) and a ticker task
solves the freshest one every tick, which is how a position feed faster
than the solver is downsampled instead of queued unboundedly.

Solves run in a thread-pool executor under a session lock, so the event
loop keeps accepting input (and serving ``/metrics`` via
:class:`repro.telemetry.exporters.MetricsEndpoint`) while the IPM is
working. The reply goes out as soon as the slot's decision path ends; the
slot's deferred, observation-only phase (``AllocationSession.settle``)
runs after it, still under the lock. :func:`serve_stdio` is the
transportless twin: a blocking JSON-lines loop over file objects, used by
``repro-edge serve --stdio`` and by pipelines that feed updates from a
file. See docs/SERVING.md.
"""

from __future__ import annotations

import asyncio
import sys
from typing import IO

from ..telemetry import get_registry
from ..telemetry.exporters import MetricsEndpoint
from .protocol import ProtocolError, encode, parse_message
from .session import AllocationSession

#: Longest accepted message line in bytes, not counting its newline.
#: asyncio's default stream limit (64 KiB) is below one update of a
#: 100k-user station vector; a longer line is answered with an error and
#: skipped.
LINE_LIMIT = 1 << 24


class AllocationServer:
    """Serve one allocation session over newline-delimited JSON on TCP.

    Attributes:
        session: the synchronous serving core (shared by every client —
            the protocol is stateful per *session*, not per connection).
        host: listen address.
        port: listen port (0 = pick a free one; read back after start).
        tick_s: wall-clock slot trigger period; ``None`` = event-driven.
        metrics_port: when not ``None``, also serve the active telemetry
            registry as OpenMetrics on ``GET /metrics`` at this port
            (0 = pick a free one; see ``metrics_endpoint.port``).
    """

    def __init__(
        self,
        session: AllocationSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        tick_s: float | None = None,
        metrics_port: int | None = None,
    ) -> None:
        if tick_s is not None and tick_s <= 0:
            raise ValueError("tick_s must be positive or None")
        self.session = session
        self.host = host
        self.port = port
        self.tick_s = tick_s
        self.metrics_port = metrics_port
        self.metrics_endpoint: MetricsEndpoint | None = None
        self._server: asyncio.AbstractServer | None = None
        self._lock: asyncio.Lock | None = None
        self._ticker: asyncio.Task | None = None
        # Connection handlers still running, cancelled by stop().
        self._clients: set[asyncio.Task] = set()
        # Latest buffered (message, writer) awaiting the next tick.
        self._pending: tuple[dict, asyncio.StreamWriter] | None = None

    # ----- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener (and the metrics endpoint / ticker, if any)."""
        self._lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=LINE_LIMIT
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.metrics_port is not None:
            self.metrics_endpoint = MetricsEndpoint(
                host=self.host, port=self.metrics_port
            )
            await self.metrics_endpoint.start()
        if self.tick_s is not None:
            self._ticker = asyncio.create_task(self._tick_loop())

    async def stop(self) -> None:
        """Close the listener, the connections, the ticker and the metrics
        endpoint.

        A slot whose deferred phase has not run yet is settled first. The
        connection handlers and the ticker are cancelled while the session
        lock is held, so none of them is interrupted inside a slot.
        """
        if self._server is not None:
            self._server.close()
        tasks: set[asyncio.Task] = set()
        if self._lock is not None:
            async with self._lock:
                await asyncio.get_running_loop().run_in_executor(
                    None, self.session.settle
                )
                tasks = set(self._clients)
                if self._ticker is not None:
                    tasks.add(self._ticker)
                for task in tasks:
                    task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        self._ticker = None
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.metrics_endpoint is not None:
            await self.metrics_endpoint.stop()
            self.metrics_endpoint = None

    async def serve_forever(self) -> None:
        """Start (if needed) and block until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ----- request handling ---------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._clients.add(task)
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    get_registry().counter("service.protocol.rejected").inc()
                    await self._reply(
                        writer,
                        {
                            "type": "error",
                            "error": f"line exceeds {LINE_LIMIT} bytes",
                            "expected_slot": self.session.expected_slot,
                        },
                    )
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                await self._dispatch(line, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # stop() (or loop shutdown) ends the connection. Returning
            # normally keeps the stream protocol's done-callback, which
            # calls task.exception() on Python 3.11, from logging it.
            pass
        finally:
            self._clients.discard(task)
            # close() is enough here: awaiting wait_closed() in a handler
            # races loop shutdown (asyncio.run cancels handlers mid-await).
            writer.close()

    async def _dispatch(self, line: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            message = parse_message(line)
        except ProtocolError as exc:
            get_registry().counter("service.protocol.rejected").inc()
            await self._reply(
                writer,
                {
                    "type": "error",
                    "error": str(exc),
                    "expected_slot": self.session.expected_slot,
                },
            )
            return
        if self.tick_s is not None and message.get("type") == "update":
            superseded = self._pending
            self._pending = (message, writer)
            if superseded is not None:
                old_message, old_writer = superseded
                get_registry().counter("service.updates.superseded").inc()
                await self._reply(
                    old_writer,
                    {
                        "type": "superseded",
                        "slot": old_message.get("slot"),
                        "expected_slot": self.session.expected_slot,
                    },
                )
            return
        await self._serve_locked(message, writer)

    async def _serve_locked(
        self, message: dict, writer: asyncio.StreamWriter
    ) -> None:
        """Handle one message, reply, then settle the slot, under the lock.

        The session's decision path runs in the executor and its reply is
        written and drained before the slot's deferred phase
        (``session.settle``) runs, also in the executor. The lock spans
        all three, so a message that arrives meanwhile waits for the
        deferred phase and is answered in order.
        """
        assert self._lock is not None
        loop = asyncio.get_running_loop()
        async with self._lock:
            reply = await loop.run_in_executor(None, self.session.handle, message)
            await self._reply(writer, reply)
            await loop.run_in_executor(None, self.session.settle)

    async def _tick_loop(self) -> None:
        """Wall-clock slot trigger: solve the freshest buffered update."""
        assert self.tick_s is not None
        while True:
            await asyncio.sleep(self.tick_s)
            pending = self._pending
            self._pending = None
            if pending is None:
                continue
            message, writer = pending
            await self._serve_locked(message, writer)

    @staticmethod
    async def _reply(writer: asyncio.StreamWriter, reply: dict) -> None:
        if writer.is_closing():
            return
        try:
            writer.write(encode(reply))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line (``b""`` at EOF), or ``None`` if it overran the limit.

    An over-limit line is discarded through its newline, so the stream
    stays framed and the connection keeps serving.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


def serve_stdio(
    session: AllocationSession,
    in_stream: IO[str] | None = None,
    out_stream: IO[str] | None = None,
) -> int:
    """Blocking JSON-lines loop over file objects (stdin/stdout by default).

    Reads one message per line, writes and flushes one reply per line and
    then settles the slot, returns the number of slots served when the
    input stream ends. Protocol errors are answered and the loop
    continues — a torn line never kills the session.
    """
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    for line in in_stream:
        if not line.strip():
            continue
        reply = session.handle_line(line)
        out_stream.write(encode(reply).decode("utf-8"))
        out_stream.flush()
        session.settle()
    return session.stepper.processed
