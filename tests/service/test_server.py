"""AllocationServer end to end: TCP, tick mode, stdio, and /metrics.

Plain ``asyncio.run`` drives the async parts (no pytest-asyncio
dependency); every server binds port 0 so tests never collide.
"""

import asyncio
import io
import json

from repro.service import (
    AllocationServer,
    AllocationSession,
    ServiceConfig,
    encode,
    observation_to_update,
    serve_stdio,
)
from repro.service import server as server_module
from repro.telemetry import telemetry_session


async def _send(reader, writer, message: dict) -> dict:
    writer.write(encode(message))
    await writer.drain()
    return json.loads(await reader.readline())


class TestTcpServer:
    def test_hello_updates_and_errors_over_one_connection(self, tiny_stream):
        system, observations = tiny_stream

        async def scenario():
            server = AllocationServer(
                AllocationSession(system, ServiceConfig())
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                welcome = await _send(reader, writer, {"type": "hello"})
                assert welcome["type"] == "welcome"
                assert welcome["expected_slot"] == 0

                for index, observation in enumerate(observations[:3]):
                    reply = await _send(
                        reader, writer, observation_to_update(observation)
                    )
                    assert reply["type"] == "slot_result"
                    assert reply["slot"] == index

                # A torn line is answered, the connection stays usable.
                writer.write(b'{"type": "upda\n')
                await writer.drain()
                error = json.loads(await reader.readline())
                assert error["type"] == "error"
                assert error["expected_slot"] == 3

                reply = await _send(
                    reader, writer, observation_to_update(observations[3])
                )
                assert reply["type"] == "slot_result" and reply["slot"] == 3

                stats = await _send(reader, writer, {"type": "stats"})
                assert stats["slots"] == 4
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_tick_mode_supersedes_stale_updates(self, tiny_stream):
        system, observations = tiny_stream

        async def scenario():
            server = AllocationServer(
                AllocationSession(system, ServiceConfig()), tick_s=0.25
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                # Two updates for slot 0 inside one tick: the first is
                # displaced (latest wins), the second is solved at the tick.
                first = observation_to_update(observations[0])
                second = dict(first)
                writer.write(encode(first) + encode(second))
                await writer.drain()
                superseded = json.loads(await reader.readline())
                assert superseded["type"] == "superseded"
                assert superseded["slot"] == 0
                solved = json.loads(await reader.readline())
                assert solved["type"] == "slot_result" and solved["slot"] == 0
                writer.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_over_limit_line_is_rejected_and_the_connection_survives(
        self, tiny_stream, monkeypatch
    ):
        system, observations = tiny_stream
        update = observation_to_update(observations[0])
        limit = 2 * len(encode(update))
        monkeypatch.setattr(server_module, "LINE_LIMIT", limit)
        # Both overrun shapes: a line asyncio buffers whole before it finds
        # the newline past the limit, and one far longer than the buffer.
        oversized = [
            encode({"type": "update", "pad": "x" * limit}),
            encode({"type": "update", "pad": "x" * (20 * limit)}),
        ]

        async def scenario():
            server = AllocationServer(
                AllocationSession(system, ServiceConfig())
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                for line in oversized:
                    writer.write(line)
                    await writer.drain()
                    error = json.loads(await reader.readline())
                    assert error["type"] == "error"
                    assert str(limit) in error["error"]
                    assert error["expected_slot"] == 0
                reply = await _send(reader, writer, update)
                assert reply["type"] == "slot_result" and reply["slot"] == 0
                writer.close()
            finally:
                await server.stop()

        with telemetry_session() as registry:
            asyncio.run(scenario())
        assert registry.counter("service.protocol.rejected").value == 2

    def test_line_under_the_limit_is_served(self, tiny_stream, monkeypatch):
        system, observations = tiny_stream
        update = observation_to_update(observations[0])
        monkeypatch.setattr(server_module, "LINE_LIMIT", len(encode(update)) + 1)

        async def scenario():
            server = AllocationServer(
                AllocationSession(system, ServiceConfig())
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                reply = await _send(reader, writer, update)
                assert reply["type"] == "slot_result" and reply["slot"] == 0
                writer.close()
            finally:
                await server.stop()

        with telemetry_session() as registry:
            asyncio.run(scenario())
        assert registry.counter("service.protocol.rejected").value == 0

    def test_metrics_endpoint_serves_openmetrics(self, tiny_stream):
        system, _ = tiny_stream

        async def scenario():
            server = AllocationServer(
                AllocationSession(system, ServiceConfig()), metrics_port=0
            )
            await server.start()
            try:
                endpoint = server.metrics_endpoint
                assert endpoint is not None and endpoint.port > 0
                reader, writer = await asyncio.open_connection(
                    endpoint.host, endpoint.port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\n\r\n")
                await writer.drain()
                response = (await reader.read()).decode("utf-8")
                writer.close()
                assert response.startswith("HTTP/1.1 200")
                assert "text/plain" in response
                assert response.rstrip().endswith("# EOF")

                reader, writer = await asyncio.open_connection(
                    endpoint.host, endpoint.port
                )
                writer.write(b"GET /nope HTTP/1.1\r\n\r\n")
                await writer.drain()
                missing = (await reader.read()).decode("utf-8")
                writer.close()
                assert missing.startswith("HTTP/1.1 404")
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestStdioLoop:
    def test_serves_a_scripted_stream(self, tiny_stream):
        system, observations = tiny_stream
        lines = [json.dumps({"type": "hello"})]
        lines += [
            json.dumps(observation_to_update(o)) for o in observations[:2]
        ]
        lines.append("this is not json")
        lines.append(json.dumps({"type": "stats"}))
        in_stream = io.StringIO("\n".join(lines) + "\n")
        out_stream = io.StringIO()

        served = serve_stdio(
            AllocationSession(system, ServiceConfig()), in_stream, out_stream
        )
        replies = [
            json.loads(line) for line in out_stream.getvalue().splitlines()
        ]
        assert served == 2
        assert [r["type"] for r in replies] == [
            "welcome",
            "slot_result",
            "slot_result",
            "error",
            "stats",
        ]
        assert replies[-1]["slots"] == 2
