"""AllocationServer end to end: TCP, tick mode, stdio, and /metrics.

Plain ``asyncio.run`` drives the async parts (no pytest-asyncio
dependency); every server binds port 0 so tests never collide.
"""

import asyncio
import io
import json
import logging
import sys
import threading

import pytest

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

    def test_stop_with_a_client_still_connected_logs_nothing(
        self, tiny_stream, caplog
    ):
        system, _ = tiny_stream

        async def scenario():
            server = AllocationServer(AllocationSession(system, ServiceConfig()))
            await server.start()
            reader, writer = await asyncio.open_connection(server.host, server.port)
            welcome = await _send(reader, writer, {"type": "hello"})
            assert welcome["type"] == "welcome"
            await server.stop()
            # stop() closed the server's end of the held connection.
            assert await asyncio.wait_for(reader.read(), timeout=10) == b""
            writer.close()

        with caplog.at_level(logging.ERROR):
            asyncio.run(scenario())
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert not errors, [r.getMessage() for r in errors]

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

    def test_hostile_lines_leave_the_connection_serving(self, tiny_stream):
        """Each hostile line is one error reply, then the slot is served."""
        system, observations = tiny_stream
        updates = [observation_to_update(o) for o in observations[:3]]

        def first_station(update, entry):
            return encode({**update, "attachment": [entry, *update["attachment"][1:]]})

        hostile = [
            b"[" * 100_000 + b"]" * 100_000 + b"\n",
            first_station(updates[1], 2**70),
            first_station(updates[2], 1.5),
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
                for slot, (line, update) in enumerate(zip(hostile, updates)):
                    writer.write(line)
                    await writer.drain()
                    error = json.loads(await reader.readline())
                    assert error["type"] == "error"
                    assert error["expected_slot"] == slot
                    reply = await _send(reader, writer, update)
                    assert reply["type"] == "slot_result" and reply["slot"] == slot
                writer.close()
            finally:
                await server.stop()

        with telemetry_session() as registry:
            asyncio.run(scenario())
        assert registry.counter("service.protocol.rejected").value == 3

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


class TestTwoPhaseSlot:
    """The reply goes out before the slot's deferred phase, which holds the lock."""

    @pytest.mark.parametrize("tick_s", [None, 0.05], ids=["event", "tick"])
    def test_reply_precedes_a_blocked_settle_and_the_next_update_waits(
        self, tiny_stream, tick_s
    ):
        system, observations = tiny_stream
        session = AllocationSession(system, ServiceConfig())
        entered = threading.Event()
        release = threading.Event()
        order: list[str] = []
        observe = session.controller.observe

        def recording_observe(observation):
            order.append(f"observe {observation.slot}")
            return observe(observation)

        def blocking_settle():
            entered.set()
            release.wait(timeout=30)
            order.append("settled")

        session.controller.observe = recording_observe
        session.controller.settle = blocking_settle

        async def scenario():
            server = AllocationServer(session, tick_s=tick_s)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                other_reader, other_writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(encode(observation_to_update(observations[0])))
                await writer.drain()
                first = json.loads(
                    await asyncio.wait_for(reader.readline(), timeout=30)
                )
                assert first["type"] == "slot_result" and first["slot"] == 0
                loop = asyncio.get_running_loop()
                assert await loop.run_in_executor(None, entered.wait, 30)
                assert order == ["observe 0"]

                other_writer.write(
                    encode(observation_to_update(observations[1]))
                )
                await other_writer.drain()
                second = asyncio.ensure_future(other_reader.readline())
                await asyncio.sleep(0.3)
                assert not second.done()
                assert order == ["observe 0"]

                release.set()
                reply = json.loads(await asyncio.wait_for(second, timeout=30))
                assert reply["type"] == "slot_result" and reply["slot"] == 1
                assert order[:3] == ["observe 0", "settled", "observe 1"]
                writer.close()
                other_writer.close()
            finally:
                release.set()
                await server.stop()

        asyncio.run(scenario())
        # stop() settled the last slot too.
        assert order == ["observe 0", "settled", "observe 1", "settled"]


    def test_concurrent_clients_never_interleave_a_slot_with_its_settle(
        self, tiny_stream
    ):
        from repro.aggregate import AggregationConfig
        from repro.telemetry import MetricsRegistry

        system, observations = tiny_stream
        config = ServiceConfig(aggregation=AggregationConfig(shards=2))
        registry = MetricsRegistry()

        async def poll_stats(host, port, stop):
            reader, writer = await asyncio.open_connection(host, port)
            seen = []
            while not stop.is_set():
                seen.append((await _send(reader, writer, {"type": "stats"}))["slots"])
            writer.close()
            return seen

        async def scenario():
            server = AllocationServer(AllocationSession(system, config))
            await server.start()
            stop = asyncio.Event()
            pollers = [
                asyncio.ensure_future(poll_stats(server.host, server.port, stop))
                for _ in range(4)
            ]
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                for observation in observations:
                    reply = await _send(
                        reader, writer, observation_to_update(observation)
                    )
                    assert reply["type"] == "slot_result"
                writer.close()
                stop.set()
                return await asyncio.wait_for(asyncio.gather(*pollers), 60)
            finally:
                stop.set()
                await server.stop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with telemetry_session(registry):
                polled = asyncio.run(asyncio.wait_for(scenario(), 120))
        finally:
            sys.setswitchinterval(interval)
        slots = list(range(len(observations)))
        for kind in ("aggregate.slot", "slot", "service.slot"):
            assert [e["slot"] for e in registry.events if e["type"] == kind] == slots
        # Each settled slot's records sit together, before the next slot's.
        kinds = [
            e["type"]
            for e in registry.events
            if e["type"] in ("aggregate.slot", "slot", "service.slot")
        ]
        assert kinds == ["aggregate.slot", "slot", "service.slot"] * len(slots)
        for seen in polled:
            assert seen == sorted(seen)


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
