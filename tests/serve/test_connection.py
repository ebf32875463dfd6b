"""Socket-level tests of the front door's connection layer: pipelining,
the idle deadline, half-close, back-pressure, admission under a burst,
handler failures and shutdown."""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.http.message import html_response
from repro.http.uri import Url
from repro.serve.http11 import read_response
from repro.serve.server import DetectorServer, ServeConfig
from repro.util.rng import RngStream
from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment

HOST = "127.0.0.1"


def build_network(n_nodes=1, seed=7):
    experiment = CodeenWeekExperiment(
        CodeenWeekConfig(n_sessions=2, n_nodes=n_nodes, seed=seed)
    )
    network, entry_url = experiment.build_network(RngStream(seed, "record"))
    return network, Url.parse(entry_url)


def get(url: Url, client_ip: str = "10.1.1.1", path: str | None = None) -> bytes:
    return (
        f"GET {path or url.path} HTTP/1.1\r\nHost: {url.host}\r\n"
        f"User-Agent: UA\r\nX-Forwarded-For: {client_ip}\r\n\r\n"
    ).encode()


def serve(scenario, n_nodes=1, **overrides):
    """Run ``scenario(server, url)`` against a live server; returns the
    closed server and the scenario's result."""

    async def go():
        network, url = build_network(n_nodes=n_nodes)
        server = DetectorServer(
            network, default_host=url.host, config=ServeConfig(**overrides)
        )
        await server.start()
        try:
            result = await scenario(server, url)
        finally:
            await server.close()
        return server, result

    return asyncio.run(go())


async def read_to_close(reader, seconds=10.0) -> bytes:
    """Everything the server sends before it closes the connection."""
    try:
        return await asyncio.wait_for(reader.read(), timeout=seconds)
    except ConnectionResetError:
        # Closed on bytes the server never read: the kernel says RST.
        return b""


class TestPipelining:
    def test_one_write_of_n_requests_is_answered_in_order(self):
        paths = [f"/pipelined/{index}.html" for index in range(12)]

        async def scenario(server, url):
            reader, writer = await asyncio.open_connection(HOST, server.port)
            writer.write(b"".join(get(url, path=path) for path in paths))
            statuses = []
            for _ in paths:
                status, _, _, keep_alive = await asyncio.wait_for(
                    read_response(reader), timeout=10
                )
                assert keep_alive
                statuses.append(status)
            writer.close()
            await writer.wait_closed()
            return statuses

        server, statuses = serve(scenario)
        assert [record.url.path for record in server.records] == paths
        assert statuses == [record.status for record in server.records]
        stamps = [record.timestamp for record in server.records]
        assert all(a < b for a, b in zip(stamps, stamps[1:]))
        assert server.metrics.connections.value == 1
        assert server.metrics.keepalive_reuses.value == len(paths) - 1


class TestIdleDeadline:
    TIMEOUT = 0.25

    def test_idle_connection_is_closed_and_counted(self):
        async def scenario(server, url):
            reader, writer = await asyncio.open_connection(HOST, server.port)
            started = time.monotonic()
            data = await read_to_close(reader)
            elapsed = time.monotonic() - started
            writer.close()
            return data, elapsed

        server, (data, elapsed) = serve(
            scenario, keep_alive_timeout=self.TIMEOUT
        )
        assert data == b""
        assert self.TIMEOUT * 0.8 <= elapsed < self.TIMEOUT + 2.0
        assert server.metrics.timeouts.value == 1
        assert server.metrics.open_connections.value == 0

    def test_trickled_header_block_is_cut_at_the_same_deadline(self):
        """No slowloris extension: bytes that never complete a request
        do not push the deadline."""

        async def scenario(server, url):
            reader, writer = await asyncio.open_connection(HOST, server.port)
            started = time.monotonic()
            closed = asyncio.ensure_future(read_to_close(reader))
            trickle = b"GET / HTTP/1.1\r\nHost: h\r\n" + b"X-Slow: 1\r\n" * 200
            for index in range(len(trickle)):
                if closed.done():
                    break
                writer.write(trickle[index : index + 1])
                await asyncio.sleep(0.01)
            data = await closed
            elapsed = time.monotonic() - started
            writer.close()
            return data, elapsed

        server, (data, elapsed) = serve(
            scenario, keep_alive_timeout=self.TIMEOUT
        )
        assert data == b""  # cut, not answered
        assert elapsed < self.TIMEOUT + 1.0  # the trickle would last 20 s
        assert server.metrics.timeouts.value == 1
        assert server.parse_errors == 0

    def test_served_response_pushes_the_deadline(self):
        async def scenario(server, url):
            reader, writer = await asyncio.open_connection(HOST, server.port)
            await asyncio.sleep(self.TIMEOUT * 0.6)
            writer.write(get(url))
            status, _, _, _ = await read_response(reader)
            answered = time.monotonic()
            data = await read_to_close(reader)
            writer.close()
            return status, data, time.monotonic() - answered

        server, (status, data, idle) = serve(
            scenario, keep_alive_timeout=self.TIMEOUT
        )
        assert status == 200
        assert data == b""
        assert idle >= self.TIMEOUT * 0.8
        assert server.metrics.timeouts.value == 1


class TestHalfClose:
    def test_request_then_shutdown_write_still_gets_its_response(self):
        async def scenario(server, url):
            reader, writer = await asyncio.open_connection(HOST, server.port)
            writer.write(get(url))
            writer.write_eof()
            data = await read_to_close(reader)
            writer.close()
            return data

        server, data = serve(scenario)
        assert data.startswith(b"HTTP/1.1 200 ")
        header, _, body = data.partition(b"\r\n\r\n")
        assert b"content-length: %d" % len(body) in header.lower()
        assert server.requests_handled == 1
        assert server.parse_errors == 0

    def test_shutdown_write_mid_request_is_a_400(self):
        async def scenario(server, url):
            reader, writer = await asyncio.open_connection(HOST, server.port)
            writer.write(b"GET / HTTP/1.1\r\nHost: h\r\nUser-Ag")
            writer.write_eof()
            data = await read_to_close(reader)
            writer.close()
            return data

        server, data = serve(scenario)
        assert data.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in data
        assert server.records == []


async def connect_narrow(server):
    """A connection whose kernel buffers hold a few KiB each way, so the
    server's transport hits its high-water mark when the client stalls."""
    server._server.sockets[0].setsockopt(
        socket.SOL_SOCKET, socket.SO_SNDBUF, 4096
    )
    sock = socket.socket()
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    sock.setblocking(False)
    await asyncio.get_running_loop().sock_connect(sock, (HOST, server.port))
    return await asyncio.open_connection(sock=sock)


class TestBackPressure:
    COUNT = 900

    @pytest.fixture
    def stalls(self, monkeypatch):
        """How often the server paused writing / paused reading."""
        from repro.serve.server import _Connection

        calls = {"write": 0, "read": 0}
        pause_writing = _Connection.pause_writing
        connection_made = _Connection.connection_made

        def counting_pause_writing(connection):
            calls["write"] += 1
            pause_writing(connection)

        def spying_connection_made(connection, transport):
            pause_reading = transport.pause_reading

            def counting_pause_reading():
                calls["read"] += 1
                pause_reading()

            transport.pause_reading = counting_pause_reading
            connection_made(connection, transport)

        monkeypatch.setattr(_Connection, "pause_writing", counting_pause_writing)
        monkeypatch.setattr(_Connection, "connection_made", spying_connection_made)
        return calls

    def burst(self, url, start=0, stop=COUNT) -> bytes:
        # A new client per request, so every answer is a whole page.
        return b"".join(
            get(url, client_ip=f"10.3.{index // 250}.{index % 250}").replace(
                b"\r\n\r\n", b"\r\nX-Padding: " + b"p" * 120 + b"\r\n\r\n"
            )
            for index in range(start, stop)
        )

    def test_pipelined_burst_to_a_late_reader_arrives_whole(self, stalls):
        """More response bytes than the socket buffers hold, and more
        request bytes than the read-ahead: the writer pauses, the
        reader pauses, and nothing is lost once the client reads."""

        async def scenario(server, url):
            reader, writer = await connect_narrow(server)
            writer.write(self.burst(url, stop=300))
            await asyncio.sleep(0.3)  # let the server run into the wall
            assert 0 < server.requests_handled < 300
            writer.write(self.burst(url, start=300))
            await asyncio.sleep(0.1)
            received = []
            for _ in range(self.COUNT):
                status, _, body, _ = await asyncio.wait_for(
                    read_response(reader), timeout=20
                )
                received.append((status, len(body)))
            writer.close()
            await writer.wait_closed()
            return received

        server, received = serve(scenario)
        assert stalls["write"] > 0 and stalls["read"] > 0
        assert server.requests_handled == self.COUNT
        assert received == [
            (record.status, record.size) for record in server.records
        ]

    def test_closing_response_over_the_high_water_mark_is_flushed(self, stalls):
        """``Connection: close`` must not cut a response still buffered
        in the transport."""
        page = "<p>" + "x" * 300_000 + "</p>"

        async def scenario(server, url):
            server._network.nodes[0].handle_traced = lambda request: (
                html_response(page),
                None,
            )
            reader, writer = await connect_narrow(server)
            writer.write(
                get(url).replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n")
            )
            await asyncio.sleep(0.2)  # the server has written and closed
            data = await read_to_close(reader)
            writer.close()
            return data

        server, data = serve(scenario)
        assert stalls["write"] == 1
        header, _, body = data.partition(b"\r\n\r\n")
        assert b"Connection: close" in header
        assert body == page.encode()
        assert server.metrics.open_connections.value == 0
        assert server.metrics.timeouts.value == 0

    def test_peer_that_never_reads_is_cut_at_the_deadline(self, stalls):
        async def scenario(server, url):
            reader, writer = await connect_narrow(server)
            reader._transport.pause_reading()
            writer.write(self.burst(url))
            for _ in range(200):
                await asyncio.sleep(0.02)
                if server.metrics.open_connections.value == 0:
                    break
            writer.close()

        server, _ = serve(scenario, keep_alive_timeout=0.25)
        assert stalls["write"] > 0
        assert server.metrics.open_connections.value == 0
        assert server.metrics.timeouts.value == 1
        assert 0 < server.requests_handled < self.COUNT


class TestAdmissionUnderBurst:
    """Handling is inline, so the backlog is what waits in front of the
    loop: connections whose bytes one ``select`` returned."""

    CLIENTS = 8

    @classmethod
    async def burst(cls, server, url):
        streams = [
            await asyncio.open_connection(HOST, server.port)
            for _ in range(cls.CLIENTS)
        ]
        await asyncio.sleep(0.05)  # every server task is waiting
        # No await between the writes: the loop sees them together.
        for index, (_, writer) in enumerate(streams):
            writer.write(get(url, client_ip=f"10.2.0.{index}"))
        replies = []
        for reader, writer in streams:
            status, headers, _, _ = await asyncio.wait_for(
                read_response(reader), timeout=10
            )
            replies.append((status, headers.get("Retry-After")))
            writer.close()
        return replies

    def test_burst_behind_one_select_is_shed(self):
        server, replies = serve(
            self.burst, policy="shed", max_pending_per_node=1
        )
        shed = [reply for reply in replies if reply[0] == 503]
        assert shed and all(retry == "1" for _, retry in shed)
        assert server.shed_count == len(shed)
        assert len(server.records) + server.shed_count == self.CLIENTS
        assert server.metrics.shed.value == len(shed)
        # The backlog drains to nothing once the burst is served.
        assert server._pending == [0]

    def test_adaptive_policy_sees_the_same_backlog(self):
        from repro.overload.admission import AdaptiveConfig

        # The handle-time estimate starts at 5 ms a request: seven
        # waiting behind the first predict 40 ms, far over this budget.
        # No ramp, so the episode sheds every other arrival at once.
        server, replies = serve(
            self.burst,
            policy="adaptive",
            adaptive=AdaptiveConfig(
                delay_budget=0.008, ramp_requests=1, duty_cycle=2
            ),
        )
        assert server._admission.controller.report().lanes[0].entered >= 1
        assert 503 in [status for status, _ in replies]
        assert len(server.records) + server.shed_count == self.CLIENTS


class TestHandlerFailure:
    def test_exception_in_the_pipeline_is_a_500_and_a_counter(self, caplog):
        async def scenario(server, url):
            node = server._network.nodes[0]
            handle_traced = node.handle_traced

            def exploding(request):
                if request.url.path == "/boom":
                    raise RuntimeError("detector blew up")
                return handle_traced(request)

            node.handle_traced = exploding
            reader, writer = await asyncio.open_connection(HOST, server.port)
            # A keep-alive request: the failure must still close.
            writer.write(get(url, path="/boom") + get(url))
            failed = await read_to_close(reader)
            writer.close()
            other, closing = await asyncio.open_connection(HOST, server.port)
            closing.write(get(url))
            status, _, _, _ = await read_response(other)
            closing.close()
            return failed, status

        server, (failed, status) = serve(scenario)
        assert failed.startswith(b"HTTP/1.1 500 ")
        assert b"Connection: close" in failed
        assert failed.count(b"HTTP/1.1 ") == 1  # nothing after the 500
        assert b"Traceback" not in failed and b"blew up" not in failed
        assert status == 200  # the server kept serving
        assert server.metrics.handler_errors.value == 1
        assert len(server.records) == 1  # the failure left no log line
        assert server.records[0].url.path != "/boom"
        assert server.requests_handled == 1
        assert "detector blew up" in caplog.text  # the traceback is logged


class TestShutdown:
    def test_close_ends_idle_keep_alive_connections(self):
        async def scenario(server, url):
            reader, writer = await asyncio.open_connection(HOST, server.port)
            writer.write(get(url))
            status, _, _, keep_alive = await read_response(reader)
            assert status == 200 and keep_alive
            assert server.metrics.open_connections.value == 1
            started = time.monotonic()
            await server.close()
            elapsed = time.monotonic() - started
            pending = [
                task
                for task in asyncio.all_tasks()
                if task is not asyncio.current_task() and not task.done()
            ]
            data = await read_to_close(reader)
            writer.close()
            return elapsed, pending, data

        server, (elapsed, pending, data) = serve(scenario)
        assert elapsed < 2.0  # not the 15 s keep-alive timeout
        assert pending == []
        assert data == b""
        assert server.metrics.open_connections.value == 0
        assert server.metrics.timeouts.value == 0


class TestServeConfig:
    def test_adaptive_tuning_needs_the_adaptive_policy(self):
        from repro.overload.admission import AdaptiveConfig

        with pytest.raises(ValueError, match="adaptive"):
            ServeConfig(policy="shed", adaptive=AdaptiveConfig())
        assert ServeConfig(policy="adaptive").adaptive is None
        ServeConfig(policy="adaptive", adaptive=AdaptiveConfig())

    def test_there_is_no_thread_pool_to_size(self):
        with pytest.raises(TypeError):
            ServeConfig(handler_threads=4)
