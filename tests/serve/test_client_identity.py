"""Who the server says a request came from, and the counters it keeps.

``X-Forwarded-For`` names the client only when the connecting peer is a
trusted proxy; a direct client that sends one is still itself.  The
server's ``shed_count`` / ``parse_errors`` read the exported
``repro_serve_*`` series, so the two can never disagree.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.serve.http11 import parse_request
from repro.serve.server import DetectorServer, ServeConfig
from repro.util.rng import RngStream
from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment

HOST = "www.example.com"
VICTIM = "10.9.9.9"


def _server(**overrides) -> DetectorServer:
    experiment = CodeenWeekExperiment(
        CodeenWeekConfig(n_sessions=2, n_nodes=2, seed=7)
    )
    network, _ = experiment.build_network(RngStream(7, "identity"))
    return DetectorServer(
        network, default_host=HOST, config=ServeConfig(**overrides)
    )


def _parsed(forwarded_for: str | None = VICTIM):
    raw = f"GET / HTTP/1.1\r\nHost: {HOST}\r\nUser-Agent: UA\r\n"
    if forwarded_for is not None:
        raw += f"X-Forwarded-For: {forwarded_for}\r\n"
    parsed, _consumed = parse_request(bytearray(f"{raw}\r\n".encode()))
    return parsed


def _dispatch(server: DetectorServer, peer_ip: str, parsed=None):
    connection = SimpleNamespace(peer_ip=peer_ip, lane=0)
    return server._dispatch(parsed or _parsed(), connection)


class TestForwardedFor:
    def test_a_direct_client_cannot_speak_for_another_ip(self):
        server = _server()
        _dispatch(server, "203.0.113.9")
        (record,) = server.records
        assert record.client_ip == "203.0.113.9"
        node = server._network.node_for("203.0.113.9")
        assert node.detection.tracker.get("203.0.113.9", "UA") is not None
        assert server._network.node_for(VICTIM).detection.tracker.get(
            VICTIM, "UA"
        ) is None

    @pytest.mark.parametrize("proxy", ["127.0.0.1", "::1"])
    def test_a_loopback_proxy_names_the_client(self, proxy):
        server = _server()
        _dispatch(server, proxy)
        assert [r.client_ip for r in server.records] == [VICTIM]

    def test_the_trusted_set_is_the_deployments(self):
        server = _server(trusted_proxies=frozenset({"192.0.2.1"}))
        _dispatch(server, "192.0.2.1")
        _dispatch(server, "127.0.0.1")
        assert [r.client_ip for r in server.records] == [
            VICTIM, "127.0.0.1",
        ]

    def test_the_header_never_reaches_the_pipeline(self):
        server = _server()
        for peer in ("203.0.113.9", "127.0.0.1"):
            parsed = _parsed()
            _dispatch(server, peer, parsed)
            assert parsed.headers.get("X-Forwarded-For") is None


class TestServeCounters:
    def test_counters_are_the_exported_series(self):
        async def go():
            server = _server(policy="shed", max_pending_per_node=1)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"garbage\r\n\r\n")
                reply = await asyncio.wait_for(reader.read(), timeout=10)
                writer.close()
                await writer.wait_closed()
                # A full backlog in front of the client's node: shed.
                index = server._network.node_index_for(VICTIM)
                server._pending[index] = 1
                shed = _dispatch(server, "127.0.0.1")
                server._pending[index] = 0
            finally:
                await server.close()
            return server, reply, shed

        server, reply, shed = asyncio.run(go())
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert shed.status == 503
        snapshot = server.metrics.snapshot()
        assert server.parse_errors == 1
        assert server.parse_errors == snapshot.total(
            "repro_serve_parse_errors_total"
        )
        assert server.shed_count == 1
        assert server.shed_count == snapshot.total("repro_serve_shed_total")
        assert isinstance(server.parse_errors, int)
        assert isinstance(server.shed_count, int)
