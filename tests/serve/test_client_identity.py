"""Who the server says a request came from, and the counters it keeps.

``X-Forwarded-For`` names the client only when the connecting peer is a
trusted proxy; a direct client that sends one is still itself — also
end to end over a socket, where a client spoofing a fresh address on
every request stays one session (the ROADMAP item 9 row).  The server's
``shed_count`` / ``parse_errors`` read the exported ``repro_serve_*``
series, so the two can never disagree.
"""

from __future__ import annotations

import asyncio
from types import SimpleNamespace

import pytest

from repro.detection.session import MIN_REQUESTS
from repro.detection.verdict import Label
from repro.http.uri import Url
from repro.proxy.network import ProxyNetwork
from repro.serve.http11 import parse_request, read_response
from repro.serve.server import DetectorServer, ServeConfig
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
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


class TestSpoofedForwardedFor:
    """A client that is not a trusted proxy claims a fresh address in
    ``X-Forwarded-For`` on each of 15 plain page requests over one
    keep-alive connection.

    Committed outcome: *detected at request 10*.  Every request is the
    socket peer's: one session keyed by ``127.0.0.1``, admitted on one
    lane and handled by one node, and no session at any claimed
    address.  With no CSS, script or mouse fetch that session is a
    robot the moment it reaches the ten-request floor; its final verdict
    is ROBOT outside S_H at request 15.  So spoofing the header evades
    nothing.
    """

    PAGES = 15
    UA = "Mozilla/5.0 (X11; Linux x86_64; rv:115.0) Gecko/20100101"

    def _run(self, seed: int):
        site = SiteGenerator(SiteConfig(n_pages=40)).generate(
            RngStream(seed, "spoof-site")
        )
        network = ProxyNetwork(
            origins={site.host: OriginServer(site)},
            rng=RngStream(seed, "spoof-net"),
            n_nodes=4,
        )
        server = DetectorServer(
            network,
            config=ServeConfig(trusted_proxies=frozenset()),
        )
        lanes = []
        admit = server._admission.admit
        server._admission.admit = lambda lane, ip, backlog: (
            lanes.append((lane, ip)) or admit(lane, ip, backlog)
        )
        handled = []

        def tap(request, response):
            # The session's online verdict as this request left it.
            state = network.node_for(request.client_ip).detection.tracker.get(
                request.client_ip, self.UA
            )
            handled.append((request.client_ip, state.verdict().label))

        network.add_tap(tap)
        paths = [p for p in site.page_paths if p != site.home_path]
        claimed = [f"198.51.100.{index + 1}" for index in range(self.PAGES)]

        async def go():
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                statuses = []
                for path, address in zip(paths, claimed):
                    writer.write(
                        f"GET {path} HTTP/1.1\r\nHost: {site.host}\r\n"
                        f"User-Agent: {self.UA}\r\n"
                        f"X-Forwarded-For: {address}\r\n\r\n".encode()
                    )
                    status, _, _, keep_alive = await asyncio.wait_for(
                        read_response(reader), timeout=10
                    )
                    assert keep_alive
                    statuses.append(status)
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
            return statuses

        statuses = asyncio.run(go())
        return server, network, lanes, handled, claimed, statuses

    @pytest.mark.parametrize("seed", range(3))
    def test_a_spoofed_address_per_request_stays_one_session(self, seed):
        server, network, lanes, handled, claimed, statuses = self._run(seed)
        assert statuses == [200] * self.PAGES
        assert server.metrics.connections.value == 1
        # Every request was the peer's, on one admission lane and node.
        assert [ip for ip, _ in handled] == ["127.0.0.1"] * self.PAGES
        index = network.node_index_for("127.0.0.1")
        assert lanes == [(index, "127.0.0.1")] * self.PAGES
        assert [node.stats.requests for node in network.nodes] == [
            self.PAGES if i == index else 0
            for i in range(len(network.nodes))
        ]
        node = network.nodes[index]
        assert node.detection.tracker.live_count == 1
        state = node.detection.tracker.get("127.0.0.1", self.UA)
        assert state is not None and state.request_count == self.PAGES
        for address in claimed:
            for other in network.nodes:
                assert other.detection.tracker.get(address, self.UA) is None
        # The outcome: detected at the ten-request floor.
        labels = [label for _, label in handled]
        assert labels.index(Label.ROBOT) + 1 == MIN_REQUESTS == 10
        assert set(labels[MIN_REQUESTS - 1:]) == {Label.ROBOT}
        final = state.final_verdict()
        assert (final.label, final.reason, final.at_request) == (
            Label.ROBOT, "outside S_H", self.PAGES,
        )
        assert not (state.in_css_set or state.in_js_set or state.in_mouse_set)


#: ``(peer, X-Forwarded-For values) -> (client IP, header view)`` as the
#: server answered before the framer handed the header over: the first
#: value names the client (one token, trusted peer only), and every
#: X-Forwarded-For field leaves the view unless that first value is empty.
_WITHOUT = [("User-Agent", "UA")]
FORWARDED_CASES = {
    "empty": (
        "127.0.0.1", [""],
        "127.0.0.1", [("User-Agent", "UA"), ("X-Forwarded-For", "")],
    ),
    "empty then an address": (
        "127.0.0.1", ["", VICTIM],
        "127.0.0.1",
        [("User-Agent", "UA"), ("X-Forwarded-For", ""), ("X-Forwarded-For", VICTIM)],
    ),
    "repeated": ("127.0.0.1", [VICTIM, "10.0.0.1"], VICTIM, _WITHOUT),
    "a list": ("127.0.0.1", [f"{VICTIM}, 10.0.0.1"], VICTIM, _WITHOUT),
    "two tokens": ("127.0.0.1", ["10.0.0.1 10.0.0.2"], "127.0.0.1", _WITHOUT),
    "untrusted peer": ("203.0.113.9", [VICTIM], "203.0.113.9", _WITHOUT),
    "untrusted peer, repeated": (
        "203.0.113.9", [VICTIM, VICTIM], "203.0.113.9", _WITHOUT,
    ),
    "untrusted peer, empty": (
        "203.0.113.9", [""],
        "203.0.113.9", [("User-Agent", "UA"), ("X-Forwarded-For", "")],
    ),
}


@pytest.mark.parametrize(
    "peer, values, client_ip, view",
    FORWARDED_CASES.values(),
    ids=FORWARDED_CASES.keys(),
)
def test_client_and_view_are_what_dispatch_left(peer, values, client_ip, view):
    server = _server()
    seen = []
    server._network.add_tap(lambda request, response: seen.append(request))
    raw = f"GET / HTTP/1.1\r\nHost: {HOST}\r\nUser-Agent: UA\r\n"
    raw += "".join(f"X-Forwarded-For: {value}\r\n" for value in values)
    parsed, _consumed = parse_request(bytearray(f"{raw}\r\n".encode()))
    _dispatch(server, peer, parsed)
    (request,) = seen
    assert request.client_ip == client_ip
    assert [r.client_ip for r in server.records] == [client_ip]
    assert list(request.headers) == view


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
