"""End-to-end socket tests for repro.serve: live server, swarm, replay."""

from __future__ import annotations

import asyncio

from repro.http.uri import Url
from repro.overload.ladder import LadderConfig
from repro.proxy.network import ProxyNetwork
from repro.serve.server import VERIFY_PATH, DetectorServer, ServeConfig
from repro.serve.swarm import SwarmConfig, run_swarm
from repro.trace.clf import ParseStats, read_trace
from repro.trace.replay import ReplayConfig, replay_trace
from repro.util.rng import RngStream
from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment


def build_network(n_sessions=16, n_nodes=2, seed=7):
    experiment = CodeenWeekExperiment(
        CodeenWeekConfig(
            n_sessions=n_sessions, n_nodes=n_nodes, seed=seed
        )
    )
    network, entry_url = experiment.build_network(RngStream(seed, "record"))
    return network, entry_url, Url.parse(entry_url).host


async def start_server(network, host, **overrides):
    server = DetectorServer(
        network, default_host=host, config=ServeConfig(**overrides)
    )
    await server.start()
    return server


async def raw_exchange(port: int, payload: bytes) -> bytes:
    """One connection: send bytes, read until the server closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    data = await asyncio.wait_for(reader.read(), timeout=10)
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return data


class TestMalformedMatrix:
    """Every malformed input maps to a 4xx/5xx — never a traceback."""

    def run_matrix(self, payloads):
        async def go():
            network, _, host = build_network(n_sessions=2)
            server = await start_server(network, host)
            try:
                return [
                    await raw_exchange(server.port, payload)
                    for payload in payloads
                ]
            finally:
                await server.close()

        return asyncio.run(go())

    def test_refusal_statuses(self):
        huge_header = (
            b"GET /a HTTP/1.1\r\nHost: www.example.com\r\n"
            + b"X-Big: " + b"v" * 40000 + b"\r\n\r\n"
        )
        cases = [
            (b"garbage\r\n\r\n", b"HTTP/1.1 400 "),
            (
                b"DELETE /a HTTP/1.1\r\nHost: www.example.com\r\n\r\n",
                b"HTTP/1.1 501 ",
            ),
            (
                b"GET /a HTTP/9.9\r\nHost: www.example.com\r\n\r\n",
                b"HTTP/1.1 505 ",
            ),
            (huge_header, b"HTTP/1.1 431 "),
            (b"GET / HTTP/1.1\r\nnocolon\r\n\r\n", b"HTTP/1.1 400 "),
        ]
        replies = self.run_matrix([payload for payload, _ in cases])
        for (_, expected), reply in zip(cases, replies):
            assert reply.startswith(expected)
            assert b"Traceback" not in reply
            assert b"Connection: close" in reply

    def test_script_in_bad_target_is_escaped(self):
        (reply,) = self.run_matrix(
            [b"GET <script>alert(1)</script> HTTP/1.1\r\n\r\n"]
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        _, _, body = reply.partition(b"\r\n\r\n")
        assert b"<script>" not in body
        assert b"&lt;script&gt;" in body

    def test_query_embedded_absolute_url_stays_on_host(self):
        async def go():
            network, _, host = build_network(n_sessions=2)
            server = await start_server(network, host)
            try:
                reply = await raw_exchange(
                    server.port,
                    b"GET /redirect?to=http://evil.example/ HTTP/1.1\r\n"
                    b"Host: www.example.com\r\nUser-Agent: UA\r\n"
                    b"Connection: close\r\n\r\n",
                )
            finally:
                await server.close()
            return server, reply

        server, reply = asyncio.run(go())
        # Misrouting to evil.example would 502 (no route to that
        # origin); staying on www.example.com gives the site's 404.
        assert not reply.startswith(b"HTTP/1.1 502 ")
        record = server.records[-1]
        url = Url.parse(record.url) if isinstance(record.url, str) else record.url
        assert url.host == "www.example.com"
        assert url.path == "/redirect"


class TestConnectionHandling:
    def test_keep_alive_serves_multiple_requests(self):
        async def go():
            network, entry_url, host = build_network(n_sessions=2)
            path = Url.parse(entry_url).path
            server = await start_server(network, host)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                request = (
                    f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                    "User-Agent: UA\r\n\r\n"
                ).encode()
                replies = []
                for _ in range(2):
                    writer.write(request)
                    await writer.drain()
                    status = await reader.readline()
                    replies.append(status)
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b""):
                            break
                        if line.lower().startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    await reader.readexactly(length)
                writer.write(b"garbage\r\n\r\n")
                await writer.drain()
                closing = await reader.read()
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()
            return server, replies, closing

        server, replies, closing = asyncio.run(go())
        assert all(r.startswith(b"HTTP/1.1 200 ") for r in replies)
        assert closing.startswith(b"HTTP/1.1 400 ")
        assert server.requests_handled == 2
        assert server.parse_errors == 1

    def test_head_has_length_but_no_body(self):
        async def go():
            network, entry_url, host = build_network(n_sessions=2)
            path = Url.parse(entry_url).path
            server = await start_server(network, host)
            try:
                reply = await raw_exchange(
                    server.port,
                    (
                        f"HEAD {path} HTTP/1.1\r\nHost: {host}\r\n"
                        "User-Agent: UA\r\nConnection: close\r\n\r\n"
                    ).encode(),
                )
            finally:
                await server.close()
            return reply

        reply = asyncio.run(go())
        header, _, body = reply.partition(b"\r\n\r\n")
        assert header.startswith(b"HTTP/1.1 200 ")
        assert body == b""
        # Explicit framing even without a body: the peer never needs
        # read-until-close.
        assert b"content-length:" in header.lower()


    def test_static_body_from_origin_from_cache_and_by_head(
        self, make_network, small_site
    ):
        """An origin image is a view of a shared filler buffer from the
        origin through the cache to ``render_response``; what reaches
        the peer is the same bytes either way, framed by their length."""
        resource = next(
            r for r in small_site.resources.values() if r.path.endswith(".jpg")
        )

        async def go():
            network = make_network(n_nodes=1)
            server = await start_server(network, small_site.host)
            try:
                replies = [
                    await raw_exchange(
                        server.port,
                        (
                            f"{method} {resource.path} HTTP/1.1\r\n"
                            f"Host: {small_site.host}\r\nUser-Agent: UA\r\n"
                            "Connection: close\r\n\r\n"
                        ).encode(),
                    )
                    for method in ("GET", "GET", "HEAD")
                ]
            finally:
                await server.close()
            return network.stats(), replies

        stats, replies = asyncio.run(go())
        assert (stats.origin_requests, stats.cache_hits) == (2, 1)
        expected = bytes(resource.body)
        assert len(expected) == resource.size > 1000
        # (A HEAD is never answered from cache, hence two origin requests.)
        for reply in replies[:2]:
            header, _, received = reply.partition(b"\r\n\r\n")
            assert header.startswith(b"HTTP/1.1 200 ")
            assert f"\r\nContent-Length: {resource.size}\r\n".encode() in header
            assert received == expected
        header, _, received = replies[2].partition(b"\r\n\r\n")
        assert header.startswith(b"HTTP/1.1 200 ")
        assert b"\r\nContent-Length: " in header
        assert received == b""


class TestCaptchaFunnel:
    @staticmethod
    def _verify_payload(body: str) -> bytes:
        return (
            f"POST {VERIFY_PATH} HTTP/1.1\r\n"
            "Host: www.example.com\r\nUser-Agent: UA\r\n"
            "X-Forwarded-For: 10.9.9.9\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
            f"{body}"
        ).encode()

    def test_challenge_and_verify_stay_out_of_trace(self):
        async def go():
            network, _, host = build_network(n_sessions=2)
            server = await start_server(network, host, ladder=LadderConfig())
            try:
                challenge = await raw_exchange(
                    server.port,
                    b"GET /__captcha__/challenge HTTP/1.1\r\n"
                    b"Host: www.example.com\r\nUser-Agent: UA\r\n"
                    b"X-Forwarded-For: 10.9.9.9\r\nConnection: close\r\n\r\n",
                )
                passed = await raw_exchange(
                    server.port, self._verify_payload("answer=not-a-robot")
                )
                failed = await raw_exchange(
                    server.port, self._verify_payload("answer=no")
                )
            finally:
                await server.close()
            return server, challenge, passed, failed

        server, challenge, passed, failed = asyncio.run(go())
        assert challenge.startswith(b"HTTP/1.1 200 ")
        assert b"not-a-robot" in challenge
        assert passed.startswith(b"HTTP/1.1 302 ")
        assert failed.startswith(b"HTTP/1.1 403 ")
        # The funnel is out-of-band: nothing reached detection or the log.
        assert server.records == []
        assert server.requests_handled == 0


class TestLiveReplayRoundTrip:
    """The tentpole invariant: a live socket run's CLF log replays to
    the same session census, set-algebra summary and per-session
    verdict set."""

    @staticmethod
    def _verdicts(sessions):
        return {
            (state.key.client_ip, state.key.user_agent): (
                state.in_css_set,
                state.in_js_set,
                state.in_mouse_set,
                state.followed_hidden_link,
                state.ua_mismatched,
                state.is_human_by_set_algebra,
            )
            for state in sessions
        }

    def test_swarm_round_trip(self, tmp_path):
        trace_path = str(tmp_path / "live.log")
        probes_path = str(tmp_path / "live.keys")

        async def go():
            network, entry_url, host = build_network(
                n_sessions=16, n_nodes=2, seed=7
            )
            server = await start_server(
                network, host,
                trace_path=trace_path, probes_path=probes_path,
            )
            try:
                result = await run_swarm(
                    SwarmConfig(
                        port=server.port, sessions=16, seed=7,
                        concurrency=8,
                    ),
                    entry_url,
                )
            finally:
                server.annotate_ground_truth(result.identities())
                await server.close()
            return server, result, host

        server, result, host = asyncio.run(go())
        assert result.errors == 0
        assert result.requests == len(server.records) > 0

        live_sessions = server.finalize_sessions()
        live_summary = server.session_summary()
        live_census: dict[str, int] = {}
        for state in live_sessions:
            live_census[state.agent_kind] = (
                live_census.get(state.agent_kind, 0) + 1
            )
        assert "" not in live_census  # ground truth reached every session

        # The live log round-trips through the CLF parser losslessly.
        stats = ParseStats()
        parsed = list(
            read_trace(trace_path, default_host=host, stats=stats)
        )
        assert stats.malformed == 0
        assert len(parsed) == result.requests
        timestamps = [record.timestamp for record in parsed]
        assert timestamps == sorted(timestamps)
        assert len(set(timestamps)) == len(timestamps)

        # A fresh network replaying the live log reproduces the run.
        fresh = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=2,
            instrument_enabled=False,
        )
        replayed = replay_trace(
            fresh, trace_path, probes=probes_path,
            config=ReplayConfig(default_host=host),
        )
        assert replayed.requests_replayed == result.requests
        assert replayed.kind_census() == live_census
        assert replayed.summary == live_summary
        assert self._verdicts(replayed.sessions) == self._verdicts(
            live_sessions
        )

    def test_shed_policy_keeps_trace_replayable(self, tmp_path):
        trace_path = str(tmp_path / "shed.log")

        async def go():
            network, entry_url, host = build_network(
                n_sessions=8, n_nodes=2, seed=13
            )
            server = await start_server(
                network, host,
                trace_path=trace_path,
                policy="shed", max_pending_per_node=1,
            )
            try:
                result = await run_swarm(
                    SwarmConfig(
                        port=server.port, sessions=8, seed=13,
                        concurrency=8,
                    ),
                    entry_url,
                )
            finally:
                await server.close()
            return server, result, host

        server, result, host = asyncio.run(go())
        assert result.errors == 0
        # Sheds (if any) answered 503 and stayed out of the log.
        assert len(server.records) + server.shed_count == result.requests
        stats = ParseStats()
        parsed = list(
            read_trace(trace_path, default_host=host, stats=stats)
        )
        assert stats.malformed == 0
        assert len(parsed) == len(server.records)
