"""Tests for repro.detection.sharded: the node's read-only detection view
and the IP→shard router behind it."""

from __future__ import annotations

import pytest

from repro.detection.service import DetectionService
from repro.detection.set_algebra import SessionSets
from repro.detection.sharded import merge_sessions
from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.proxy.node import ProxyNode
from repro.util.rng import RngStream


def _node(shards: int = 1, **kwargs) -> ProxyNode:
    return ProxyNode(
        node_id="node-view",
        origins={},
        rng=RngStream(5, "view"),
        instrument_enabled=False,
        detection_shards=shards,
        **kwargs,
    )


def _probe(client_ip: str, key: str) -> RegisteredProbe:
    return RegisteredProbe(
        kind=BeaconKind.CSS_BEACON,
        client_ip=client_ip,
        host="site.test",
        path=f"/probe-{key}.css",
        page_path="/page.html",
        issued_at=0.0,
        key=key,
    )


def _request(
    client_ip: str,
    user_agent: str = "Mozilla/5.0",
    path: str = "/page.html",
    timestamp: float = 0.0,
) -> Request:
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://site.test{path}"),
        client_ip=client_ip,
        headers=Headers([("User-Agent", user_agent)]),
        timestamp=timestamp,
    )


def _stream(n_clients: int = 24, requests_each: int = 12) -> list[Request]:
    """A deterministic round-robin request stream over many sessions."""
    requests = []
    for round_no in range(requests_each):
        for client in range(n_clients):
            requests.append(
                _request(
                    f"10.0.{client // 256}.{client % 256}",
                    user_agent=f"agent-{client % 3}",
                    path=f"/p{round_no}.html",
                    timestamp=round_no * 10.0 + client * 0.01,
                )
            )
    return requests


def _drive(node: ProxyNode, requests) -> None:
    for request in requests:
        node.handle(request)


def _census(node: ProxyNode) -> dict[tuple[str, str, float], int]:
    return {
        (s.key.client_ip, s.key.user_agent, s.started_at): s.request_count
        for s in node.detection.tracker.analyzable()
    }


class TestShardIndex:
    """``ProxyNode.shard_index_for`` is the node's one IP→shard router."""

    def test_stable_and_in_range(self):
        for n in (1, 2, 3, 8, 64):
            node = _node(n)
            index = node.shard_index_for("1.2.3.4")
            assert 0 <= index < n
            assert index == node.shard_index_for("1.2.3.4")

    def test_single_shard_short_circuits(self):
        assert _node(1).shard_index_for("anything") == 0

    def test_ip_only_routing_ignores_user_agent(self):
        # Routing is per client IP so a shard owns every piece of state
        # (probe table, cache, limiter) the IP can touch; the user agent
        # only distinguishes sessions *within* a shard.
        node = _node(8)
        node.handle(_request("9.9.9.9", "bot/1.0"))
        node.handle(_request("9.9.9.9", "browser/2.0"))
        owner = node.shard_for("9.9.9.9")
        assert owner.detection.tracker.live_count == 2
        assert node.detection.tracker.live_count == 2

    def test_keys_spread_across_shards(self):
        node = _node(8)
        indices = {node.shard_index_for(f"10.0.0.{i}") for i in range(200)}
        assert len(indices) == 8


class TestShardedService:
    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_matches_unsharded_service(self, n_shards):
        requests = _stream()
        plain = _node(detection=DetectionService(InstrumentationRegistry()))
        sharded = _node(n_shards)
        _drive(plain, requests)
        _drive(sharded, requests)
        plain.detection.finalize()
        sharded.detection.finalize()

        tracker = sharded.detection.tracker
        assert tracker.total_started == plain.detection.tracker.total_started
        assert _census(sharded) == _census(plain)
        assert (
            SessionSets.from_sessions(tracker.analyzable()).summary()
            == SessionSets.from_sessions(
                plain.detection.tracker.analyzable()
            ).summary()
        )

    def test_requests_route_to_owning_shard(self):
        node = _node(4)
        node.handle(_request("9.9.9.9", "bot/1.0"))
        owner = node.shard_index_for("9.9.9.9")
        for index, shard in enumerate(node.state_shards):
            expected = 1 if index == owner else 0
            assert shard.detection.tracker.live_count == expected
        assert node.detection.tracker.live_count == 1
        assert node.detection.tracker.get("9.9.9.9", "bot/1.0") is not None

    def test_session_ids_unique_across_shards(self):
        node = _node(8)
        _drive(node, _stream())
        sessions = node.detection.finalize()
        ids = [s.session_id for s in sessions]
        assert len(ids) == len(set(ids))
        assert {i.split("-")[0] for i in ids} == {
            f"s{i:02d}" for i in range(8)
        }

    def test_merged_reductions_are_deterministically_ordered(self):
        orders = []
        for n_shards in (1, 8):
            node = _node(n_shards)
            _drive(node, _stream())
            sessions = node.detection.finalize()
            keys = [
                (s.started_at, s.key.client_ip, s.key.user_agent)
                for s in sessions
            ]
            assert keys == sorted(keys)
            assert node.detection.tracker.analyzable() == sessions
            latencies = node.detection.detection_latencies()
            assert [l.session_id for l in latencies] == [
                s.session_id for s in sessions
            ]
            orders.append(keys)
        # One shard or eight: the same sessions in the same order.
        assert orders[0] == orders[1]

    def test_note_captcha_routes_and_logs(self):
        node = _node(4)
        owner = node.shard_for("7.7.7.7").detection
        outcome = node.handle_traced(
            _request("7.7.7.7", "human/1.0", timestamp=5.0)
        )[1]
        # The lane worker records CAPTCHA results on the session the
        # shard it drives holds: the one the node routes the client to.
        state = owner.tracker.get("7.7.7.7", "human/1.0")
        assert state is outcome.state
        state.note_captcha(True)
        assert state.passed_captcha
        assert state.captcha_passed_at == 1
        assert node.detection.tracker.get("7.7.7.7", "human/1.0") is state

    def test_expire_idle_sweeps_every_shard(self):
        node = _node(4)
        _drive(node, _stream(n_clients=12, requests_each=2))
        assert node.detection.tracker.live_count == 12
        node.housekeeping(now=1e6)
        assert node.detection.tracker.live_count == 0
        assert node.detection.tracker.total_started == 12

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            _node(0)
        with pytest.raises(ValueError):
            _node(1).shard_detection(0)

    def test_the_view_follows_a_rebuild(self):
        node = _node(2)
        view = node.detection
        node.shard_detection(8)
        assert node.detection is view
        _drive(node, _stream(n_clients=16, requests_each=1))
        assert view.tracker.live_count == 16
        assert sum(
            shard.detection.tracker.live_count for shard in node.state_shards
        ) == 16


class TestShardService:
    """Re-sharding: a rebuild before traffic, refused after it."""

    def test_preserves_registry_and_config(self):
        from repro.proxy.ratelimit import RateLimitConfig

        limits = RateLimitConfig(requests_per_second=2, burst=3)
        node = _node(1, rate_limit=limits)
        node.instrument_enabled = True
        heard = []
        node.add_probe_listener(heard.extend)
        node.shard_detection(4)
        # The node's own config and the probe tables' listeners carry
        # over into the rebuilt shards; nothing else is there to carry.
        for shard in node.state_shards:
            assert shard.limiter.config is limits
            assert shard.instrument_enabled
            assert shard.detection.tracker.total_started == 0
        node.shard_for("4.4.4.4").register_page(
            [_probe("4.4.4.4", key="k-heard")]
        )
        assert [p.key for p in heard] == ["k-heard"]

    def test_refuses_after_traffic(self):
        node = _node(1)
        node.handle(_request("1.1.1.1"))
        with pytest.raises(RuntimeError, match="node-view"):
            node.shard_detection(2)

    def test_refuses_after_a_probe_lands(self):
        node = _node(1)
        node.shard_for("4.4.4.4").register_page(
            [_probe("4.4.4.4", key="k-landed")]
        )
        with pytest.raises(RuntimeError, match="node-view"):
            node.shard_detection(2)
        assert node.n_state_shards == 1

    def test_refuses_an_injected_service(self):
        node = _node(detection=DetectionService(InstrumentationRegistry()))
        with pytest.raises(RuntimeError, match="injected"):
            node.shard_detection(2)
        node.shard_detection(1)  # the layout it has: a no-op
        assert node.n_state_shards == 1

    def test_injected_service_and_a_shard_count_conflict(self):
        with pytest.raises(ValueError):
            _node(
                2, detection=DetectionService(InstrumentationRegistry())
            )

    def test_resharding_a_sharded_service(self):
        node = _node(2)
        node.shard_detection(8)
        assert node.n_state_shards == 8
        assert [s.shard_id for s in node.state_shards] == list(range(8))
        before = node.state_shards
        node.shard_detection(8)  # same count: nothing is rebuilt
        assert node.state_shards is before


class TestMergeSessions:
    def test_sorts_across_groups(self):
        node = _node(8)
        _drive(node, _stream(n_clients=16, requests_each=2))
        groups = [
            shard.detection.finalize() for shard in node.state_shards
        ]
        merged = merge_sessions(groups)
        assert len(merged) == sum(len(g) for g in groups)
        keys = [
            (s.started_at, s.key.client_ip, s.key.user_agent)
            for s in merged
        ]
        assert keys == sorted(keys)
