"""Tests for repro.detection.sharded."""

from __future__ import annotations

import pytest

from repro.detection.events import EventKind
from repro.detection.online import OnlineClassifier
from repro.detection.service import DetectionService
from repro.detection.sharded import (
    ShardedDetectionService,
    merge_sessions,
    shard_index,
    shard_service,
)
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
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


def _drive(service, requests) -> None:
    response = Response(status=200, headers=Headers(), body=b"ok")
    for request in requests:
        outcome = service.handle_request(request)
        service.note_response(outcome, response)


def _census(service) -> dict[tuple[str, str, float], int]:
    return {
        (s.key.client_ip, s.key.user_agent, s.started_at): s.request_count
        for s in service.tracker.analyzable()
    }


class TestShardIndex:
    def test_stable_and_in_range(self):
        for n in (1, 2, 3, 8, 64):
            index = shard_index("1.2.3.4", n)
            assert 0 <= index < n
            assert index == shard_index("1.2.3.4", n)

    def test_single_shard_short_circuits(self):
        assert shard_index("anything", 1) == 0

    def test_ip_only_routing_ignores_user_agent(self):
        # Routing is per client IP so a shard owns every piece of state
        # (registry partition, cache, limiter) the IP can touch; the
        # user agent only distinguishes sessions *within* a shard.
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=8
        )
        sharded.handle_request(_request("9.9.9.9", "bot/1.0"))
        sharded.handle_request(_request("9.9.9.9", "browser/2.0"))
        assert sharded.shard_for("9.9.9.9").tracker.live_count == 2

    def test_keys_spread_across_shards(self):
        indices = {shard_index(f"10.0.0.{i}", 8) for i in range(200)}
        assert len(indices) == 8


class TestShardedService:
    @pytest.mark.parametrize("n_shards", [1, 2, 8])
    def test_matches_unsharded_service(self, n_shards):
        requests = _stream()
        plain = DetectionService(InstrumentationRegistry())
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=n_shards
        )
        _drive(plain, requests)
        _drive(sharded, requests)
        plain.finalize()
        sharded.finalize()

        assert sharded.tracker.total_started == plain.tracker.total_started
        assert _census(sharded) == _census(plain)
        assert (
            sharded.session_sets().summary()
            == plain.session_sets().summary()
        )

    def test_requests_route_to_owning_shard(self):
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=4
        )
        request = _request("9.9.9.9", "bot/1.0")
        sharded.handle_request(request)
        owner = shard_index("9.9.9.9", 4)
        for index, shard in enumerate(sharded.shards):
            expected = 1 if index == owner else 0
            assert shard.tracker.live_count == expected
        assert sharded.tracker.live_count == 1
        assert sharded.tracker.get("9.9.9.9", "bot/1.0") is not None

    def test_session_ids_unique_across_shards(self):
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=8
        )
        _drive(sharded, _stream())
        sharded.finalize()
        ids = [s.session_id for s in sharded.tracker.completed]
        assert len(ids) == len(set(ids))

    def test_merged_reductions_are_deterministically_ordered(self):
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=8
        )
        _drive(sharded, _stream())
        sessions = sharded.finalize()
        keys = [
            (s.started_at, s.key.client_ip, s.key.user_agent)
            for s in sessions
        ]
        assert keys == sorted(keys)
        latencies = sharded.detection_latencies()
        assert [l.session_id for l in latencies] == [
            s.session_id for s in sessions
        ]

    def test_note_captcha_routes_and_logs(self):
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=4
        )
        owner = sharded.shard_for("7.7.7.7")
        owner.keep_event_log = True
        request = _request("7.7.7.7", "human/1.0", timestamp=5.0)
        outcome = sharded.handle_request(request)
        event = sharded.note_captcha(outcome.state, True, timestamp=6.0)
        assert outcome.state.passed_captcha
        assert event.kind is EventKind.CAPTCHA_PASSED
        assert event.session_id == outcome.state.session_id
        assert owner.tracker.get("7.7.7.7", "human/1.0") is outcome.state
        assert owner.event_log[-1] is event

    def test_expire_idle_sweeps_every_shard(self):
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=4, idle_timeout=100.0
        )
        _drive(sharded, _stream(n_clients=12, requests_each=2))
        assert sharded.tracker.live_count == 12
        expired = sharded.tracker.expire_idle(now=1e6)
        assert len(expired) == 12
        assert sharded.tracker.live_count == 0

    def test_invalid_params(self):
        registry = InstrumentationRegistry()
        with pytest.raises(ValueError):
            ShardedDetectionService(registry, n_shards=0)


class TestShardService:
    def test_preserves_registry_and_config(self):
        registry = InstrumentationRegistry()
        plain = DetectionService(
            registry, idle_timeout=123.0, min_requests=5
        )
        registry.register(_probe("4.4.4.4", key="k-preserved"))
        resharded = shard_service(plain, 4)
        # The registry is re-partitioned into an IP-routed facade; the
        # registrations (and their per-IP order) must survive the move.
        assert [p.key for p in resharded.registry.iter_probes()] == [
            "k-preserved"
        ]
        assert resharded.registry.n_partitions == 4
        assert resharded.n_shards == 4
        assert resharded.tracker.idle_timeout == 123.0
        assert resharded.tracker.min_requests == 5
        assert isinstance(resharded.classifier, OnlineClassifier)

    def test_refuses_after_traffic(self):
        plain = DetectionService(InstrumentationRegistry())
        plain.handle_request(_request("1.1.1.1"))
        with pytest.raises(RuntimeError):
            shard_service(plain, 2)

    def test_resharding_a_sharded_service(self):
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=2, min_requests=7
        )
        resharded = shard_service(sharded, 8)
        assert resharded.n_shards == 8
        assert resharded.tracker.min_requests == 7


class TestMergeSessions:
    def test_sorts_across_groups(self):
        sharded = ShardedDetectionService(
            InstrumentationRegistry(), n_shards=8
        )
        _drive(sharded, _stream(n_clients=16, requests_each=2))
        sharded.tracker.finalize_all()
        groups = [
            shard.tracker.completed for shard in sharded.shards
        ]
        merged = merge_sessions(groups)
        assert len(merged) == sum(len(g) for g in groups)
        keys = [
            (s.started_at, s.key.client_ip, s.key.user_agent)
            for s in merged
        ]
        assert keys == sorted(keys)
