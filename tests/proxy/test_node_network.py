"""Tests for repro.proxy.node and repro.proxy.network."""

from __future__ import annotations

import pickle

import pytest

from repro.http.content import ContentKind
from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.instrument.keys import BeaconKind
from repro.overload.ladder import merge_ladder_states
from repro.proxy.ratelimit import RateLimitConfig


def _request(site, path, ip="10.0.0.5", ua="Mozilla/4.0 (MSIE)", t=0.0):
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://{site.host}{path}"),
        client_ip=ip,
        headers=Headers([("User-Agent", ua)]),
        timestamp=t,
    )


class TestNodeServing:
    def test_html_is_instrumented_and_uncacheable(
        self, make_node, small_site
    ):
        node = make_node()
        resp = node.handle(_request(small_site, small_site.home_path))
        assert resp.status == 200
        assert resp.headers.is_uncacheable()
        assert b"onmousemove" in resp.body
        assert node.stats.pages_instrumented == 1
        assert node.stats.instrumentation_markup_bytes > 0

    def test_instrumentation_can_be_disabled(self, make_node, small_site):
        node = make_node(instrument_enabled=False)
        resp = node.handle(_request(small_site, small_site.home_path))
        assert b"onmousemove" not in resp.body
        assert node.stats.pages_instrumented == 0

    def test_beacon_served_locally(self, make_node, small_site):
        node = make_node()
        node.handle(_request(small_site, small_site.home_path))
        probes = node.shard_for("10.0.0.5").detection.registry.outstanding(
            "10.0.0.5"
        )
        css = next(p for p in probes if p.kind is BeaconKind.CSS_BEACON)
        origin_before = node.stats.origin_requests
        resp = node.handle(_request(small_site, css.path, t=1.0))
        assert resp.status == 200
        assert resp.content_type == "text/css"
        assert node.stats.origin_requests == origin_before
        assert node.stats.beacon_requests == 1
        assert node.stats.beacon_bytes_served >= 0

    def test_static_objects_cached(self, make_node, small_site):
        node = make_node()
        css_path = next(p for p in small_site.resources if p.endswith(".css"))
        node.handle(_request(small_site, css_path))
        resp = node.handle(_request(small_site, css_path, t=1.0))
        assert resp.served_from_cache
        assert node.stats.cache_hits == 1

    def test_pickled_node_serves_identical_bytes(self, make_node, small_site):
        """A node is shipped to lane processes by pickle; its origin's
        static bodies are views of a shared buffer and its cache holds
        them — neither may stop it pickling or change a served byte."""
        cached, fresh = [p for p in small_site.resources if p.endswith(".jpg")][:2]
        node = make_node()
        first = node.handle(_request(small_site, cached))
        assert isinstance(first.body, memoryview)
        clone = pickle.loads(pickle.dumps(node))
        hit = clone.handle(_request(small_site, cached, t=1.0))
        assert hit.served_from_cache
        assert hit.body == first.body == small_site.resource(cached).body
        miss = clone.handle(_request(small_site, fresh, t=1.0))
        assert not miss.served_from_cache
        assert miss.body == node.handle(_request(small_site, fresh, t=1.0)).body

    def test_unknown_host_502(self, make_node):
        node = make_node()
        req = Request(
            method=Method.GET,
            url=Url.parse("http://unknown.example/x"),
            client_ip="10.0.0.5",
            headers=Headers([("User-Agent", "u")]),
        )
        assert node.handle(req).status == 502

    def test_rate_limit_503(self, make_node, small_site):
        node = make_node(
            rate_limit=RateLimitConfig(requests_per_second=1, burst=2)
        )
        node.handle(_request(small_site, small_site.home_path, t=0.0))
        node.handle(_request(small_site, small_site.home_path, t=0.0))
        resp = node.handle(_request(small_site, small_site.home_path, t=0.0))
        assert resp.status == 503
        assert node.stats.rate_limited == 1

    def test_policy_blocks_wrong_key_fetcher(self, make_node, small_site):
        node = make_node()
        node.handle(_request(small_site, small_site.home_path))
        probes = node.shard_for("10.0.0.5").detection.registry.outstanding(
            "10.0.0.5"
        )
        decoy = next(
            p
            for p in probes
            if p.kind is BeaconKind.MOUSE_IMAGE and not p.is_real_key
        )
        node.handle(_request(small_site, decoy.path, t=1.0))
        # Session is now blocked: further requests answer 403.
        resp = node.handle(_request(small_site, small_site.home_path, t=2.0))
        assert resp.status == 403
        assert node.stats.policy_blocked >= 1

    def test_housekeeping_runs(self, make_node, small_site):
        node = make_node()
        node.handle(_request(small_site, small_site.home_path))
        node.housekeeping(now=100000.0)
        assert node.detection.tracker.live_count == 0
        assert not any(
            len(shard.detection.registry) for shard in node.state_shards
        )


class TestShardedNode:
    """What a node answers for its shards: each piece of per-client
    state sits on ``shard_for(ip)`` and nowhere else."""

    IPS = [f"10.3.0.{i}" for i in range(40)]

    @pytest.mark.parametrize("shards", [1, 4])
    def test_verdicts_land_on_the_owning_shards_ladder(
        self, make_node, shards
    ):
        node = make_node(detection_shards=shards)
        assert node.ladder_for(self.IPS[0]) is None  # off until enabled
        node.enable_ladder()
        for step, ip in enumerate(self.IPS):
            # The live server's path: the node finds the owning ladder.
            node.ladder_for(ip).observe_verdict(ip, -1.0, float(step))
            owner = node.shard_for(ip)
            assert node.ladder_for(ip) is owner.ladder
            assert ip in owner.ladder.export_state()["ips"]
        per_shard = [
            shard.ladder.export_state() for shard in node.state_shards
        ]
        # Disjoint per shard, and together they hold every client.
        assert sum(len(state["ips"]) for state in per_shard) == len(self.IPS)
        merged = merge_ladder_states(per_shard)
        assert sorted(merged["ips"]) == sorted(self.IPS)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_tracker_view_sums_over_shards(
        self, make_node, small_site, shards
    ):
        node = make_node(detection_shards=shards)
        for ip in self.IPS:
            node.handle(_request(small_site, small_site.home_path, ip=ip))
        node.handle(  # one client returns after the idle rule: a rotation
            _request(small_site, small_site.home_path, ip=self.IPS[0], t=4000.0)
        )
        trackers = [s.detection.tracker for s in node.state_shards]
        tracker = node.detection.tracker
        assert tracker.live_count == len(self.IPS)
        assert tracker.live_count == sum(t.live_count for t in trackers)
        assert tracker.total_started == len(self.IPS) + 1
        assert tracker.total_started == sum(t.total_started for t in trackers)


class TestNetwork:
    def test_sticky_assignment(self, make_network):
        network = make_network(n_nodes=4)
        node = network.node_for("10.1.2.3")
        for _ in range(5):
            assert network.node_for("10.1.2.3") is node

    def test_different_ips_spread(self, make_network):
        network = make_network(n_nodes=4)
        nodes = {
            network.node_for(f"10.0.{i}.{j}").node_id
            for i in range(8)
            for j in range(8)
        }
        assert len(nodes) >= 2

    def test_handle_routes_and_aggregates(self, make_network, small_site):
        network = make_network(n_nodes=2)
        for i in range(6):
            network.handle(
                _request(small_site, small_site.home_path, ip=f"10.9.0.{i}")
            )
        stats = network.stats()
        assert stats.requests == 6
        assert stats.pages_instrumented == 6

    def test_finalize_collects_sessions(self, make_network, small_site):
        network = make_network(n_nodes=2)
        for i in range(12):
            network.handle(
                _request(small_site, small_site.home_path, ip="10.9.9.9",
                         t=float(i))
            )
        sessions = network.finalize_sessions()
        assert len(sessions) == 1
        assert sessions[0].request_count == 12

    def test_bandwidth_fractions(self, make_network, small_site):
        network = make_network(n_nodes=1)
        network.handle(_request(small_site, small_site.home_path))
        stats = network.stats()
        assert 0.0 <= stats.beacon_bandwidth_fraction <= 1.0
        assert stats.markup_bandwidth_fraction > 0.0


class TestMarkupBytes:
    """``instrumentation_markup_bytes`` is the rewritten body's length
    minus the origin body's.  Until PR 22 it was
    ``InstrumentedPage.added_bytes``, which encodes both documents again
    to subtract their lengths; on UTF-8 pages the two are one number."""

    def test_a_workload_counts_what_added_bytes_counted(
        self, make_network, entry_url, monkeypatch
    ):
        from repro.instrument.rewriter import PageInstrumenter
        from repro.util.rng import RngStream
        from repro.workload.engine import WorkloadConfig, WorkloadEngine
        from repro.workload.mixes import SMOKE

        instrument = PageInstrumenter.instrument
        added = []

        def spy(self, *args):
            result = instrument(self, *args)
            added.append(max(0, result.added_bytes))
            return result

        monkeypatch.setattr(PageInstrumenter, "instrument", spy)
        network = make_network(n_nodes=2)
        WorkloadEngine(
            network, SMOKE, entry_url, RngStream(22, "wl"),
            WorkloadConfig(n_sessions=40, captcha_enabled=False),
        ).run()
        stats = network.stats()
        assert stats.pages_instrumented == len(added) > 100
        assert stats.instrumentation_markup_bytes == sum(added)

    def test_a_non_utf8_origin_body_also_counts_its_replacement_characters(
        self, small_site
    ):
        from repro.http.message import Response
        from repro.proxy.node import ProxyNode
        from repro.util.rng import RngStream

        class FixedOrigin:
            def __init__(self, body):
                self.body = body

            def handle(self, request):
                headers = Headers([("Content-Type", "text/html")])
                return Response(status=200, headers=headers, body=self.body)

        def counted(body):
            node = ProxyNode(
                node_id="n", origins={small_site.host: FixedOrigin(body)},
                rng=RngStream(1, "node"),
            )
            response = node.handle(_request(small_site, "/p.html"))
            growth = node.stats.instrumentation_markup_bytes
            assert growth == len(response.body) - len(body)
            return growth

        latin1 = b"<html><head></head><body>caf\xe9 \xff</body></html>"
        ascii_only = latin1.replace(b"\xe9", b"e").replace(b"\xff", b"y")
        # Each of the two undecodable bytes comes back as U+FFFD: 3 bytes.
        assert counted(latin1) == counted(ascii_only) + 2 * 2
