"""Partitioned node state: a sharded node's per-shard probe tables,
limiters and caches against the one-shard node's.

The eviction-equivalence tests are the regression guard for the PR 2
unbounded-state fixes: partitioning a store must never change *what*
housekeeping removes — every entry the unpartitioned sweep would evict
is evicted exactly once by the per-shard sweeps, and nothing else.
"""

from __future__ import annotations

import pickle

import pytest

from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.proxy.node import ProxyNode
from repro.proxy.ratelimit import RateLimitConfig
from repro.util.rng import RngStream

N_IPS = 10_000


def _ips(n=N_IPS):
    return [f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}" for i in range(n)]


def _probe(client_ip, key, issued_at=0.0):
    return RegisteredProbe(
        kind=BeaconKind.CSS_BEACON,
        client_ip=client_ip,
        host="site.test",
        path=f"/probe-{key}.css",
        page_path="/page.html",
        issued_at=issued_at,
        key=key,
    )


def _register(node, probe):
    """Register a journaled probe on the shard owning its client."""
    node.shard_for(probe.client_ip).register_page([probe])


def _request(client_ip, path="/a.css", timestamp=0.0):
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://site.test{path}"),
        client_ip=client_ip,
        headers=Headers([("User-Agent", "UA")]),
        timestamp=timestamp,
    )


def _response():
    return Response(
        status=200,
        headers=Headers([("Content-Type", "text/css")]),
        body=b"body{}",
    )


class TestPartitionedRegistry:
    """A node's probe table is one plain registry per shard, reached
    through the node's IP router."""

    def test_routes_and_merges(self):
        node = _node(shards=4)
        for i, ip in enumerate(_ips(64)):
            _register(node, _probe(ip, f"k{i}"))
        tables = [shard.detection.registry for shard in node.state_shards]
        assert sum(len(table) for table in tables) == 64
        assert all(len(table) for table in tables)
        for ip in _ips(64):
            owner = node.shard_for(ip).detection.registry
            assert [p.client_ip for p in owner.outstanding(ip)] == [ip]
            assert sum(len(table.outstanding(ip)) for table in tables) == 1

    def test_listeners_fire_once_per_registration(self):
        node = _node(shards=2)
        seen = []
        node.add_probe_listener(seen.extend)
        node.shard_detection(4)  # the rebuilt tables keep the listener
        assert node.probe_listeners == (seen.extend,)
        for i, ip in enumerate(_ips(32)):
            _register(node, _probe(ip, f"k{i}"))
        assert len(seen) == 32
        node.remove_probe_listener(seen.extend)
        assert node.probe_listeners == ()
        _register(node, _probe("203.0.113.1", "unheard"))
        assert len(seen) == 32

    def test_expiry_equivalent_to_unpartitioned(self):
        """Million-IP-style slice: shard-wise sweeps remove exactly the
        entries one big sweep would — none skipped, none double."""
        flat = InstrumentationRegistry()
        node = _node(shards=16)
        for i, ip in enumerate(_ips()):
            probe = _probe(ip, f"k{i}", issued_at=float(i % 500) - 3500.0)
            flat.register(probe)
            _register(node, probe)

        def survivors():
            return sorted(
                p.key
                for shard in node.state_shards
                for p in shard.detection.registry.iter_probes()
            )

        assert len(survivors()) == len(flat)
        assert 0 < flat.expire_before(now=350.0) < len(survivors())
        node.housekeeping(now=350.0)
        assert survivors() == sorted(p.key for p in flat.iter_probes())

    def test_validation(self):
        with pytest.raises(ValueError):
            _node(shards=0)
        with pytest.raises(ValueError):
            _node().shard_detection(0)


class _StaticOrigin:
    """Answers every request with one small cacheable stylesheet."""

    def handle(self, request):
        return _response()


def _node(shards=1, rate_limit=None):
    return ProxyNode(
        node_id="n0",
        origins={"site.test": _StaticOrigin()},
        rng=RngStream(1, "stores-test"),
        rate_limit=rate_limit,
        instrument_enabled=False,
        detection_shards=shards,
    )


def _limiter_totals(node):
    limiters = [shard.limiter for shard in node.state_shards]
    return {
        "buckets": sum(len(l) for l in limiters),
        "allowed": sum(l.allowed for l in limiters),
        "denied": sum(l.denied for l in limiters),
        "evicted": sum(l.evicted for l in limiters),
    }


def _cache_totals(node):
    caches = [shard.cache for shard in node.state_shards]
    return {
        "entries": sum(len(c) for c in caches),
        "insertions": sum(c.stats.insertions for c in caches),
        "expired": sum(c.stats.expired for c in caches),
        "evictions": sum(c.stats.evictions for c in caches),
    }


class TestPartitionedLimiter:
    """A sharded node's rate limiting is one plain limiter per shard;
    decisions and evictions must equal the one-limiter node's."""

    CONFIG = RateLimitConfig(requests_per_second=1, burst=2)

    def test_partition_local_decisions(self):
        node = _node(shards=4, rate_limit=self.CONFIG)
        ip = "192.0.2.50"
        statuses = [node.handle(_request(ip)).status for _ in range(3)]
        assert statuses == [200, 200, 503]  # burst exhausted
        owner = node.shard_for(ip).limiter
        assert len(owner) == 1
        assert owner.config is self.CONFIG
        assert _limiter_totals(node) == {
            "buckets": 1, "allowed": 2, "denied": 1, "evicted": 0,
        }

    def test_decisions_match_unpartitioned(self):
        flat = _node(rate_limit=self.CONFIG)
        sharded = _node(shards=8, rate_limit=self.CONFIG)
        for step in range(3):
            for ip in _ips(300) * 2:  # two a second: the second step denies
                request = _request(ip, timestamp=float(step))
                assert (
                    flat.handle(request).status
                    == sharded.handle(request).status
                )
        assert _limiter_totals(flat)["denied"] > 0
        assert _limiter_totals(flat) == _limiter_totals(sharded)
        assert flat.stats.rate_limited == sharded.stats.rate_limited

    def test_eviction_equivalent_to_unpartitioned(self):
        flat = _node(rate_limit=self.CONFIG)
        sharded = _node(shards=16, rate_limit=self.CONFIG)
        for i, ip in enumerate(_ips()):
            request = _request(ip, timestamp=float(i % 700))
            flat.handle(request)
            sharded.handle(request)
        assert _limiter_totals(flat) == _limiter_totals(sharded)
        flat.housekeeping(now=900.0)
        sharded.housekeeping(now=900.0)
        totals = _limiter_totals(flat)
        assert totals["evicted"] > 0
        assert _limiter_totals(sharded) == totals


class TestPartitionedCache:
    """A sharded node's cache is one plain cache per shard, filled only
    by the clients that shard owns."""

    def test_routes_by_client_ip(self):
        node = _node(shards=4)
        ip = "192.0.2.9"
        first = node.handle(_request(ip))
        again = node.handle(_request(ip, timestamp=1.0))
        assert not first.served_from_cache and again.served_from_cache
        owner = node.shard_for(ip).cache
        assert len(owner) == 1
        assert (owner.stats.hits, owner.stats.misses) == (1, 1)
        assert _cache_totals(node)["entries"] == 1

    def test_capacity_divides_across_partitions(self):
        # Ceiling division of the node's 4096-entry budget; a ceiling is
        # never below one entry, so no shard count can starve a cache.
        for shards in (1, 3, 4, 8):
            node = _node(shards=shards)
            n = node.n_state_shards
            assert n == shards
            per_shard = -(-4096 // n)
            assert per_shard >= 1
            assert [s.cache._capacity for s in node.state_shards] == [
                per_shard
            ] * n

    def test_sweep_equivalent_to_unpartitioned(self):
        flat = _node()
        sharded = _node(shards=16)
        for i, ip in enumerate(_ips(2000)):
            # Stored over ~3.3 virtual hours: the housekeeping sweep at
            # 2.5 h finds some entries past the 1-hour TTL, some not.
            request = _request(
                ip, path=f"/obj{i}.css", timestamp=(i % 300) * 40.0
            )
            flat.handle(request)
            sharded.handle(request)
        assert _cache_totals(flat) == _cache_totals(sharded)
        flat.housekeeping(now=9000.0)
        sharded.housekeeping(now=9000.0)
        totals = _cache_totals(flat)
        assert 0 < totals["expired"] < totals["insertions"]
        assert totals["evictions"] == 0
        assert _cache_totals(sharded) == totals


class TestPickleSafety:
    """Everything that rides a LaneResult or ships to a process lane
    must round-trip through pickle with its state intact."""

    def test_partitioned_stores_round_trip(self):
        # A shard's own stores travel with the shard.
        node = _node(shards=4, rate_limit=RateLimitConfig())
        _register(node, _probe("192.0.2.1", "k-travels"))
        node.handle(_request("192.0.2.1"))
        shard = pickle.loads(pickle.dumps(node.shard_for("192.0.2.1")))
        assert [p.key for p in shard.detection.registry.iter_probes()] == [
            "k-travels"
        ]
        assert shard.limiter.allowed == 1
        assert len(shard.cache) == 1
        assert shard.cache.lookup(_request("192.0.2.1"), now=1.0) is not None

    def test_node_and_shards_round_trip(self):
        node = ProxyNode(
            node_id="n0",
            origins={},
            rng=RngStream(1, "pickle-test"),
            rate_limit=RateLimitConfig(),
            detection_shards=4,
        )
        node.handle(_request("192.0.2.77", path="/x.html"))
        clone = pickle.loads(pickle.dumps(node))
        assert clone.stats.requests == 1
        assert clone.n_state_shards == 4
        for shard in node.state_shards:
            revived = pickle.loads(pickle.dumps(shard))
            assert revived.shard_id == shard.shard_id
            assert revived.stats.requests == shard.stats.requests

    def test_lane_workers_round_trip(self):
        from repro.agents.base import SessionBudget
        from repro.captcha.service import CaptchaConfig
        from repro.ingress.workers import (
            ReplayLaneWorker,
            WorkloadLaneWorker,
        )

        node = ProxyNode(
            node_id="n0",
            origins={},
            rng=RngStream(2, "pickle-test"),
            detection_shards=2,
        )
        for lane, shard in enumerate(node.state_shards):
            replay = ReplayLaneWorker(lane, shard)
            assert pickle.loads(pickle.dumps(replay)).lane == lane
            workload = WorkloadLaneWorker(
                lane,
                shard,
                budget=SessionBudget(),
                collect_features=False,
                housekeeping_interval=600.0,
                captcha_enabled=False,
                captcha_config=CaptchaConfig(),
                captcha_rng=RngStream(3, "captcha"),
            )
            assert pickle.loads(pickle.dumps(workload)).lane == lane
