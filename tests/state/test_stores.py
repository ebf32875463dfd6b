"""Partitioned node state: the probe-registry facade, and a sharded
node's per-shard limiters and caches against the unsharded node's.

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
from repro.state.stores import PartitionedRegistry
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
    def test_routes_and_merges(self):
        registry = PartitionedRegistry.build(4, ttl=100.0, per_ip_cap=8)
        for i, ip in enumerate(_ips(64)):
            registry.register(_probe(ip, f"k{i}"))
        assert len(registry) == 64
        assert sum(len(p) for p in registry.partitions) == 64
        for ip in _ips(64):
            owner = registry.partition(registry.index_for(ip))
            assert registry.outstanding(ip) == owner.outstanding(ip)
        assert registry.ttl == 100.0
        assert registry.per_ip_cap == 8

    def test_listeners_fire_once_per_registration(self):
        registry = PartitionedRegistry.build(4)
        seen = []
        registry.add_listener(seen.append)
        assert registry.has_listeners
        for i, ip in enumerate(_ips(32)):
            registry.register(_probe(ip, f"k{i}"))
        assert len(seen) == 32
        registry.remove_listener(seen.append)
        assert not registry.has_listeners

    def test_migrate_preserves_probes_without_refiring(self):
        source = InstrumentationRegistry(ttl=50.0, per_ip_cap=8)
        journal = []
        source.add_listener(journal.append)
        for i in range(6):  # same IP: exercises per-IP FIFO order
            source.register(_probe("198.51.100.7", f"k{i}", issued_at=i))
        fired_before = len(journal)
        rebuilt = PartitionedRegistry.migrate(source, 8)
        assert len(journal) == fired_before  # load() never re-fires
        assert rebuilt.ttl == 50.0
        assert rebuilt.per_ip_cap == 8
        # FIFO order per IP survives the move (eviction order depends
        # on it).
        assert [p.key for p in rebuilt.outstanding("198.51.100.7")] == [
            p.key for p in source.outstanding("198.51.100.7")
        ]
        # The journal listener rides along into every partition.
        rebuilt.register(_probe("203.0.113.1", "fresh"))
        assert len(journal) == fired_before + 1

    def test_expiry_equivalent_to_unpartitioned(self):
        """Million-IP-style slice: partition-wise sweeps remove exactly
        the entries one big sweep would — none skipped, none double."""
        flat = InstrumentationRegistry(ttl=100.0)
        for i, ip in enumerate(_ips()):
            flat.register(_probe(ip, f"k{i}", issued_at=float(i % 500)))
        partitioned = PartitionedRegistry.migrate(flat, 16)
        assert len(partitioned) == len(flat)

        expected = flat.expire_before(now=350.0)
        removed = partitioned.expire_before(now=350.0)
        assert removed == expected
        assert len(partitioned) == len(flat)
        survivors = sorted(p.key for p in partitioned.iter_probes())
        assert survivors == sorted(p.key for p in flat.iter_probes())

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionedRegistry([])


class _StaticOrigin:
    """Answers every request with one small cacheable stylesheet."""

    def handle(self, request):
        return _response()


def _node(shards=0, rate_limit=None):
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
        for shards in (0, 1, 3, 4, 8):
            node = _node(shards=shards)
            n = node.n_state_shards
            assert n == max(1, shards)
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
        registry = PartitionedRegistry.build(4)
        for i, ip in enumerate(_ips(32)):
            registry.register(_probe(ip, f"k{i}"))
        registry2 = pickle.loads(pickle.dumps(registry))
        assert len(registry2) == 32
        assert registry2.index_for("192.0.2.1") == registry.index_for(
            "192.0.2.1"
        )
        # A shard's own stores travel with the shard.
        node = _node(shards=4, rate_limit=RateLimitConfig())
        node.handle(_request("192.0.2.1"))
        shard = pickle.loads(pickle.dumps(node.shard_for("192.0.2.1")))
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
        for lane, state in enumerate(node.lane_states(2)):
            replay = ReplayLaneWorker(lane, state)
            assert pickle.loads(pickle.dumps(replay)).lane == lane
            workload = WorkloadLaneWorker(
                lane,
                state,
                budget=SessionBudget(),
                collect_features=False,
                housekeeping_interval=600.0,
                captcha_enabled=False,
                captcha_config=CaptchaConfig(),
                captcha_rng=RngStream(3, "captcha"),
            )
            assert pickle.loads(pickle.dumps(workload)).lane == lane
