"""Tests for repro.proxy.cache and repro.proxy.ratelimit."""

from __future__ import annotations

import pytest

from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.proxy.cache import ProxyCache
from repro.proxy.ratelimit import RateLimitConfig, TokenBucket, TokenBucketLimiter


def _request(path="/a.css", method=Method.GET):
    return Request(
        method=method,
        url=Url.parse(f"http://h.com{path}"),
        client_ip="1.1.1.1",
        headers=Headers(),
    )


def _response(ctype="text/css", status=200, uncacheable=False):
    headers = Headers([("Content-Type", ctype)])
    if uncacheable:
        headers.set("Cache-Control", "no-store")
    return Response(status=status, headers=headers, body=b"body")


class TestCache:
    def test_store_and_hit(self):
        cache = ProxyCache()
        assert cache.store(_request(), _response(), now=0.0)
        hit = cache.lookup(_request(), now=1.0)
        assert hit is not None
        assert hit.served_from_cache
        assert hit.body == b"body"

    def test_miss_before_store(self):
        cache = ProxyCache()
        assert cache.lookup(_request(), now=0.0) is None
        assert cache.stats.misses == 1

    def test_html_never_cached(self):
        cache = ProxyCache()
        assert not cache.store(
            _request("/p.html"), _response("text/html"), now=0.0
        )

    def test_uncacheable_header_respected(self):
        cache = ProxyCache()
        assert not cache.store(
            _request(), _response(uncacheable=True), now=0.0
        )

    def test_non_200_not_cached(self):
        cache = ProxyCache()
        assert not cache.store(_request(), _response(status=404), now=0.0)

    def test_non_get_not_cached(self):
        cache = ProxyCache()
        assert not cache.store(
            _request(method=Method.HEAD), _response(), now=0.0
        )
        assert cache.lookup(_request(method=Method.HEAD), now=0.0) is None

    def test_ttl_expiry(self):
        cache = ProxyCache(ttl=10.0)
        cache.store(_request(), _response(), now=0.0)
        assert cache.lookup(_request(), now=5.0) is not None
        assert cache.lookup(_request(), now=20.0) is None

    def test_lru_eviction(self):
        cache = ProxyCache(capacity=2)
        cache.store(_request("/a.css"), _response(), now=0.0)
        cache.store(_request("/b.css"), _response(), now=0.0)
        cache.lookup(_request("/a.css"), now=1.0)  # refresh a
        cache.store(_request("/c.css"), _response(), now=2.0)
        assert cache.lookup(_request("/a.css"), now=3.0) is not None
        assert cache.lookup(_request("/b.css"), now=3.0) is None
        assert cache.stats.evictions == 1

    def test_query_is_part_of_key(self):
        cache = ProxyCache()
        cache.store(_request("/i.jpg?v=1"), _response("image/jpeg"), now=0.0)
        assert cache.lookup(_request("/i.jpg?v=2"), now=0.0) is None

    def test_hit_rate(self):
        cache = ProxyCache()
        cache.store(_request(), _response(), now=0.0)
        cache.lookup(_request(), now=0.0)
        cache.lookup(_request("/other.css"), now=0.0)
        assert cache.stats.hit_rate == 0.5

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ProxyCache(capacity=0)
        with pytest.raises(ValueError):
            ProxyCache(ttl=0)

    def test_non_get_lookup_counts_miss(self):
        # Regression: the early return for non-GET requests skipped the
        # miss counter, overstating hit_rate on POST-heavy workloads.
        cache = ProxyCache()
        cache.store(_request(), _response(), now=0.0)
        assert cache.lookup(_request(), now=0.0) is not None
        assert cache.lookup(_request(method=Method.POST), now=0.0) is None
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lazy_expiry_counts_expired(self):
        cache = ProxyCache(ttl=10.0)
        cache.store(_request(), _response(), now=0.0)
        assert cache.lookup(_request(), now=20.0) is None
        assert cache.stats.expired == 1
        assert cache.stats.misses == 1
        assert cache.stats.evictions == 0

    def test_sweep_removes_only_expired(self):
        cache = ProxyCache(ttl=10.0)
        cache.store(_request("/old.css"), _response(), now=0.0)
        cache.store(_request("/new.css"), _response(), now=15.0)
        assert cache.sweep(now=20.0) == 1
        assert len(cache) == 1
        assert cache.stats.expired == 1
        assert cache.lookup(_request("/new.css"), now=20.0) is not None

    def test_sweep_when_nothing_expired(self):
        cache = ProxyCache(ttl=10.0)
        cache.store(_request(), _response(), now=0.0)
        assert cache.sweep(now=5.0) == 0
        assert len(cache) == 1
        assert cache.stats.expired == 0


class TestTokenBucket:
    def test_burst_then_deny(self):
        bucket = TokenBucket(RateLimitConfig(requests_per_second=1, burst=3))
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)

    def test_refill(self):
        bucket = TokenBucket(RateLimitConfig(requests_per_second=2, burst=2))
        bucket.try_acquire(0.0)
        bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert bucket.try_acquire(1.0)  # 2 tokens refilled after 1s

    def test_capacity_capped(self):
        bucket = TokenBucket(RateLimitConfig(requests_per_second=10, burst=5))
        assert bucket.try_acquire(100.0)
        assert bucket.tokens <= 5

    def test_invalid_cost(self):
        bucket = TokenBucket(RateLimitConfig())
        with pytest.raises(ValueError):
            bucket.try_acquire(0.0, cost=0)

    def test_out_of_order_timestamp_never_rewinds_refill_clock(self):
        # Regression: a stale `now` (heap-merged multi-node traces
        # deliver them) used to rewind _updated_at, so the next in-order
        # request re-credited an already-credited refill window.
        bucket = TokenBucket(
            RateLimitConfig(requests_per_second=1, burst=1), now=0.0
        )
        assert bucket.try_acquire(10.0)  # drained at t=10
        assert not bucket.try_acquire(5.0)  # stale arrival: no refill
        # Only 0.5s really elapsed since the t=10 drain; with the rewind
        # bug this acquire saw 5.5s of refill and wrongly succeeded.
        assert not bucket.try_acquire(10.5)
        assert bucket.try_acquire(11.0)  # a full second elapsed: refilled

    def test_out_of_order_arrivals_cannot_mint_tokens(self):
        bucket = TokenBucket(
            RateLimitConfig(requests_per_second=1, burst=2), now=0.0
        )
        assert bucket.try_acquire(100.0)
        assert bucket.try_acquire(100.0)  # burst drained at t=100
        granted = sum(
            bucket.try_acquire(t) for t in (99.0, 98.0, 97.0, 100.0)
        )
        assert granted == 0

    def test_replenished(self):
        bucket = TokenBucket(
            RateLimitConfig(requests_per_second=1, burst=4), now=0.0
        )
        assert bucket.replenished(0.0)  # starts full
        bucket.try_acquire(0.0)  # 1-token deficit refills in 1s
        assert not bucket.replenished(0.5)
        assert bucket.replenished(1.0)


class TestLimiter:
    def test_per_ip_isolation(self):
        limiter = TokenBucketLimiter(
            RateLimitConfig(requests_per_second=1, burst=1)
        )
        assert limiter.allow("1.1.1.1", 0.0)
        assert not limiter.allow("1.1.1.1", 0.0)
        assert limiter.allow("2.2.2.2", 0.0)
        assert limiter.denied == 1
        assert limiter.allowed == 2

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            RateLimitConfig(requests_per_second=0)
        with pytest.raises(ValueError):
            RateLimitConfig(burst=0)

    def test_evicts_replenished_buckets(self):
        # Regression: one bucket per client IP lived forever, an
        # unbounded leak under replays with millions of distinct IPs.
        limiter = TokenBucketLimiter(
            RateLimitConfig(requests_per_second=1, burst=2)
        )
        for i in range(100):
            limiter.allow(f"10.0.0.{i}", 0.0)
        assert len(limiter) == 100
        evicted = limiter.evict_replenished(now=10.0)
        assert evicted == 100
        assert len(limiter) == 0
        assert limiter.evicted == 100

    def test_eviction_spares_still_draining_buckets(self):
        limiter = TokenBucketLimiter(
            RateLimitConfig(requests_per_second=1, burst=2)
        )
        limiter.allow("1.1.1.1", 0.0)  # 1-token deficit: full at t=1
        limiter.allow("2.2.2.2", 0.0)
        limiter.allow("2.2.2.2", 0.0)  # 2-token deficit: full at t=2
        assert limiter.evict_replenished(now=1.5) == 1
        assert len(limiter) == 1
        assert limiter.evict_replenished(now=2.0) == 1
        assert len(limiter) == 0

    def test_eviction_does_not_change_decisions(self):
        limiter = TokenBucketLimiter(
            RateLimitConfig(requests_per_second=1, burst=2)
        )
        limiter.allow("1.1.1.1", 0.0)
        limiter.evict_replenished(now=100.0)
        # A fresh lazily recreated bucket behaves like the replenished
        # one it replaced: full burst available, then denial.
        assert limiter.allow("1.1.1.1", 100.0)
        assert limiter.allow("1.1.1.1", 100.0)
        assert not limiter.allow("1.1.1.1", 100.0)

    def test_eviction_neutral_for_out_of_order_arrivals(self):
        # Drain at t=100, sweep at t=102 (the bucket is replenished and
        # evicted), then a stale t=99 record arrives.  The recreated
        # bucket starts at the limiter's high-water timestamp (102), so
        # the stale request sees exactly the full-burst state a
        # surviving bucket would have after the sweep's eager refresh —
        # and the refill clock cannot rewind to mint extra credit.
        limiter = TokenBucketLimiter(
            RateLimitConfig(requests_per_second=1, burst=2)
        )
        assert limiter.allow("1.1.1.1", 100.0)
        assert limiter.allow("1.1.1.1", 100.0)
        assert limiter.evict_replenished(now=102.0) == 1
        assert limiter.allow("1.1.1.1", 99.0)
        assert limiter.allow("1.1.1.1", 99.0)
        assert not limiter.allow("1.1.1.1", 99.0)
        # Refill accrues from the watermark (102), not the stale clock.
        assert not limiter.allow("1.1.1.1", 102.5)
        assert limiter.allow("1.1.1.1", 103.0)

    def test_sweep_eagerly_refreshes_survivors(self):
        # A kept bucket is advanced to sweep time, so post-sweep stale
        # arrivals see the same state whether or not their bucket was
        # evictable — eviction stays decision-neutral.
        limiter = TokenBucketLimiter(
            RateLimitConfig(requests_per_second=1, burst=4)
        )
        for _ in range(4):
            limiter.allow("1.1.1.1", 0.0)
        assert limiter.evict_replenished(now=2.0) == 0
        assert limiter.allow("1.1.1.1", 1.0)  # 2 tokens accrued by t=2
        assert limiter.allow("1.1.1.1", 1.0)
        assert not limiter.allow("1.1.1.1", 1.0)


class TestNodeHousekeeping:
    def test_housekeeping_sweeps_cache_and_limiter(self):
        from repro.proxy.node import ProxyNode
        from repro.util.rng import RngStream

        node = ProxyNode(
            node_id="n0",
            origins={},
            rng=RngStream(1, "housekeeping-test"),
            rate_limit=RateLimitConfig(),
        )
        request = _request()
        node.handle(request)  # creates this client's bucket
        shard = node.shard_for(request.client_ip)
        shard.cache.store(_request(), _response(), now=0.0)
        assert len(shard.limiter) == 1
        assert len(shard.cache) == 1
        node.housekeeping(now=1e9)
        assert len(shard.limiter) == 0
        assert len(shard.cache) == 0
