"""Per-client token-bucket rate limiting.

CoDeeN applied rate limiting and privilege separation before this paper's
techniques existed (Wang et al. 2004); the paper then "enforced aggressive
rate limiting on the robot traffic" once sessions were classified.  The
token bucket here is the generic substrate; the classification-driven
thresholds live in :class:`repro.detection.session.PolicyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RateLimitConfig:
    """Bucket parameters: sustained rate and burst capacity."""

    requests_per_second: float = 10.0
    burst: float = 40.0

    def __post_init__(self) -> None:
        if self.requests_per_second <= 0:
            raise ValueError("requests_per_second must be positive")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")


class TokenBucket:
    """A single token bucket."""

    __slots__ = ("_capacity", "_rate", "_tokens", "_updated_at")

    def __init__(self, config: RateLimitConfig, now: float = 0.0) -> None:
        self._rate = config.requests_per_second
        self._capacity = config.burst
        self._tokens = config.burst
        self._updated_at = now

    @property
    def tokens(self) -> float:
        """Tokens currently available (as of the last update)."""
        return self._tokens

    def try_acquire(self, now: float, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens if available; refills lazily.

        Out-of-order timestamps (merged multi-node logs deliver them)
        never rewind the refill clock: a stale ``now`` earns no refill
        and leaves ``_updated_at`` where it was, so the next in-order
        request cannot re-credit a window that was already credited.
        """
        if cost <= 0:
            raise ValueError("cost must be positive")
        elapsed = max(0.0, now - self._updated_at)
        self._tokens = min(self._capacity, self._tokens + elapsed * self._rate)
        self._updated_at = max(self._updated_at, now)
        if self._tokens >= cost:
            self._tokens -= cost
            return True
        return False

    def refresh(self, now: float) -> None:
        """Apply the lazy refill eagerly (no tokens taken)."""
        elapsed = max(0.0, now - self._updated_at)
        self._tokens = min(self._capacity, self._tokens + elapsed * self._rate)
        self._updated_at = max(self._updated_at, now)

    def replenished(self, now: float) -> bool:
        """True when the bucket would be full again at ``now``.

        A full bucket is indistinguishable from a fresh one, so it can
        be dropped and lazily recreated without changing any decision.
        """
        deficit = self._capacity - self._tokens
        return max(0.0, now - self._updated_at) * self._rate >= deficit


class TokenBucketLimiter:
    """One bucket per client IP, evictable once idle.

    Buckets are created lazily, and :meth:`evict_replenished` (run from
    proxy housekeeping) drops every bucket that has idled long enough to
    refill completely — otherwise a week-long replay over millions of
    client IPs grows the table without bound for clients that sent one
    request and left.

    Eviction is decision-neutral even under out-of-order timestamps: a
    sweep eagerly refreshes the buckets it keeps and new buckets are
    created at the limiter's high-water timestamp, so a bucket that was
    evicted-then-recreated and one that merely survived the sweep are in
    the identical state — a stale arrival cannot observe whether its
    bucket was dropped.
    """

    def __init__(self, config: RateLimitConfig | None = None) -> None:
        self._config = config or RateLimitConfig()
        self._buckets: dict[str, TokenBucket] = {}
        self._watermark = 0.0
        self.denied = 0
        self.allowed = 0
        self.evicted = 0

    @property
    def config(self) -> RateLimitConfig:
        """The bucket parameters."""
        return self._config

    def __len__(self) -> int:
        return len(self._buckets)

    def allow(self, client_ip: str, now: float) -> bool:
        """True when the client may proceed with one more request."""
        self._watermark = max(self._watermark, now)
        bucket = self._buckets.get(client_ip)
        if bucket is None:
            bucket = TokenBucket(self._config, self._watermark)
            self._buckets[client_ip] = bucket
        if bucket.try_acquire(now):
            self.allowed += 1
            return True
        self.denied += 1
        return False

    def evict_replenished(self, now: float) -> int:
        """Drop buckets that refilled to capacity; returns how many."""
        self._watermark = max(self._watermark, now)
        stale = []
        for client_ip, bucket in self._buckets.items():
            if bucket.replenished(now):
                stale.append(client_ip)
            else:
                bucket.refresh(now)
        for client_ip in stale:
            del self._buckets[client_ip]
        self.evicted += len(stale)
        return len(stale)
