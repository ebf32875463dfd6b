"""Proxy object cache.

Only static, non-HTML 200 responses are cached: HTML is rewritten
per-client by the instrumenter (and marked no-store), so caching it would
leak one client's beacons to another — the exact reason the paper marks
instrumented objects uncacheable.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from repro.http.content import ContentKind
from repro.http.message import Method, Request, Response

_GET = Method.GET
#: Static kinds a proxy may share between clients (never HTML).
_CACHEABLE_KINDS = frozenset((
    ContentKind.CSS, ContentKind.JAVASCRIPT, ContentKind.IMAGE,
    ContentKind.AUDIO, ContentKind.OTHER,
))


@dataclass
class CacheStats:
    """Hit/miss counters.

    ``evictions`` counts capacity-driven LRU drops; ``expired`` counts
    TTL-driven removals (lazy, on lookup, or swept by housekeeping) —
    kept separate so a mis-sized cache and a mis-set TTL are
    distinguishable in reports.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expired: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Entry(NamedTuple):
    #: The stored response as every hit serves it (``served_from_cache``).
    response: Response
    stored_at: float


class ProxyCache:
    """LRU cache keyed by (host, path, query) with a TTL."""

    def __init__(self, capacity: int = 4096, ttl: float = 3600.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self._capacity = capacity
        self._ttl = ttl
        self._entries: OrderedDict[tuple[str, str, str], _Entry] = OrderedDict()
        self.stats = CacheStats()

    @staticmethod
    def _key(request: Request) -> tuple[str, str, str]:
        return (request.url.host, request.url.path, request.url.query)

    def lookup(self, request: Request, now: float) -> Response | None:
        """Return a cached response for the request, if fresh.

        Every lookup that is not served from cache counts as a miss —
        including non-GET requests, which can never be cached but are
        still lookups; skipping them (the old behaviour) overstated
        ``hit_rate`` on POST-heavy workloads.
        """
        if request.method is not _GET:
            self.stats.misses += 1
            return None
        key = self._key(request)
        entry = self._entries.get(key)
        if entry is None or now - entry.stored_at > self._ttl:
            if entry is not None:
                del self._entries[key]
                self.stats.expired += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.response

    def store(
        self, request: Request, response: Response, now: float,
        kind: ContentKind | None = None,
    ) -> bool:
        """Cache the response if it is cacheable; returns True when stored.

        ``kind`` is ``response.content_kind`` when the caller has read it.
        Every hit shares the one stored response, headers and body
        included: nothing may edit a served response in place.
        """
        if not self._cacheable(request, response, kind):
            return False
        key = self._key(request)
        self._entries[key] = tuple.__new__(_Entry, (
            Response(response.status, response.headers, response.body, True), now
        ))
        self._entries.move_to_end(key)
        self.stats.insertions += 1
        while len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        return True

    def sweep(self, now: float) -> int:
        """Drop every expired entry; returns how many were removed.

        Run from proxy housekeeping so entries that are never looked up
        again do not linger for the life of the node — lazy expiry alone
        only reclaims keys that stay popular enough to be re-requested.
        """
        stale = [
            key
            for key, entry in self._entries.items()
            if now - entry.stored_at > self._ttl
        ]
        for key in stale:
            del self._entries[key]
        self.stats.expired += len(stale)
        return len(stale)

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _cacheable(
        request: Request, response: Response, kind: ContentKind | None
    ) -> bool:
        if request.method is not _GET or response.status != 200:
            return False
        if response.headers.is_uncacheable():
            return False
        return (kind or response.content_kind) in _CACHEABLE_KINDS
