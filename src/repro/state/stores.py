"""Routing facades over IP-partitioned copies of the node state stores.

Each facade owns N independent instances of the underlying store and
routes every keyed operation to the partition
:func:`repro.state.partition.partition_index` assigns the client IP.
Unkeyed operations (sweeps, stats, lengths) fan out and merge.

Two properties the rest of the system leans on:

* **Containment** — the router and the sharded detection service use
  the *same* hash, so a lane that carries partition ``i`` holds every
  piece of state the requests routed to it can touch.  That is what
  lets process lanes run one-per-shard instead of one-per-node.
* **Lane-count invariance** — partition-local state evolves as a pure
  function of that partition's own event subsequence, which is the
  same whether one lane consumes all partitions in admission order or
  P lanes consume one each.  Results cannot depend on lane layout.

Everything here is plain-data and pickles cleanly (the process
executor ships partitions to child interpreters inside lane state).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.state.partition import PartitionMap

if TYPE_CHECKING:  # leaf package: the store types are imported lazily
    from repro.http.message import Request, Response
    from repro.instrument.keys import (
        BeaconHit,
        InstrumentationRegistry,
        RegisteredProbe,
    )
    from repro.overload.ladder import ResponseLadder
    from repro.proxy.cache import CacheStats, ProxyCache
    from repro.proxy.ratelimit import RateLimitConfig, TokenBucketLimiter


class PartitionedRegistry:
    """N per-IP probe tables behind the :class:`InstrumentationRegistry` API.

    Listeners attach to every partition so registrations are journaled
    no matter which partition (or which lane) performs them.
    """

    def __init__(self, partitions: list[InstrumentationRegistry]) -> None:
        if not partitions:
            raise ValueError("need at least one registry partition")
        self._partitions = partitions
        self._map = PartitionMap(len(partitions))

    @classmethod
    def build(
        cls,
        n_partitions: int,
        ttl: float = 3600.0,
        per_ip_cap: int = 512,
    ) -> "PartitionedRegistry":
        """Create ``n_partitions`` empty registries with shared bounds."""
        from repro.instrument.keys import InstrumentationRegistry

        return cls(
            [
                InstrumentationRegistry(ttl=ttl, per_ip_cap=per_ip_cap)
                for _ in range(n_partitions)
            ]
        )

    @classmethod
    def migrate(
        cls,
        source: "InstrumentationRegistry | PartitionedRegistry",
        n_partitions: int,
    ) -> "PartitionedRegistry":
        """Re-partition an existing registry's probes and listeners.

        Probes move via :meth:`InstrumentationRegistry.load` (listeners
        do not re-fire — the entries were journaled when first
        registered), preserving per-IP FIFO order so eviction behaves
        identically in the new layout.
        """
        rebuilt = cls.build(
            n_partitions, ttl=source.ttl, per_ip_cap=source.per_ip_cap
        )
        for listener in source.listeners:
            rebuilt.add_listener(listener)
        for probe in source.iter_probes():
            rebuilt.load(probe)
        return rebuilt

    # -- partition access --------------------------------------------------

    @property
    def n_partitions(self) -> int:
        return self._map.n_partitions

    @property
    def partitions(self) -> list[InstrumentationRegistry]:
        """The underlying per-partition registries, in partition order."""
        return self._partitions

    def partition(self, index: int) -> InstrumentationRegistry:
        return self._partitions[index]

    def index_for(self, client_ip: str) -> int:
        return self._map.index_for(client_ip)

    # -- InstrumentationRegistry API ---------------------------------------

    @property
    def ttl(self) -> float:
        return self._partitions[0].ttl

    @property
    def per_ip_cap(self) -> int:
        return self._partitions[0].per_ip_cap

    @property
    def listeners(self) -> tuple[Callable[[RegisteredProbe], None], ...]:
        return self._partitions[0].listeners

    @property
    def has_listeners(self) -> bool:
        return any(p.has_listeners for p in self._partitions)

    def add_listener(
        self, listener: Callable[[RegisteredProbe], None]
    ) -> None:
        for p in self._partitions:
            p.add_listener(listener)

    def remove_listener(
        self, listener: Callable[[RegisteredProbe], None]
    ) -> None:
        for p in self._partitions:
            p.remove_listener(listener)

    def register_page(self, probes: Sequence[RegisteredProbe]) -> None:
        if probes:  # one page, one client IP, one owning partition
            owner = self.index_for(probes[0].client_ip)
            self._partitions[owner].register_page(probes)

    def register(self, probe: RegisteredProbe) -> None:
        self._partitions[self.index_for(probe.client_ip)].register(probe)

    def load(self, probe: RegisteredProbe) -> None:
        self._partitions[self.index_for(probe.client_ip)].load(probe)

    def match(
        self, request: Request, now: float | None = None
    ) -> BeaconHit | None:
        return self._partitions[self.index_for(request.client_ip)].match(
            request, now
        )

    def outstanding(self, client_ip: str) -> list[RegisteredProbe]:
        return self._partitions[self.index_for(client_ip)].outstanding(
            client_ip
        )

    def iter_probes(self) -> Iterator[RegisteredProbe]:
        for p in self._partitions:
            yield from p.iter_probes()

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    def expire_before(self, now: float) -> int:
        return sum(p.expire_before(now) for p in self._partitions)


class PartitionedLimiter:
    """N token-bucket limiters behind the :class:`TokenBucketLimiter` API.

    Watermarks (the timestamp new buckets are created at) become
    partition-local, which is exactly what keeps limiter decisions
    invariant to lane layout: a partition's watermark depends only on
    that partition's own request subsequence.
    """

    def __init__(
        self, config: RateLimitConfig | None, n_partitions: int
    ) -> None:
        from repro.proxy.ratelimit import TokenBucketLimiter

        self._map = PartitionMap(n_partitions)
        self._partitions = [
            TokenBucketLimiter(config) for _ in range(n_partitions)
        ]

    @property
    def n_partitions(self) -> int:
        return self._map.n_partitions

    @property
    def partitions(self) -> list[TokenBucketLimiter]:
        return self._partitions

    def partition(self, index: int) -> TokenBucketLimiter:
        return self._partitions[index]

    def index_for(self, client_ip: str) -> int:
        return self._map.index_for(client_ip)

    # -- TokenBucketLimiter API --------------------------------------------

    @property
    def config(self) -> RateLimitConfig:
        return self._partitions[0].config

    @property
    def allowed(self) -> int:
        return sum(p.allowed for p in self._partitions)

    @property
    def denied(self) -> int:
        return sum(p.denied for p in self._partitions)

    @property
    def evicted(self) -> int:
        return sum(p.evicted for p in self._partitions)

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    def allow(self, client_ip: str, now: float) -> bool:
        return self._partitions[self.index_for(client_ip)].allow(
            client_ip, now
        )

    def evict_replenished(self, now: float) -> int:
        return sum(p.evict_replenished(now) for p in self._partitions)


class PartitionedCache:
    """N LRU caches behind the :class:`ProxyCache` API, routed by client IP.

    The capacity budget divides across partitions (ceiling, min 1 per
    partition).  Cached objects are still keyed by URL *within* a
    partition, so the same static object may occupy several partitions
    once — the price of giving each lane a self-contained cache, and
    why cache hit/origin counters are partition-layout-scoped while
    detection results are not (responses served from cache are
    byte-identical to forwarded ones).
    """

    def __init__(
        self,
        n_partitions: int,
        capacity: int = 4096,
        ttl: float = 3600.0,
    ) -> None:
        from repro.proxy.cache import ProxyCache

        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._map = PartitionMap(n_partitions)
        per_partition = max(1, -(-capacity // n_partitions))
        self._partitions = [
            ProxyCache(capacity=per_partition, ttl=ttl)
            for _ in range(n_partitions)
        ]

    @property
    def n_partitions(self) -> int:
        return self._map.n_partitions

    @property
    def partitions(self) -> list[ProxyCache]:
        return self._partitions

    def partition(self, index: int) -> ProxyCache:
        return self._partitions[index]

    def index_for(self, client_ip: str) -> int:
        return self._map.index_for(client_ip)

    # -- ProxyCache API ----------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Merged counters across every partition (a fresh object)."""
        from repro.proxy.cache import CacheStats

        merged = CacheStats()
        for p in self._partitions:
            merged.hits += p.stats.hits
            merged.misses += p.stats.misses
            merged.insertions += p.stats.insertions
            merged.evictions += p.stats.evictions
            merged.expired += p.stats.expired
        return merged

    def lookup(self, request: Request, now: float) -> Response | None:
        return self._partitions[self.index_for(request.client_ip)].lookup(
            request, now
        )

    def store(self, request: Request, response: Response, now: float) -> bool:
        return self._partitions[self.index_for(request.client_ip)].store(
            request, response, now
        )

    def sweep(self, now: float) -> int:
        return sum(p.sweep(now) for p in self._partitions)

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)


class PartitionedLadder:
    """N response ladders routed by client IP, one per state shard.

    Unlike the other facades this one wraps *existing* per-shard
    ladders (built by ``NodeShard.enable_ladder`` so each sits next to
    the shard's metrics registry); the facade only adds the routing
    and the merged export.  IPs are sticky to a partition, so the
    per-partition states are disjoint and the merge is a plain union.
    """

    def __init__(self, ladders: list["ResponseLadder"]) -> None:
        if not ladders:
            raise ValueError("need at least one ladder partition")
        self._map = PartitionMap(len(ladders))
        self._partitions = list(ladders)

    @property
    def n_partitions(self) -> int:
        return self._map.n_partitions

    @property
    def partitions(self) -> list["ResponseLadder"]:
        return self._partitions

    def partition(self, index: int) -> "ResponseLadder":
        return self._partitions[index]

    def index_for(self, client_ip: str) -> int:
        return self._map.index_for(client_ip)

    # -- ResponseLadder API -------------------------------------------------

    def ladder_for(self, client_ip: str) -> "ResponseLadder":
        return self._partitions[self.index_for(client_ip)]

    def gate(self, client_ip: str, now: float):
        return self.ladder_for(client_ip).gate(client_ip, now)

    def observe_verdict(
        self, client_ip: str, margin: float, timestamp: float
    ) -> None:
        self.ladder_for(client_ip).observe_verdict(
            client_ip, margin, timestamp
        )

    def note_captcha_result(
        self, client_ip: str, passed: bool, timestamp: float
    ) -> None:
        self.ladder_for(client_ip).note_captcha_result(
            client_ip, passed, timestamp
        )

    def export_state(self) -> dict:
        """Union of the per-partition exports (layout-independent)."""
        from repro.overload.ladder import merge_ladder_states

        return merge_ladder_states(
            p.export_state() for p in self._partitions
        )
