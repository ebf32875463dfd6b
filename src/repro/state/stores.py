"""The IP-partitioned probe table.

:class:`PartitionedRegistry` owns N independent
:class:`~repro.instrument.keys.InstrumentationRegistry` instances and
routes every keyed operation to the partition
:func:`repro.state.partition.partition_index` assigns the client IP;
unkeyed operations (sweeps, lengths, iteration) fan out and merge.  It
is the one store that needs a routing facade: a probe journal loads
into it before a node is re-sharded, and a lane that carries a whole
multi-shard node registers journal lines through it.  The other
per-client stores (cache, rate buckets, response ladder) are plain
objects owned by a :class:`~repro.proxy.node.NodeShard`, reached only
after :meth:`~repro.proxy.node.ProxyNode.shard_for` has routed the
request.

Two properties the rest of the system leans on:

* **Containment** — the registry, the node router and the ingress lane
  router use the *same* hash, so a lane that carries partition ``i``
  holds every piece of state the requests routed to it can touch.
  That is what lets process lanes run one-per-shard instead of
  one-per-node.
* **Lane-count invariance** — partition-local state evolves as a pure
  function of that partition's own event subsequence, which is the
  same whether one lane consumes all partitions in admission order or
  P lanes consume one each.  Results cannot depend on lane layout.

Everything here is plain-data and pickles cleanly (the process
executor ships partitions to child interpreters inside lane state).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.state.partition import partition_index

if TYPE_CHECKING:  # leaf package: the store types are imported lazily
    from repro.http.message import Request
    from repro.instrument.keys import (
        BeaconHit,
        InstrumentationRegistry,
        RegisteredProbe,
    )


class PartitionedRegistry:
    """N per-IP probe tables behind the :class:`InstrumentationRegistry` API.

    Listeners attach to every partition so registrations are journaled
    no matter which partition (or which lane) performs them.
    """

    def __init__(self, partitions: list[InstrumentationRegistry]) -> None:
        if not partitions:
            raise ValueError("need at least one registry partition")
        self._partitions = partitions

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
        return len(self._partitions)

    @property
    def partitions(self) -> list[InstrumentationRegistry]:
        """The underlying per-partition registries, in partition order."""
        return self._partitions

    def partition(self, index: int) -> InstrumentationRegistry:
        return self._partitions[index]

    def index_for(self, client_ip: str) -> int:
        return partition_index(client_ip, len(self._partitions))

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
