"""A network of proxy nodes with sticky client assignment.

CoDeeN clients configure one proxy and stick to it, so each node sees
complete sessions; the network assigns clients to nodes by a stable hash
of the client IP and aggregates node statistics for whole-deployment
reporting (Table 1 sums sessions across all nodes).
"""

from __future__ import annotations

from typing import Callable

from repro.detection.session import DetectionLatency, SessionState
from repro.detection.set_algebra import SessionSets
from repro.http.message import Request, Response
from repro.instrument.rewriter import InstrumentConfig
from repro.proxy.node import NodeStats, ProxyNode
from repro.proxy.ratelimit import RateLimitConfig
from repro.site.origin import OriginServer
from repro.state.partition import stable_hash
from repro.util.rng import RngStream


class ProxyNetwork:
    """A fixed set of nodes sharing the same origins."""

    def __init__(
        self,
        origins: dict[str, OriginServer],
        rng: RngStream,
        n_nodes: int = 4,
        instrument_config: InstrumentConfig | None = None,
        rate_limit: RateLimitConfig | None = None,
        instrument_enabled: bool = True,
        detection_shards: int = 1,
    ) -> None:
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        self.nodes = [
            ProxyNode(
                node_id=f"node-{i:03d}",
                origins=origins,
                rng=rng,
                instrument_config=instrument_config,
                rate_limit=rate_limit,
                instrument_enabled=instrument_enabled,
                detection_shards=detection_shards,
            )
            for i in range(n_nodes)
        ]
        #: A tuple, replaced on every change: readers iterate it as is.
        self._taps: tuple[Callable[[Request, Response], None], ...] = ()

    def shard_detection(self, n_shards: int) -> None:
        """Rebuild every node as ``n_shards`` shards.

        Must run before traffic; idempotent per shard count.
        """
        for node in self.nodes:
            node.shard_detection(n_shards)

    def add_probe_listener(self, listener: Callable) -> None:
        """Observe every probe any node registers (the journal's
        attachment point); each node keeps it across re-sharding."""
        for node in self.nodes:
            node.add_probe_listener(listener)

    def remove_probe_listener(self, listener: Callable) -> None:
        """Detach a probe listener (no error if absent)."""
        for node in self.nodes:
            node.remove_probe_listener(listener)

    @property
    def taps(self) -> tuple[Callable[[Request, Response], None], ...]:
        """The attached traffic observers (read-only view).

        The pipelined ingress forwards these to its lane workers — lane
        traffic never passes through :meth:`handle`, so the workers
        must fire the taps themselves.
        """
        return self._taps

    def add_tap(self, tap: Callable[[Request, Response], None]) -> None:
        """Observe every request/response pair :meth:`handle` processes.

        Taps see traffic *after* the node answered (rate limits, blocks
        and beacon responses included) — this is the trace recorder's
        attachment point.
        """
        self._taps += (tap,)

    def remove_tap(self, tap: Callable[[Request, Response], None]) -> None:
        """Detach a tap (no error if absent)."""
        if tap in self._taps:
            index = self._taps.index(tap)
            self._taps = self._taps[:index] + self._taps[index + 1 :]

    def node_index_for(self, client_ip: str) -> int:
        """Sticky node index by stable hash of the client IP.

        The first half of the ingress lane assignment: the node's own
        :meth:`~repro.proxy.node.ProxyNode.shard_index_for` picks the
        shard — the lane — inside it.
        """
        return stable_hash(client_ip, 4) % len(self.nodes)

    def node_for(self, client_ip: str) -> ProxyNode:
        """Sticky node assignment by stable hash of the client IP."""
        return self.nodes[self.node_index_for(client_ip)]

    def handle(self, request: Request) -> Response:
        """Route a request to its node and process it."""
        return self.handle_traced(request)[0]

    def handle_traced(self, request: Request):
        """Route a request to its node, exposing the detection outcome.

        Returns ``(response, outcome)`` — what a tracing caller needs
        to flag robot/error traces; taps fire either way.
        """
        response, outcome = self.node_for(
            request.client_ip
        ).handle_traced(request)
        for tap in self._taps:
            tap(request, response)
        return response, outcome

    # -- aggregation --------------------------------------------------------

    def stats(self) -> NodeStats:
        """Aggregate statistics across nodes."""
        total = NodeStats()
        for node in self.nodes:
            total.absorb(node.stats)
        return total

    def finalize_sessions(self) -> list[SessionState]:
        """Finalize all nodes and collect every analyzable session."""
        sessions: list[SessionState] = []
        for node in self.nodes:
            node.detection.finalize()
            sessions.extend(node.detection.tracker.analyzable())
        return sessions

    def session_sets(self) -> SessionSets:
        """Network-wide set-algebra census (call after finalize_sessions)."""
        sets = SessionSets()
        for node in self.nodes:
            for state in node.detection.tracker.analyzable():
                sets.add(state)
        return sets

    def detection_latencies(self) -> list[DetectionLatency]:
        """Network-wide Figure 2 samples (call after finalize_sessions)."""
        samples: list[DetectionLatency] = []
        for node in self.nodes:
            samples.extend(node.detection.detection_latencies())
        return samples
