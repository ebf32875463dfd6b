"""The read-only detection view a proxy node hands its callers.

A :class:`~repro.proxy.node.ProxyNode` is one or more
:class:`~repro.proxy.node.NodeShard` s, each owning a plain
:class:`~repro.detection.service.DetectionService` for the client IPs
the stable :func:`repro.state.partition.partition_index` hash assigns
it.  :class:`ShardedDetectionService` is ``node.detection``: it builds
nothing and holds no state of its own, it reads the node's current
shards — so it stays right across :meth:`ProxyNode.shard_detection` —
and a lookup by client IP goes through
:meth:`ProxyNode.shard_index_for`, the node's one IP→shard router.
Requests never pass through it: the node routes each one to its shard.

Determinism is the design constraint: every shard processes its own
requests in arrival order, and every merged reduction
(:meth:`finalize`, :meth:`detection_latencies`, the tracker view's
``analyzable``) is sorted by ``(started_at, client_ip, user_agent)`` —
so shard counts 1, 2 and 8 return the same sessions in the same order
for the same workload, which the test suite enforces.  The ingress
merges a node's shard lanes with the same :func:`merge_sessions`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.detection.session import DetectionLatency, SessionState

if TYPE_CHECKING:  # the node owns this view; no import cycle at runtime
    from repro.proxy.node import ProxyNode


def _session_order(state: SessionState) -> tuple[float, str, str]:
    """Deterministic merge order, independent of shard count."""
    return (state.started_at, state.key.client_ip, state.key.user_agent)


def merge_sessions(
    groups: Iterable[list[SessionState]],
) -> list[SessionState]:
    """Deterministically merge per-shard session lists."""
    merged: list[SessionState] = []
    for group in groups:
        merged.extend(group)
    merged.sort(key=_session_order)
    return merged


class ShardedTrackerView:
    """What callers read of a node's session trackers, over all shards."""

    def __init__(self, node: "ProxyNode") -> None:
        self._node = node

    @property
    def _trackers(self):
        return [shard.detection.tracker for shard in self._node.state_shards]

    @property
    def live_count(self) -> int:
        """Live sessions across all shards."""
        return sum(tracker.live_count for tracker in self._trackers)

    @property
    def total_started(self) -> int:
        """Sessions ever started across all shards."""
        return sum(tracker.total_started for tracker in self._trackers)

    def get(self, client_ip: str, user_agent: str) -> SessionState | None:
        """Look up the live session for a key on its owning shard."""
        return self._node.shard_for(client_ip).detection.tracker.get(
            client_ip, user_agent
        )

    def analyzable(self) -> list[SessionState]:
        """Completed above-noise sessions, deterministically merged."""
        return merge_sessions(
            tracker.analyzable() for tracker in self._trackers
        )


class ShardedDetectionService:
    """A read-only view of a node's detection shards (``node.detection``)."""

    def __init__(self, node: "ProxyNode") -> None:
        self._node = node
        self.tracker = ShardedTrackerView(node)

    def finalize(self) -> list[SessionState]:
        """Finalize every shard; merged analyzable sessions."""
        return merge_sessions(
            shard.detection.finalize() for shard in self._node.state_shards
        )

    def detection_latencies(self) -> list[DetectionLatency]:
        """Figure 2 samples over all shards' analyzable sessions."""
        return [
            DetectionLatency.from_state(state)
            for state in self.tracker.analyzable()
        ]
