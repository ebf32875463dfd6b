"""Sharded detection: hash-partitioned session state behind one facade.

A single :class:`~repro.detection.service.DetectionService` keys every
live session in one dictionary — correct, but a single lock domain once
the pipeline moves toward concurrent or multiprocess execution, and a
single cache-unfriendly blob at CoDeeN scale (~930k sessions/week).
:class:`ShardedDetectionService` splits the session space instead: every
client IP is assigned to one of ``n_shards`` independent shards by the
stable :func:`repro.state.partition.partition_index` hash (all of an
IP's sessions, whatever their User-Agent, share a shard), and each
shard owns a full :class:`DetectionService` — its own
:class:`~repro.detection.tracker.SessionTracker`, detectors, classifier
and policy — plus its own :class:`InstrumentationRegistry` partition of
the probe table, so a shard is a self-contained unit of state that can
run as its own ingress lane.

Determinism is the design constraint: the shard hash depends only on the
session key, every shard processes its own requests in arrival order,
and all merged reductions (:meth:`finalize`, :meth:`session_sets`,
:meth:`detection_latencies`, the tracker view's ``analyzable``) are
sorted by ``(started_at, client_ip, user_agent)`` — so shard counts
1, 2 and 8 produce identical censuses, set-algebra summaries and
verdicts for the same workload, which the test suite enforces.

This facade is what a node hands its callers as ``node.detection``:
the probe table a journal loads into, the tracker view, and the merged
reductions.  It is not the request path — a
:class:`~repro.proxy.node.ProxyNode` routes each request to the
:class:`~repro.proxy.node.NodeShard` that owns its client, and the
shard calls its own plain :class:`DetectionService`.  Parallelism is
the ingress's business: one process lane per shard.
"""

from __future__ import annotations

from typing import Iterable

from repro.detection.events import DetectionEvent
from repro.detection.online import DetectionLatency, OnlineClassifier, OnlineConfig
from repro.detection.policy import PolicyConfig
from repro.detection.service import DetectionService, RequestOutcome
from repro.detection.session import SessionState
from repro.detection.set_algebra import SessionSets
from repro.http.message import Request, Response
from repro.instrument.keys import InstrumentationRegistry
from repro.state.partition import partition_index
from repro.state.stores import PartitionedRegistry
from repro.util.timeutil import HOUR


def shard_index(client_ip: str, n_shards: int) -> int:
    """Stable shard assignment for a client IP.

    Shards are keyed by client IP alone (not the full ``<IP, UA>``
    session key): the probe registry, rate-limit buckets and proxy
    cache are all partitioned per IP, so a shard can only be a
    self-contained lane of execution if *every* session of an IP —
    whatever its User-Agent — lands on the shard that owns that IP's
    state partition.  This is the same hash
    :func:`repro.state.partition.partition_index` the partitioned
    stores and the ingress lane router use; ``hash()`` is salted per
    process and cannot be used here.
    """
    return partition_index(client_ip, n_shards)


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
    """The :class:`SessionTracker` surface over all shards.

    Callers that talk to ``service.tracker`` — the proxy node's
    housekeeping, the workload engine's ground-truth annotation, the
    network's finalization — work unchanged against this view: lookups
    route to the owning shard, sweeps fan out to every shard, and list
    reductions are deterministically merged.
    """

    def __init__(self, service: "ShardedDetectionService") -> None:
        self._service = service

    @property
    def _trackers(self):
        return [shard.tracker for shard in self._service.shards]

    @property
    def idle_timeout(self) -> float:
        """Seconds of inactivity after which a session ends."""
        return self._trackers[0].idle_timeout

    @property
    def min_requests(self) -> int:
        """The analyzability noise threshold (§3: > 10 requests)."""
        return self._trackers[0].min_requests

    @property
    def live_count(self) -> int:
        """Live sessions across all shards."""
        return sum(tracker.live_count for tracker in self._trackers)

    @property
    def total_started(self) -> int:
        """Sessions ever started across all shards."""
        return sum(tracker.total_started for tracker in self._trackers)

    @property
    def completed(self) -> list[SessionState]:
        """All completed sessions, deterministically merged."""
        return merge_sessions(
            tracker.completed for tracker in self._trackers
        )

    def get(self, client_ip: str, user_agent: str) -> SessionState | None:
        """Look up the live session for a key on its owning shard."""
        return self._service.shard_for(client_ip).tracker.get(
            client_ip, user_agent
        )

    def expire_idle(self, now: float) -> list[SessionState]:
        """Retire idle sessions on every shard."""
        return merge_sessions(
            tracker.expire_idle(now) for tracker in self._trackers
        )

    def finalize_all(self) -> list[SessionState]:
        """Retire every live session on every shard."""
        return merge_sessions(
            tracker.finalize_all() for tracker in self._trackers
        )

    def analyzable(self) -> list[SessionState]:
        """Completed above-noise sessions, deterministically merged."""
        return merge_sessions(
            tracker.analyzable() for tracker in self._trackers
        )


class ShardedDetectionService:
    """N independent detection shards behind the DetectionService API.

    Drop-in for :class:`DetectionService` wherever a proxy node hosts
    one: requests route to their client's shard and every reduction is
    merged deterministically.
    """

    def __init__(
        self,
        registry: InstrumentationRegistry | PartitionedRegistry,
        n_shards: int = 1,
        idle_timeout: float = HOUR,
        min_requests: int = 10,
        online_config: OnlineConfig | None = None,
        policy_config: PolicyConfig | None = None,
        enforce_policy: bool = True,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        # The probe table is re-partitioned to one registry partition
        # per shard, keyed by the same IP hash that routes requests to
        # shards — shard i owns exactly the probe state its requests
        # can touch, so a shard (plus its partitions) is a complete,
        # independently executable lane of state.  Existing probes and
        # listeners migrate into the new layout.
        self._registry = PartitionedRegistry.migrate(registry, n_shards)
        # Distinct id prefixes keep session ids unique network-wide
        # without any cross-shard coordination.
        self.shards: list[DetectionService] = [
            DetectionService(
                self._registry.partition(index),
                idle_timeout=idle_timeout,
                min_requests=min_requests,
                online_config=online_config,
                policy_config=policy_config,
                enforce_policy=enforce_policy,
                session_id_prefix=f"s{index:02d}",
            )
            for index in range(n_shards)
        ]
        self.tracker = ShardedTrackerView(self)

    # -- topology -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """How many shards the session space is split across."""
        return len(self.shards)

    @property
    def registry(self) -> PartitionedRegistry:
        """The IP-partitioned probe table (one partition per shard)."""
        return self._registry

    @property
    def classifier(self) -> OnlineClassifier:
        """The (stateless) online classifier, identical on every shard."""
        return self.shards[0].classifier

    @property
    def enforce_policy(self) -> bool:
        """Whether the robot policy is consulted per request."""
        return self.shards[0].enforce_policy

    def shard_for(self, client_ip: str) -> DetectionService:
        """The shard service owning a client IP (whatever the UA)."""
        return self.shards[shard_index(client_ip, len(self.shards))]

    # -- request path -------------------------------------------------------

    def handle_request(self, request: Request) -> RequestOutcome:
        """Run the pipeline for one request on its owning shard."""
        return self.shard_for(request.client_ip).handle_request(request)

    def note_response(
        self, outcome: RequestOutcome, response: Response
    ) -> None:
        """Record the response for the request handled in ``outcome``."""
        outcome.state.note_response(
            response, from_beacon=outcome.hit is not None
        )

    def note_captcha(
        self, state: SessionState, passed: bool, timestamp: float
    ) -> DetectionEvent:
        """Record a CAPTCHA result on the session's owning shard."""
        return self.shard_for(state.key.client_ip).note_captcha(
            state, passed, timestamp
        )

    # -- end-of-experiment reductions ---------------------------------------

    def finalize(self) -> list[SessionState]:
        """Finalize every shard; merged analyzable sessions."""
        return merge_sessions(shard.finalize() for shard in self.shards)

    def session_sets(self) -> SessionSets:
        """Set-algebra census over all shards' analyzable sessions."""
        return SessionSets.from_sessions(self.tracker.analyzable())

    def detection_latencies(self) -> list[DetectionLatency]:
        """Figure 2 samples over all shards' analyzable sessions."""
        return [
            DetectionLatency.from_state(state)
            for state in self.tracker.analyzable()
        ]


def shard_service(
    service: "DetectionService | ShardedDetectionService",
    n_shards: int,
) -> ShardedDetectionService:
    """Re-partition an (untouched) service's config across ``n_shards``.

    The instrumentation registry's contents migrate into the new
    layout — probe registrations and listeners survive — but session
    state must be empty: re-hashing live sessions between shard
    layouts is not supported.
    """
    if service.tracker.total_started > 0:
        raise RuntimeError(
            "cannot re-shard a detection service that already tracked "
            "sessions"
        )
    policy = (
        service.shards[0].policy
        if isinstance(service, ShardedDetectionService)
        else service.policy
    )
    return ShardedDetectionService(
        service.registry,
        n_shards=n_shards,
        idle_timeout=service.tracker.idle_timeout,
        min_requests=service.tracker.min_requests,
        online_config=service.classifier.config,
        policy_config=policy.config,
        enforce_policy=service.enforce_policy,
    )
