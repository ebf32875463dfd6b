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

``max_workers`` opts into a :mod:`concurrent.futures` thread pool for
the shard-parallel paths (:meth:`handle_batch`, housekeeping sweeps,
finalization).  Under CPython's GIL this buys structure more than speed,
but it is the seam along which a process pool or free-threaded build
slots in without touching callers.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.detection.events import DetectionEvent
from repro.detection.online import DetectionLatency, OnlineClassifier, OnlineConfig
from repro.detection.policy import PolicyConfig
from repro.detection.service import DetectionService, RequestOutcome
from repro.detection.session import SessionState
from repro.detection.set_algebra import SessionSets
from repro.http.message import Request, Response
from repro.instrument.keys import InstrumentationRegistry
from repro.obs.spans import NULL_SPAN
from repro.state.partition import partition_index
from repro.state.stores import PartitionedRegistry
from repro.util.timeutil import HOUR

_T = TypeVar("_T")
_R = TypeVar("_R")


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
        return self._service.shard_for(client_ip, user_agent).tracker.get(
            client_ip, user_agent
        )

    def expire_idle(self, now: float) -> list[SessionState]:
        """Retire idle sessions on every shard."""
        return merge_sessions(
            self._service.map_shards(
                lambda shard: shard.tracker.expire_idle(now)
            )
        )

    def finalize_all(self) -> list[SessionState]:
        """Retire every live session on every shard."""
        return merge_sessions(
            self._service.map_shards(
                lambda shard: shard.tracker.finalize_all()
            )
        )

    def analyzable(self) -> list[SessionState]:
        """Completed above-noise sessions, deterministically merged."""
        return merge_sessions(
            tracker.analyzable() for tracker in self._trackers
        )


class ShardedDetectionService:
    """N independent detection shards behind the DetectionService API.

    Drop-in for :class:`DetectionService` wherever a proxy node hosts
    one: requests route to their key's shard, batch entry points process
    per-shard runs (optionally on an executor), and every reduction is
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
        max_workers: int | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 when given")
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
        self._max_workers = max_workers
        self._executor: Executor | None = None
        self._metric_seconds: list | None = None
        self._metric_requests: list | None = None
        self._tracer = None

    # -- topology -----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        """How many shards the session space is split across."""
        return len(self.shards)

    @property
    def max_workers(self) -> int | None:
        """Executor width for shard-parallel paths (None = sequential)."""
        return self._max_workers

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

    def shard_index_for(
        self, client_ip: str, user_agent: str = ""
    ) -> int:
        """Which shard owns a client IP (the UA no longer matters)."""
        return shard_index(client_ip, self.n_shards)

    def shard_for(
        self, client_ip: str, user_agent: str = ""
    ) -> DetectionService:
        """The shard service owning a client IP."""
        return self.shards[self.shard_index_for(client_ip)]

    # -- metrics ------------------------------------------------------------

    def attach_metrics(self, registry, node_id: str) -> None:
        """Wire per-shard scoring timers and request counters.

        Per-shard wall histograms (``repro_detection_seconds``) plus
        deterministic per-shard request counters
        (``repro_detection_requests_total``).  Instruments are shard-
        private, so the shard-parallel paths never contend on one.
        """
        from repro.obs.registry import WALL_SECONDS_BUCKETS

        self._metric_seconds = [
            registry.histogram(
                "repro_detection_seconds",
                WALL_SECONDS_BUCKETS,
                {"node": node_id, "shard": f"{index:02d}"},
                wall=True,
            )
            for index in range(self.n_shards)
        ]
        self._metric_requests = [
            registry.counter(
                "repro_detection_requests_total",
                {"node": node_id, "shard": f"{index:02d}"},
            )
            for index in range(self.n_shards)
        ]

    def attach_tracer(self, tracer) -> None:
        """Emit a ``detection`` span per handled request into ``tracer``.

        For direct drivers of the sharded service (tests, benchmarks,
        batched ingestion).  A :class:`~repro.proxy.node.NodeShard`
        hosting per-shard plain services wraps detection itself, so the
        two never double-report.  Unsafe with a shard-parallel executor
        — tracers are single-lane; ``attach_metrics`` stays the
        concurrent-path instrument.
        """
        self._tracer = tracer

    def _handle_on_shard(self, index: int, request: Request) -> RequestOutcome:
        if self._tracer is not None:
            span = self._tracer.span("detection", request.timestamp)
        else:
            span = NULL_SPAN
        with span:
            if self._metric_seconds is None:
                return self.shards[index].handle_request(request)
            started = time.perf_counter()
            outcome = self.shards[index].handle_request(request)
            self._metric_seconds[index].observe(
                time.perf_counter() - started
            )
            assert self._metric_requests is not None
            self._metric_requests[index].inc()
            return outcome

    # -- event log ----------------------------------------------------------

    @property
    def keep_event_log(self) -> bool:
        """Whether shards retain their detection event logs."""
        return self.shards[0].keep_event_log

    @keep_event_log.setter
    def keep_event_log(self, value: bool) -> None:
        for shard in self.shards:
            shard.keep_event_log = value

    @property
    def event_log(self) -> list[DetectionEvent]:
        """All shards' events merged into one time-ordered log."""
        events = [
            event for shard in self.shards for event in shard.event_log
        ]
        events.sort(
            key=lambda e: (e.timestamp, e.session_id, e.request_index)
        )
        return events

    # -- request path -------------------------------------------------------

    def handle_request(self, request: Request) -> RequestOutcome:
        """Run the pipeline for one request on its owning shard."""
        return self._handle_on_shard(
            self.shard_index_for(request.client_ip, request.user_agent),
            request,
        )

    def handle_batch(
        self, requests: Sequence[Request]
    ) -> list[RequestOutcome]:
        """Process a request batch shard-parallel, results in input order.

        Requests are partitioned by owning shard; each shard consumes its
        sub-sequence in the original arrival order, so per-session state
        evolves exactly as under one-at-a-time handling.  With an
        executor configured, shards run concurrently.  Note that the
        ingress lanes behind :class:`~repro.trace.replay.TraceReplayEngine`
        hand their node one request at a time, so today's callers are
        direct users of this service, tests and benchmarks.
        """
        requests = list(requests)
        groups: dict[int, list[int]] = {}
        for position, request in enumerate(requests):
            shard = self.shard_index_for(
                request.client_ip, request.user_agent
            )
            groups.setdefault(shard, []).append(position)

        def run_shard(
            item: tuple[int, list[int]],
        ) -> list[tuple[int, RequestOutcome]]:
            shard, positions = item
            return [
                (position, self._handle_on_shard(shard, requests[position]))
                for position in positions
            ]

        outcomes: list[RequestOutcome | None] = [None] * len(requests)
        for completed in self._map(run_shard, sorted(groups.items())):
            for position, outcome in completed:
                outcomes[position] = outcome
        return [outcome for outcome in outcomes if outcome is not None]

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
        return self.shard_for(
            state.key.client_ip, state.key.user_agent
        ).note_captcha(state, passed, timestamp)

    # -- end-of-experiment reductions ---------------------------------------

    def finalize(self) -> list[SessionState]:
        """Finalize every shard; merged analyzable sessions."""
        return merge_sessions(
            self.map_shards(lambda shard: shard.finalize())
        )

    def session_sets(self) -> SessionSets:
        """Set-algebra census over all shards' analyzable sessions."""
        return SessionSets.from_sessions(self.tracker.analyzable())

    def detection_latencies(self) -> list[DetectionLatency]:
        """Figure 2 samples over all shards' analyzable sessions."""
        return [
            DetectionLatency.from_state(state)
            for state in self.tracker.analyzable()
        ]

    # -- executor plumbing --------------------------------------------------

    def map_shards(
        self, fn: Callable[[DetectionService], _R]
    ) -> list[_R]:
        """Apply ``fn`` to every shard (concurrently when configured)."""
        return self._map(fn, self.shards)

    def _map(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> list[_R]:
        if self._max_workers is None or len(items) <= 1:
            return [fn(item) for item in items]
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self._max_workers, self.n_shards),
                thread_name_prefix="detection-shard",
            )
        return list(self._executor.map(fn, items))

    def close(self) -> None:
        """Shut down the executor, if one was ever started."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "ShardedDetectionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Shard state is picklable; a live thread pool is not.

        The executor is dropped on serialization and lazily recreated
        on first use, so sharded services travel into ingress worker
        processes (the process lane executor) unchanged.
        """
        state = self.__dict__.copy()
        state["_executor"] = None
        return state


def shard_service(
    service: "DetectionService | ShardedDetectionService",
    n_shards: int,
    max_workers: int | None = None,
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
        max_workers=max_workers,
    )
