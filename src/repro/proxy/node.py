"""A single proxy node: forward, cache, instrument, detect, enforce.

The request path mirrors an instrumented CoDeeN node:

1. per-IP token-bucket rate limit (infrastructure protection) -> 503;
2. detection pipeline (session routing, probe matching, verdict, policy);
3. blocked robot sessions -> 403;
4. probe fetches answered locally (:func:`beacon_response`);
5. cache lookup for static objects;
6. origin forwarding; 200 HTML responses are instrumented per client and
   marked uncacheable before delivery.

The node is a *router over shards*: every piece of per-client mutable
state — a plain detection service, its probe-registry partition, a
cache, the rate-limit buckets and the response ladder — lives inside a
:class:`NodeShard`, and :meth:`ProxyNode.shard_for` (the stable
client-IP hash, :func:`repro.state.partition.partition_index`) is the
one place a request is turned into a shard.  The full request path
runs inside the owning shard, so a shard is a self-contained lane of
execution: the ingress can run one process lane per ``(node, shard)``
instead of one per node, and the node merely merges shard stats,
metrics and ladder state for its callers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from repro.detection.service import DetectionService, RequestOutcome
from repro.detection.sharded import ShardedDetectionService, shard_service
from repro.http.content import ContentKind
from repro.http.message import Request, Response, error_response
from repro.instrument.keys import InstrumentationRegistry
from repro.instrument.rewriter import (
    InstrumentConfig,
    PageInstrumenter,
    beacon_response,
    mark_uncacheable,
)
from repro.captcha.challenge import challenge_redirect
from repro.obs.registry import WALL_SECONDS_BUCKETS, MetricsRegistry
from repro.obs.spans import NULL_SPAN, SpanTracer
from repro.overload.ladder import (
    LADDER_HEADER,
    LadderConfig,
    LadderStage,
    ResponseLadder,
    merge_ladder_states,
)
from repro.proxy.cache import ProxyCache
from repro.proxy.ratelimit import RateLimitConfig, TokenBucketLimiter
from repro.site.origin import OriginServer
from repro.state.partition import partition_index
from repro.util.rng import RngStream

__all__ = ["NodeStats", "NodeShard", "ProxyNode"]

#: A node's response-cache budget in entries, divided across its shards.
_CACHE_CAPACITY = 4096


@dataclass
class NodeStats:
    """Per-node traffic accounting (drives the §3.2 overhead numbers)."""

    requests: int = 0
    rate_limited: int = 0
    policy_blocked: int = 0
    #: Graduated response ladder enforcements (zero unless enabled):
    #: throttle refusals (503), CAPTCHA challenges served (302), and
    #: hard ladder blocks (403) — all before detection ran.
    throttled: int = 0
    challenged: int = 0
    ladder_blocked: int = 0
    beacon_requests: int = 0
    origin_requests: int = 0
    cache_hits: int = 0
    pages_instrumented: int = 0
    bytes_served: int = 0
    beacon_bytes_served: int = 0
    instrumentation_markup_bytes: int = 0
    #: Ingress admission accounting (zero outside pipelined runs):
    #: events admitted onto this node's lane queue, and events the
    #: load-shedding policy refused — kept here so Table-1-style
    #: aggregates still balance when the ingress sheds under overload.
    queued: int = 0
    shed: int = 0

    def absorb(self, other: "NodeStats") -> None:
        """Fold another stats block into this one (field-wise sums)."""
        for field_ in fields(NodeStats):
            setattr(
                self,
                field_.name,
                getattr(self, field_.name) + getattr(other, field_.name),
            )

    @property
    def beacon_bandwidth_fraction(self) -> float:
        """Fraction of served bytes that are probe objects.

        This is the paper's §3.2 quantity ("the bandwidth overhead of
        fake JavaScript and CSS files"): the beacon script, CSS, image
        and trap responses themselves.
        """
        if self.bytes_served == 0:
            return 0.0
        return self.beacon_bytes_served / self.bytes_served

    @property
    def markup_bandwidth_fraction(self) -> float:
        """Fraction of served bytes that are instrumentation markup growth."""
        if self.bytes_served == 0:
            return 0.0
        return self.instrumentation_markup_bytes / self.bytes_served


class NodeShard:
    """One IP partition of a node's state, plus the request path over it.

    Owns a detection shard, that shard's probe-registry partition, a
    cache and a rate limiter of its own — everything the requests
    routed here can touch, and nothing another shard's requests can.
    Pickles cleanly, so the process executor can ship a shard to a
    child interpreter as a complete lane state.
    """

    _EXPORTED_STATS = (
        "requests",
        "rate_limited",
        "policy_blocked",
        "throttled",
        "challenged",
        "ladder_blocked",
        "beacon_requests",
        "origin_requests",
        "cache_hits",
        "pages_instrumented",
        "bytes_served",
        "beacon_bytes_served",
        "instrumentation_markup_bytes",
    )

    def __init__(
        self,
        node_id: str,
        shard_id: int,
        origins: dict[str, OriginServer],
        detection: DetectionService,
        cache: ProxyCache,
        limiter: TokenBucketLimiter | None,
        instrumenter: PageInstrumenter,
        instrument_enabled: bool = True,
    ) -> None:
        self.node_id = node_id
        self.shard_id = shard_id
        self.shard_label = f"{shard_id:02d}"
        self._origins = origins
        self.detection = detection
        self.cache = cache
        self.limiter = limiter
        self.instrumenter = instrumenter
        self.instrument_enabled = instrument_enabled
        self.stats = NodeStats()
        self.metrics = MetricsRegistry()
        labels = {"node": node_id, "shard": self.shard_label}
        self._handle_seconds = self.metrics.histogram(
            "repro_proxy_handle_seconds",
            WALL_SECONDS_BUCKETS,
            labels,
            wall=True,
        )
        self._detection_seconds = self.metrics.histogram(
            "repro_detection_seconds",
            WALL_SECONDS_BUCKETS,
            labels,
            wall=True,
        )
        self._detection_requests = self.metrics.counter(
            "repro_detection_requests_total", labels
        )
        self._tracer: SpanTracer | None = None
        #: Graduated response ladder for this shard's IPs; None = off.
        self.ladder: ResponseLadder | None = None

    def enable_ladder(self, config: LadderConfig | None = None):
        """Gate this shard's requests through a response ladder.

        The ladder records into the shard's (deterministic-domain)
        metrics registry and travels with the shard when the process
        executor ships it to a child interpreter.
        """
        self.ladder = ResponseLadder(config)
        self.ladder.attach_metrics(
            self.metrics,
            {"node": self.node_id, "shard": self.shard_label},
        )
        return self.ladder

    # -- tracing ------------------------------------------------------------

    def attach_tracer(self, tracer: SpanTracer | None) -> None:
        """Emit per-stage spans into ``tracer`` while handling requests.

        The tracer is lane-owned; the shard only nests stage spans
        under whatever trace its caller has open.  ``None`` detaches.
        """
        self._tracer = tracer

    def _span(self, name: str, now: float):
        if self._tracer is None:
            return NULL_SPAN
        return self._tracer.span(name, now)

    # -- request path -------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Process one client request end to end."""
        return self.handle_traced(request)[0]

    def handle_traced(
        self, request: Request
    ) -> tuple[Response, RequestOutcome | None]:
        """Process one request, also exposing the detection outcome.

        The outcome is what ingress-side consumers (the micro-batched
        session scorer) key their per-session state on; it is ``None``
        when the request never reached the detection pipeline (rate
        limited at the front door).
        """
        started = time.perf_counter()
        try:
            return self._handle_traced(request)
        finally:
            self._handle_seconds.observe(time.perf_counter() - started)

    def _handle_traced(
        self, request: Request
    ) -> tuple[Response, RequestOutcome | None]:
        self.stats.requests += 1
        now = request.timestamp

        if self.limiter is not None:
            with self._span("ratelimit", now):
                allowed = self.limiter.allow(request.client_ip, now)
            if not allowed:
                self.stats.rate_limited += 1
                return error_response(503, "rate limited"), None

        if self.ladder is not None:
            with self._span("ladder", now):
                stage = self.ladder.gate(request.client_ip, now)
            if stage is not LadderStage.ALLOW:
                return self._ladder_response(stage), None

        outcome = self._run_detection(request)

        if outcome.blocked:
            self.stats.policy_blocked += 1
            response = error_response(403, "blocked by robot policy")
            self._account(outcome, response, beacon=False, now=now)
            return response, outcome

        if outcome.hit is not None:
            with self._span("beacon", now):
                response = beacon_response(outcome.hit)
            self.stats.beacon_requests += 1
            self._account(outcome, response, beacon=True, now=now)
            return response, outcome

        with self._span("cache", now):
            cached = self.cache.lookup(request, now)
        if cached is not None:
            self.stats.cache_hits += 1
            self._account(outcome, cached, beacon=False, now=now)
            return cached, outcome

        with self._span("forward", now):
            response = self._forward(request)
            self.cache.store(request, response, now)

        if (
            self.instrument_enabled
            and response.status == 200
            and response.content_kind is ContentKind.HTML
            and response.body
        ):
            with self._span("instrument", now):
                response = self._instrument(request, response)

        self._account(outcome, response, beacon=False, now=now)
        return response, outcome

    # -- internals ----------------------------------------------------------

    def _ladder_response(self, stage: LadderStage) -> Response:
        """Refusal/challenge for a ladder-gated request.

        Mirrors the rate-limit front door: no byte accounting and no
        detection involvement — the request never entered the pipeline.
        The ``x-robot-ladder`` header names the stage so span flagging
        and trace tooling can attribute the response.
        """
        if stage is LadderStage.BLOCK:
            self.stats.ladder_blocked += 1
            response = error_response(
                403, "blocked by graduated response ladder"
            )
        elif stage is LadderStage.CAPTCHA:
            self.stats.challenged += 1
            response = challenge_redirect()
        else:
            self.stats.throttled += 1
            response = error_response(
                503, "throttled by graduated response ladder"
            )
        response.headers.set(LADDER_HEADER, stage.value)
        return response

    def _run_detection(self, request: Request) -> RequestOutcome:
        started = time.perf_counter()
        with self._span("detection", request.timestamp):
            outcome = self.detection.handle_request(request)
        self._detection_seconds.observe(time.perf_counter() - started)
        self._detection_requests.inc()
        return outcome

    def _forward(self, request: Request) -> Response:
        origin = self._origins.get(request.url.host)
        self.stats.origin_requests += 1
        if origin is None:
            return error_response(502, f"no route to {request.url.host}")
        return origin.handle(request)

    def _instrument(self, request: Request, response: Response) -> Response:
        """Rewrite an origin page; count its growth as markup bytes.

        Growth is the rewritten body's length minus the origin body's.
        For an origin body that is not valid UTF-8 the figure also holds
        what decoding cost: each undecodable sequence comes back as the
        three bytes of U+FFFD.
        """
        result = self.instrumenter.instrument(
            response.text, request.url, request.client_ip, request.timestamp
        )
        body = result.html.encode("utf-8")
        self.stats.pages_instrumented += 1
        self.stats.instrumentation_markup_bytes += max(
            0, len(body) - len(response.body)
        )
        headers = response.headers.copy()
        mark_uncacheable(headers)
        return Response(status=response.status, headers=headers, body=body)

    def _account(
        self,
        outcome: RequestOutcome,
        response: Response,
        beacon: bool,
        now: float = 0.0,
    ) -> None:
        with self._span("account", now):
            self.detection.note_response(outcome, response)
        self.stats.bytes_served += response.size
        if beacon:
            self.stats.beacon_bytes_served += response.size

    # -- maintenance --------------------------------------------------------

    def housekeeping(self, now: float) -> None:
        """Sweep this shard's partitions: idle sessions, stale probes,
        expired cache entries, replenished rate-limit buckets."""
        self.detection.tracker.expire_idle(now)
        self.detection.registry.expire_before(now)
        self.cache.sweep(now)
        if self.limiter is not None:
            self.limiter.evict_replenished(now)

    # -- metrics ------------------------------------------------------------

    def export_metrics(self) -> None:
        """Collect authoritative stats objects into registry counters.

        Idempotent (``Counter.set``), so snapshots and flight-recorder
        frames can re-collect at will.  Every family carries
        ``{node, shard}`` labels: the shard is the unit of state, the
        node a grouping of shards.  ``NodeStats.queued``/``shed`` are
        deliberately absent: the ingress accounts admission on the
        parent side, and lane merges fold them into ``NodeStats`` after
        the fact — exporting them here would double-count.
        """
        labels = {"node": self.node_id, "shard": self.shard_label}
        metrics = self.metrics
        for name in self._EXPORTED_STATS:
            metrics.counter(f"repro_proxy_{name}_total", labels).set(
                getattr(self.stats, name)
            )
        cache = self.cache.stats
        for name in ("hits", "misses", "insertions", "evictions", "expired"):
            metrics.counter(f"repro_cache_{name}_total", labels).set(
                getattr(cache, name)
            )
        if self.limiter is not None:
            for name in ("allowed", "denied", "evicted"):
                metrics.counter(f"repro_ratelimit_{name}_total", labels).set(
                    getattr(self.limiter, name)
                )
            metrics.gauge("repro_ratelimit_buckets", labels).set(
                len(self.limiter)
            )
        metrics.gauge("repro_detection_sessions_live", labels).set(
            self.detection.tracker.live_count
        )
        metrics.counter(
            "repro_detection_sessions_started_total", labels
        ).set(self.detection.tracker.total_started)

    def metrics_snapshot(self, include_wall: bool = True):
        """Export-then-snapshot convenience."""
        self.export_metrics()
        return self.metrics.snapshot(include_wall=include_wall)


class ProxyNode:
    """One proxy node: a router over its IP-partitioned state shards."""

    def __init__(
        self,
        node_id: str,
        origins: dict[str, OriginServer],
        rng: RngStream,
        instrument_config: InstrumentConfig | None = None,
        rate_limit: RateLimitConfig | None = None,
        detection: DetectionService | ShardedDetectionService | None = None,
        instrument_enabled: bool = True,
        detection_shards: int = 0,
    ) -> None:
        if detection is not None and detection_shards:
            raise ValueError(
                "pass either a detection service or detection_shards, "
                "not both"
            )
        self.node_id = node_id
        self._origins = origins
        self._instrument_config = instrument_config
        self._rate_limit = rate_limit
        self._instrument_enabled = instrument_enabled
        # The parent stream is never drawn from directly: the rewriter
        # derives a child stream per instrumented request, so shard
        # instrumenters sharing this parent stay deterministic under
        # any partitioning of the request stream.
        self._instrument_rng = rng.split(f"instrumenter-{node_id}")
        if detection is not None:
            self.detection = detection
        elif detection_shards:
            self.detection = ShardedDetectionService(
                InstrumentationRegistry(), n_shards=detection_shards
            )
        else:
            self.detection = DetectionService(InstrumentationRegistry())
        self.metrics = MetricsRegistry()
        self._build_shards()

    def _build_shards(self) -> None:
        """(Re)derive per-shard state from the current detection layout.

        Each shard gets plain stores of its own; the cache budget
        divides across shards (ceiling, never below one entry).  The
        same static object may therefore sit in several shards' caches
        — the price of self-contained lanes, and why cache counters
        depend on the shard layout while detection results do not.
        """
        if isinstance(self.detection, ShardedDetectionService):
            services = self.detection.shards
            registries = self.detection.registry.partitions
        else:
            services = [self.detection]
            registries = [self.detection.registry]
        n = len(services)
        self._shards = [
            NodeShard(
                self.node_id,
                index,
                self._origins,
                service,
                ProxyCache(capacity=-(-_CACHE_CAPACITY // n)),
                (
                    TokenBucketLimiter(self._rate_limit)
                    if self._rate_limit is not None
                    else None
                ),
                PageInstrumenter(
                    registry,
                    self._instrument_rng,
                    self._instrument_config,
                ),
                instrument_enabled=self._instrument_enabled,
            )
            for index, (service, registry) in enumerate(
                zip(services, registries)
            )
        ]

    # -- response ladder ----------------------------------------------------

    def enable_ladder(self, config: LadderConfig | None = None):
        """Enable the graduated response ladder on every state shard.

        The ladders live inside their shards, so lane executors carry
        them without extra plumbing; the node routes verdicts to them
        (:meth:`observe_verdict`) and exports their union
        (:meth:`export_state`), and so returns itself as the thing to
        feed.  Call after any :meth:`shard_detection` re-partitioning —
        the rebuild discards shard-local state, ladders included.
        """
        for shard in self._shards:
            shard.enable_ladder(config)
        return self

    def ladder_for(self, client_ip: str) -> ResponseLadder | None:
        """The shard-local ladder owning ``client_ip`` (None = off)."""
        return self.shard_for(client_ip).ladder

    def observe_verdict(
        self, client_ip: str, margin: float, timestamp: float
    ) -> None:
        """Feed a checkpoint verdict to the ladder owning ``client_ip``."""
        self.shard_for(client_ip).ladder.observe_verdict(
            client_ip, margin, timestamp
        )

    def export_state(self) -> dict:
        """The node's ladder state: the union of its shards' exports.

        IPs are sticky to a shard, so the per-shard states are disjoint
        and the merge does not depend on the shard count.
        """
        return merge_ladder_states(
            shard.ladder.export_state() for shard in self._shards
        )

    # -- shard topology -----------------------------------------------------

    @property
    def state_shards(self) -> list[NodeShard]:
        """The node's self-contained state shards, in shard order."""
        return self._shards

    @property
    def n_state_shards(self) -> int:
        return len(self._shards)

    def shard_index_for(self, client_ip: str) -> int:
        """Which state shard owns a client IP."""
        return partition_index(client_ip, len(self._shards))

    def shard_for(self, client_ip: str) -> NodeShard:
        return self._shards[self.shard_index_for(client_ip)]

    def lane_states(self, lanes_per_node: int) -> list:
        """The lane-sized state units for a given lane granularity.

        ``1`` keeps today's one-lane-per-node layout (the node itself
        is the lane state); a value equal to the detection shard count
        hands each shard out as its own lane.  Anything else cannot be
        a total partition of the node's state, so it is refused.
        """
        if lanes_per_node <= 1:
            return [self]
        if lanes_per_node != len(self._shards):
            raise ValueError(
                f"{self.node_id}: lanes_per_node={lanes_per_node} must be "
                f"1 or match the node's {len(self._shards)} detection "
                "shard(s) — shards are the only self-contained state "
                "units lanes can carry"
            )
        return list(self._shards)

    @property
    def instrument_enabled(self) -> bool:
        """Whether 200-HTML responses get instrumented before delivery."""
        return self._instrument_enabled

    @instrument_enabled.setter
    def instrument_enabled(self, value: bool) -> None:
        self._instrument_enabled = value
        for shard in self._shards:
            shard.instrument_enabled = value

    @property
    def stats(self) -> NodeStats:
        """Merged traffic accounting across every state shard."""
        merged = NodeStats()
        for shard in self._shards:
            merged.absorb(shard.stats)
        return merged

    # -- request path -------------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Process one client request end to end."""
        return self.handle_traced(request)[0]

    def handle_traced(
        self, request: Request
    ) -> tuple[Response, RequestOutcome | None]:
        """Route the request to its owning state shard and process it."""
        return self.shard_for(request.client_ip).handle_traced(request)

    # -- tracing ------------------------------------------------------------

    def attach_tracer(self, tracer) -> None:
        """Attach one span tracer to every state shard (``None`` detaches).

        Node-as-lane layouts (``lanes_per_node=1``) share a single
        tracer across the node's shards: requests are handled one at a
        time, so stage spans still nest correctly under the caller's
        open trace.
        """
        for shard in self._shards:
            shard.attach_tracer(tracer)

    # -- metrics ------------------------------------------------------------

    @property
    def has_metric_listeners(self) -> bool:
        """Whether any registry (node- or shard-level) has listeners."""
        return self.metrics.has_listeners or any(
            shard.metrics.has_listeners for shard in self._shards
        )

    def export_metrics(self) -> None:
        """Collect every shard's authoritative stats into its registry."""
        for shard in self._shards:
            shard.export_metrics()

    def metrics_snapshot(self, include_wall: bool = True):
        """Node-wide snapshot: node registry plus shards, in shard order."""
        from repro.obs.registry import merge_snapshots

        self.export_metrics()
        return merge_snapshots(
            [
                self.metrics.snapshot(include_wall=include_wall),
                *(
                    shard.metrics.snapshot(include_wall=include_wall)
                    for shard in self._shards
                ),
            ]
        )

    # -- reconfiguration ----------------------------------------------------

    def shard_detection(self, n_shards: int) -> None:
        """Re-partition detection state into ``n_shards`` shards.

        Must run before any traffic: session state cannot be re-hashed
        between shard layouts.  The probe registry (and with it any
        registrations a replay journal already loaded) migrates into
        the new partition layout; caches and rate buckets are empty
        pre-traffic, so they are simply rebuilt with the new shard
        count.  No-op when the node is already sharded to the requested
        count.
        """
        if (
            isinstance(self.detection, ShardedDetectionService)
            and self.detection.n_shards == n_shards
        ):
            return
        if self.stats.requests or self.detection.tracker.total_started:
            raise RuntimeError(
                f"{self.node_id}: cannot re-shard detection after traffic"
            )
        self.detection = shard_service(self.detection, n_shards)
        self._build_shards()

    def housekeeping(self, now: float) -> None:
        """Periodic maintenance, swept per state shard: idle sessions,
        stale probes, expired cache entries, replenished rate buckets."""
        for shard in self._shards:
            shard.housekeeping(now)
