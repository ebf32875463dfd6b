"""The ingress pipeline: admission, routing, dispatch, merge.

This is the layer the ROADMAP's "async proxy front end" item asked for:
between *arrival* (a trace event, a synthetic session) and *shard*
(a proxy node's detection state) now sits an explicit admission step
that

1. routes every event by the stable BLAKE2b hash of its session key's
   client IP — the same sticky assignment CoDeeN clients get, and the
   partition the paper's probe table is indexed by, so all of a
   client's sessions, probes and rate-limit state live in one lane;
2. hands it to that lane's executor — ``serial`` runs the lane inline,
   ``process`` ships it down a bounded pipe to the lane's own
   interpreter (backpressure by default, counted load-shedding on
   request); and
3. has each lane consumed strictly in admission order.

Because lanes are total partitions of mutable state and each lane is
consumed in admission order, the final reductions are a pure function
of the admitted event sequence: executor choice and queue depth change
wall-clock behaviour, never results.  The merge step reassembles lane
results in lane order (the order the network lists its nodes).

Both engines (:mod:`repro.trace.replay`, :mod:`repro.workload.engine`)
drive every run through this pipeline, and :class:`IngressConfig` is the
one place their executor / queue / shedding / lane / tracing options are
checked.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.ingress.batcher import MicroBatchConfig
from repro.ingress.executors import (
    EXECUTOR_KINDS,
    ShedPolicy,
    build_executor,
)
from repro.ingress.workers import LaneResult
from repro.detection.online import DetectionLatency
from repro.detection.session import SessionState
from repro.detection.sharded import _session_order
from repro.detection.set_algebra import SessionSets
from repro.ml.adaboost import AdaBoostModel
from repro.ml.batch import BatchVerdict
from repro.obs.flight import FlightFrame, FlightRecorder, merge_flight
from repro.obs.registry import (
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.obs.spans import SpanConfig, SpanTree, merge_traces
from repro.overload.admission import (
    AdaptiveConfig,
    DelayBudgetController,
    OverloadReport,
)
from repro.overload.ladder import LadderConfig, merge_ladder_states
from repro.proxy.network import NetworkStats, ProxyNetwork
from repro.state.partition import partition_index


@dataclass(frozen=True)
class IngressConfig:
    """Admission and dispatch parameters.

    ``queue_depth`` bounds each process lane's pipe in events (None =
    unbounded) and ``policy`` (:class:`ShedPolicy`) says what a full one
    does to admission: backpressure by default, counted shedding — which
    therefore needs the process executor — on request.
    ``chunk_size`` is the process executor's IPC batch size —
    invisible to results.  ``scorer_model`` enables per-lane
    micro-batched ensemble scoring under the ``batch`` budgets.
    """

    executor: str = "serial"
    queue_depth: int | None = None
    policy: ShedPolicy = ShedPolicy.BLOCK
    chunk_size: int = 256
    housekeeping_interval: float = 600.0
    #: Lane granularity: 1 = one lane per node (the node is the lane
    #: state); a value equal to each node's detection shard count hands
    #: every :class:`~repro.proxy.node.NodeShard` out as its own lane,
    #: so the process executor scales with cores instead of node count.
    lanes_per_node: int = 1
    batch: MicroBatchConfig = field(default_factory=MicroBatchConfig)
    scorer_model: AdaBoostModel | None = None
    #: Virtual-time sampling interval for the flight recorder
    #: (None = off).  Every lane — and the admission side, via
    #: :meth:`IngressPipeline.tick` — snapshots its metrics registry on
    #: this shared event-time grid.
    flight_interval: float | None = None
    #: Tail-sampling budgets for causal span tracing (None = tracing
    #: off, the zero-cost default).  Each lane worker owns a
    #: :class:`~repro.obs.spans.SpanTracer` and its retained trees ride
    #: the lane result back, merged in lane order.
    spans: SpanConfig | None = None
    #: Delay-budget admission tuning; required (and defaulted) when
    #: ``policy`` is ``ShedPolicy.ADAPTIVE``, rejected otherwise.
    adaptive: AdaptiveConfig | None = None
    #: Graduated response ladder (throttle -> CAPTCHA -> block) driven
    #: by micro-batch checkpoint verdicts; needs ``scorer_model``.
    ladder: LadderConfig | None = None

    def __post_init__(self) -> None:
        if self.flight_interval is not None and self.flight_interval <= 0:
            raise ValueError(
                "flight_interval must be positive (or None to disable)"
            )
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"executor must be one of {EXECUTOR_KINDS}, "
                f"got {self.executor!r}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(
                "queue_depth must be >= 1 (or None for unbounded)"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.housekeeping_interval < 0:
            raise ValueError("housekeeping_interval must be non-negative")
        if self.lanes_per_node < 1:
            raise ValueError("lanes_per_node must be >= 1")
        if self.policy is ShedPolicy.SHED and self.queue_depth is None:
            # An unbounded queue never refuses a put, so SHED would be
            # a silent no-op: the run *looks* shed-protected while
            # shedding nothing.  Refuse loudly instead.
            raise ValueError(
                "ShedPolicy.SHED with queue_depth=None can never shed "
                "(an unbounded queue never refuses): set a queue_depth "
                "or use ShedPolicy.BLOCK"
            )
        if self.policy is not ShedPolicy.BLOCK and self.executor == "serial":
            # The serial executor handles events inline: no put is ever
            # refused and the predicted delay is pinned at zero, so
            # neither SHED nor ADAPTIVE could ever shed — the same
            # silent no-op shape as SHED on an unbounded queue.
            raise ValueError(
                f"ShedPolicy.{self.policy.name} needs the process "
                "executor: serial lanes run inline, so there is no "
                "backlog to shed from"
            )
        if self.policy is ShedPolicy.ADAPTIVE:
            if self.adaptive is None:
                object.__setattr__(self, "adaptive", AdaptiveConfig())
        elif self.adaptive is not None:
            raise ValueError(
                "adaptive admission tuning requires "
                "policy=ShedPolicy.ADAPTIVE"
            )
        if self.ladder is not None and self.scorer_model is None:
            raise ValueError(
                "the graduated response ladder is driven by micro-batch "
                "checkpoint verdicts: set scorer_model to enable it"
            )


def shed_policy(
    shed: bool, adaptive: AdaptiveConfig | None
) -> ShedPolicy:
    """The policy an engine config's ``shed`` / ``adaptive`` pair names."""
    if shed and adaptive is not None:
        raise ValueError(
            "shed and adaptive are mutually exclusive shedding policies"
        )
    if adaptive is not None:
        return ShedPolicy.ADAPTIVE
    return ShedPolicy.SHED if shed else ShedPolicy.BLOCK


@dataclass
class IngressResult:
    """Merged output of every lane, plus admission accounting."""

    sessions: list[SessionState] = field(default_factory=list)
    stats: NetworkStats = field(default_factory=NetworkStats)
    latencies: list[DetectionLatency] = field(default_factory=list)
    ml_verdicts: list[BatchVerdict] = field(default_factory=list)
    lanes: list[LaneResult] = field(default_factory=list)
    handled: int = 0
    probes_loaded: int = 0
    queued: int = 0
    shed: int = 0
    first_timestamp: float = 0.0
    last_timestamp: float = 0.0
    #: Deployment-wide metrics (admission + every lane, merged in lane
    #: order) and the merged flight-recorder timeline (empty unless
    #: ``flight_interval`` was set).
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    flight: list[FlightFrame] = field(default_factory=list)
    #: Tail-sampled span trees from every lane, merged in (lane, seq)
    #: order (empty unless ``spans`` was configured).
    spans: list[SpanTree] = field(default_factory=list)
    #: Network-wide graduated-response ladder state (None unless the
    #: ladder was enabled); byte-identical across executors and lane
    #: layouts once canonically serialised.
    ladder: dict | None = None
    #: Adaptive admission ledger (None unless policy was ADAPTIVE).
    overload: OverloadReport | None = None

    def session_sets(self) -> SessionSets:
        """Set-algebra census over the merged analyzable sessions."""
        return SessionSets.from_sessions(self.sessions)


class IngressPipeline:
    """Routes admitted events to their lanes through an executor.

    One lane per proxy node; build workers with
    :func:`replay_workers` / the workload engine's session workers and
    feed events through :meth:`submit` from a single admission driver.
    """

    def __init__(
        self,
        network: ProxyNetwork,
        workers,
        config: IngressConfig | None = None,
    ) -> None:
        config = config or IngressConfig()
        expected = len(network.nodes) * config.lanes_per_node
        if len(workers) != expected:
            raise ValueError(
                f"need one worker per (node, shard) lane: {len(workers)} "
                f"workers for {len(network.nodes)} nodes x "
                f"{config.lanes_per_node} lanes_per_node = {expected}"
            )
        if config.executor == "process" and (
            network.taps
            or any(
                node.detection.registry.has_listeners
                for node in network.nodes
            )
            or any(node.has_metric_listeners for node in network.nodes)
        ):
            raise ValueError(
                "traffic taps / registry listeners / metrics listeners "
                "cannot observe process-executor lanes (they would fire "
                "in the child interpreter and be lost): record with the "
                "serial executor, or detach the observers first"
            )
        self._network = network
        self._config = config
        self._executor = build_executor(
            config.executor,
            workers,
            depth=config.queue_depth,
            policy=config.policy,
            chunk_size=config.chunk_size,
        )
        self._closed = False
        #: Admission-side registry: queue/shed accounting the lanes
        #: cannot see (they live behind the queues being measured).
        self.metrics = MetricsRegistry()
        #: Front-door delay-budget controller (ADAPTIVE policy only);
        #: the executor itself runs BLOCK as the backstop, so whatever
        #: the controller admits is never dropped again.
        self._adaptive = (
            DelayBudgetController(
                config.adaptive, expected, metrics=self.metrics
            )
            if config.policy is ShedPolicy.ADAPTIVE
            else None
        )
        # Live queue-delay prediction state: per-lane drain-rate EWMAs
        # fed from (enqueued - depth) deltas on the wall clock.
        self._delay_updated: float | None = None
        self._delay_delivered: dict[int, int] = {}
        self._drain_rates: dict[int, float] = {}
        self._predicted_delays: dict[int, float] = {}
        self._flight = (
            FlightRecorder(
                config.flight_interval,
                self.metrics,
                prepare=self._collect_admission,
            )
            if config.flight_interval
            else None
        )

    @property
    def config(self) -> IngressConfig:
        """The admission parameters."""
        return self._config

    @property
    def n_lanes(self) -> int:
        """How many lanes events are partitioned across."""
        return self._executor.n_lanes

    def lane_for(self, client_ip: str) -> int:
        """Stable lane assignment: sticky node index, then state shard.

        With ``lanes_per_node`` L, node i's shards occupy lanes
        ``i*L .. i*L+L-1``; the within-node offset is the same IP hash
        the partitioned stores shard on, so a lane's events touch
        exactly the state that lane carries.
        """
        node_index = self._network.node_index_for(client_ip)
        lanes = self._config.lanes_per_node
        if lanes <= 1:
            return node_index
        return node_index * lanes + partition_index(client_ip, lanes)

    def submit(self, event, client_ip: str, force: bool = False) -> bool:
        """Admit one event; False when the shed policy refused it.

        ``force`` bypasses shedding for events that must never drop
        (probe-journal registrations are key material, not load).
        """
        if self._closed:
            raise RuntimeError("submit() on a closed ingress pipeline")
        lane = self.lane_for(client_ip)
        if self._adaptive is not None and not force:
            admitted = self._adaptive.admit(
                lane, client_ip, self._predicted_delays.get(lane, 0.0)
            )
            if not admitted:
                return False
        return self._executor.submit(lane, event, force=force)

    #: Wall seconds between live queue-delay re-estimates (tick() is
    #: per-arrival; sampling queue depths that often would be noise).
    _DELAY_INTERVAL = 0.05
    #: Predicted delays are capped: a stalled lane reports this, never
    #: infinity (the canonical JSON exporters reject non-finite floats).
    _DELAY_CAP = 3600.0
    _DELAY_ALPHA = 0.2

    def tick(self, timestamp: float) -> None:
        """Advance admission-side observability to an event time.

        Drivers call this once per arrival (before submitting it): the
        flight recorder lands queue-depth and shed trajectories on the
        same virtual-time grid the lanes sample on, and the live
        queue-delay estimate (:meth:`queue_delays`) refreshes on a
        wall-clock rate limit.
        """
        if self._flight is not None:
            self._flight.tick(timestamp)
        now = time.monotonic()
        if (
            self._delay_updated is None
            or now - self._delay_updated >= self._DELAY_INTERVAL
        ):
            self._update_queue_delays(now)

    def queue_delays(self) -> dict[int, float]:
        """Predicted per-lane queueing delay in wall seconds, by lane.

        ``depth / drain-rate-EWMA`` per lane — the admission-side
        latency signal queue-delay-aware shedding (the ROADMAP's
        graduated-response ladder) reads.  Empty until the first
        :meth:`tick`; a backlogged lane whose drain rate has collapsed
        reports the cap, never infinity.
        """
        return dict(self._predicted_delays)

    def _update_queue_delays(self, now: float) -> None:
        depths = self._executor.lane_depths()
        elapsed = (
            None
            if self._delay_updated is None
            else now - self._delay_updated
        )
        self._delay_updated = now
        for counters in self._executor.telemetry_now():
            lane = counters.lane
            depth = depths[lane]
            delivered = max(0, counters.enqueued - depth)
            previous = self._delay_delivered.get(lane)
            self._delay_delivered[lane] = delivered
            if elapsed is not None and elapsed > 0 and previous is not None:
                rate = (delivered - previous) / elapsed
                ewma = self._drain_rates.get(lane)
                self._drain_rates[lane] = (
                    rate
                    if ewma is None
                    else ewma + self._DELAY_ALPHA * (rate - ewma)
                )
            rate = self._drain_rates.get(lane, 0.0)
            if depth == 0:
                predicted = 0.0
            elif rate <= 0.0:
                predicted = self._DELAY_CAP
            else:
                predicted = min(self._DELAY_CAP, depth / rate)
            self._set_predicted(lane, predicted)

    def _collect_admission(self) -> None:
        # Transport chunking must not show up in frames: flushed, the
        # enqueued counters reflect exactly the events submitted before
        # this virtual-time boundary — identical on every executor.
        self._executor.flush_pending()
        depths = self._executor.lane_depths()
        self._publish_admission(self._executor.telemetry_now())
        for lane, depth in enumerate(depths):
            self.metrics.gauge(
                "repro_ingress_queue_depth", {"lane": str(lane)}, wall=True
            ).set(depth)
        # A lane that fully drained since the last tick() must not keep
        # reporting its last (pre-drain) delay prediction: a stale
        # non-zero series would tell the adaptive controller — and any
        # flight-recorder frame — that an empty lane is still slow.
        for lane, predicted in list(self._predicted_delays.items()):
            if predicted and depths[lane] == 0:
                self._set_predicted(lane, 0.0)

    def _publish_admission(self, telemetry) -> list[int]:
        """Set the per-lane admission series from delivery counters.

        Idempotent ``set()``s, so the final accounting at close agrees
        with whatever a flight frame already collected.  Returns each
        lane's total shed count (queue-full plus delay-budget).
        """
        adaptive_shed = (
            self._adaptive.lane_shed_counts()
            if self._adaptive is not None
            else [0] * self._executor.n_lanes
        )
        shed = []
        for counters in telemetry:
            labels = {"lane": str(counters.lane)}
            shed.append(counters.shed + adaptive_shed[counters.lane])
            self.metrics.counter(
                "repro_ingress_admitted_total", labels
            ).set(counters.enqueued)
            self.metrics.counter(
                "repro_ingress_shed_total", labels
            ).set(shed[-1])
            if counters.shed:
                self.metrics.counter(
                    "repro_ingress_shed_reason_total",
                    {**labels, "reason": "queue_full"},
                    wall=True,
                ).set(counters.shed)
            self.metrics.gauge(
                "repro_ingress_queue_high_watermark",
                labels,
                wall=True,
                agg="max",
            ).set_max(counters.high_watermark)
        return shed

    def _set_predicted(self, lane: int, predicted: float) -> None:
        self._predicted_delays[lane] = predicted
        self.metrics.gauge(
            "repro_ingress_queue_delay_predicted_seconds",
            {"lane": str(lane)},
            wall=True,
        ).set(predicted)

    def close(self) -> IngressResult:
        """Drain every lane, collect lane results, merge deterministically."""
        if self._closed:
            raise RuntimeError("ingress pipeline already closed")
        self._closed = True
        lane_results, telemetry = self._executor.close()
        return self._merge(lane_results, telemetry)

    def _merge(self, lane_results, telemetry) -> IngressResult:
        result = IngressResult(lanes=list(lane_results))
        # Final admission accounting, before the registry is snapshot
        # into the deployment-wide merge below.
        shed = self._publish_admission(telemetry)
        firsts: list[float] = []
        lasts: list[float] = []
        for lane in lane_results:
            counters = telemetry[lane.lane]
            # Admission-side accounting folds into the lane's own node
            # stats so Table-1 aggregates always balance: every arrival
            # is either queued (and eventually handled) or shed —
            # whether the queue refused it or the delay-budget
            # controller did.
            lane.stats.queued += counters.enqueued
            lane.stats.shed += shed[lane.lane]
            result.ml_verdicts.extend(lane.ml_verdicts)
            result.stats.absorb(lane.stats)
            result.handled += lane.handled
            result.probes_loaded += lane.probes_loaded
            if lane.first_timestamp is not None:
                firsts.append(lane.first_timestamp)
            if lane.last_timestamp is not None:
                lasts.append(lane.last_timestamp)
        lanes_per_node = self._config.lanes_per_node
        if lanes_per_node <= 1:
            for lane in lane_results:
                result.sessions.extend(lane.sessions)
                result.latencies.extend(lane.latencies)
        else:
            # Per-shard lanes: regroup each node's shard lanes and merge
            # their sessions in the same deterministic order the sharded
            # service's own reductions use, latencies riding along with
            # their sessions — so the merged lists are byte-identical to
            # the one-lane-per-node layout.
            for start in range(0, len(lane_results), lanes_per_node):
                pairs = [
                    (session, latency)
                    for lane in lane_results[start : start + lanes_per_node]
                    for session, latency in zip(
                        lane.sessions, lane.latencies
                    )
                ]
                pairs.sort(key=lambda pair: _session_order(pair[0]))
                result.sessions.extend(pair[0] for pair in pairs)
                result.latencies.extend(pair[1] for pair in pairs)
        result.queued = result.stats.queued
        result.shed = result.stats.shed
        result.first_timestamp = min(firsts) if firsts else 0.0
        result.last_timestamp = max(lasts) if lasts else 0.0
        # Every queue is drained at close: clear any still-published
        # delay prediction so the final snapshot cannot carry a stale
        # non-zero series for an empty lane.
        for lane, predicted in list(self._predicted_delays.items()):
            if predicted:
                self._set_predicted(lane, 0.0)
        if self._adaptive is not None:
            result.overload = self._adaptive.report()
        ladder_states = [
            lane.ladder for lane in lane_results if lane.ladder is not None
        ]
        if ladder_states:
            result.ladder = merge_ladder_states(ladder_states)
        lane_snapshots = [
            lane.metrics
            for lane in lane_results
            if lane.metrics is not None
        ]
        result.metrics = merge_snapshots(
            [self.metrics.snapshot(), *lane_snapshots]
        )
        result.spans = merge_traces(
            lane.spans for lane in lane_results
        )
        if self._flight is not None or any(
            lane.flight for lane in lane_results
        ):
            frames = [lane.flight for lane in lane_results]
            finals = [
                lane.metrics or MetricsSnapshot() for lane in lane_results
            ]
            if self._flight is not None:
                frames = [self._flight.frames, *frames]
                finals = [self.metrics.snapshot(), *finals]
            result.flight = merge_flight(frames, finals)
        return result


def replay_workers(
    network: ProxyNetwork, config: IngressConfig
) -> list:
    """One :class:`ReplayLaneWorker` per lane state, from ``config``.

    ``lanes_per_node == 1`` wraps each node; larger values hand out each
    node's :class:`~repro.proxy.node.NodeShard` as its own lane (the
    node refuses counts that do not match its shard layout).
    """
    from repro.ingress.workers import ReplayLaneWorker

    workers = []
    for node in network.nodes:
        for state in node.lane_states(config.lanes_per_node):
            workers.append(
                ReplayLaneWorker(
                    len(workers),
                    state,
                    housekeeping_interval=config.housekeeping_interval,
                    scorer_model=config.scorer_model,
                    batch=config.batch,
                    taps=network.taps,
                    flight_interval=config.flight_interval,
                    spans=config.spans,
                    ladder=config.ladder,
                )
            )
    return workers
