"""Lane workers: the per-lane consumers the executors drive.

A lane is one node shard: a :class:`~repro.proxy.node.NodeShard` —
one detection service plus its own probe table, cache, rate limiter
and response ladder.  The containment property holds by construction:
a lane's events touch that shard's state only, which is what makes
lanes safe to run in separate processes with no locks and no
cross-talk.

Two worker flavours:

* :class:`ReplayLaneWorker` consumes trace events — requests and
  journalled pages, each page's probe-journal lines one event and one
  ``register_page`` — in admission order, sweeping its shard's
  housekeeping on the lane's own event clock and feeding every handled
  exchange to the lane's :class:`~repro.ingress.batcher.MicroBatcher`.
* :class:`WorkloadLaneWorker` consumes *session* events (agent + start
  time), then drives them through the shard with the interleaved
  event-time scheduler at finish, annotating ground truth and running
  the CAPTCHA funnel — per-IP RNG splits make those outcomes
  independent of which lane a session landed on.

Both return a picklable :class:`LaneResult`, so the same worker code
runs inline or inside a lane's child process — and these
two workers are the only code that drives a request into a shard for
:class:`~repro.trace.replay.TraceReplayEngine` and
:class:`~repro.workload.engine.WorkloadEngine`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.captcha.challenge import CaptchaOutcome
from repro.captcha.service import CaptchaConfig, CaptchaService, CaptchaStats
from repro.detection.session import SessionState
from repro.detection.verdict import Label
from repro.ingress.batcher import MicroBatchConfig, MicroBatcher
from repro.ml.adaboost import AdaBoostModel
from repro.ml.batch import BatchVerdict
from repro.obs.flight import FlightFrame, FlightRecorder
from repro.obs.registry import (
    EVENT_SECONDS_BUCKETS,
    WALL_SECONDS_BUCKETS,
    MetricsSnapshot,
)
from repro.obs.spans import (
    QueueDelayEstimator,
    SpanConfig,
    SpanTracer,
    SpanTree,
    TailSampler,
)
from repro.overload.ladder import LADDER_HEADER, LadderConfig
from repro.proxy.node import NodeShard, NodeStats
from repro.util.rng import RngStream
from repro.workload.session_run import SessionRecord

#: Event tags admitted through the ingress lanes.
REQUEST_EVENT = "request"
PROBE_EVENT = "probe"
SESSION_EVENT = "session"


@dataclass
class LaneResult:
    """Everything one lane produced, picklable for process executors."""

    lane: int
    stats: NodeStats
    sessions: list[SessionState] = field(default_factory=list)
    ml_verdicts: list[BatchVerdict] = field(default_factory=list)
    handled: int = 0
    probes_loaded: int = 0
    first_timestamp: float | None = None
    last_timestamp: float | None = None
    #: Workload lanes only: (submission index, record) pairs and the
    #: lane's CAPTCHA funnel counters.
    records: list[tuple[int, SessionRecord]] | None = None
    captcha_stats: CaptchaStats | None = None
    #: The lane registry's final snapshot and its flight-recorder frames
    #: (both picklable, so they ship back from process-executor lanes).
    metrics: MetricsSnapshot | None = None
    flight: list[FlightFrame] = field(default_factory=list)
    #: Tail-sampled span trees this lane retained (picklable; merged in
    #: lane order like metrics).
    spans: list[SpanTree] = field(default_factory=list)
    #: Graduated-response ladder export for this lane's IPs (None when
    #: the ladder was not enabled); merged across lanes by plain union.
    ladder: dict | None = None


def _request_flags(response, outcome) -> tuple[str, ...]:
    """Retention flags for one handled exchange's trace."""
    flags: list[str] = []
    ladder_stage = response.headers.get(LADDER_HEADER)
    if ladder_stage is not None:
        # Ladder enforcements never reach detection (outcome is None);
        # the response header is the span's attribution instead.
        flags.append("robot")
        flags.append(f"ladder:{ladder_stage}")
    if outcome is not None and (
        outcome.blocked or outcome.verdict.label is Label.ROBOT
    ):
        flags.append("robot")
    if response.status >= 500:
        flags.append("error")
    return tuple(flags)


def export_captcha_stats(metrics, stats: CaptchaStats) -> None:
    """Collect the CAPTCHA funnel into (unlabeled) counters."""
    for name in ("offered", "declined", "attempted", "passed", "failed"):
        metrics.counter(f"repro_captcha_{name}_total").set(
            getattr(stats, name)
        )


class _LaneWorker:
    """What both worker flavours hang on their lane's shard.

    Lane metrics live on the shard's registry — the shard is the lane's
    state, so one registry rides wherever the lane runs — next to the
    lane's optional span tracer and flight recorder.
    """

    def __init__(
        self,
        lane: int,
        shard: NodeShard,
        taps,
        flight_interval: float | None,
        spans: SpanConfig | None,
    ) -> None:
        self.lane = lane
        self.shard = shard
        self._taps = tuple(taps)
        self._lane_labels = {"lane": str(lane)}
        self._queue_wait_wall = shard.metrics.histogram(
            "repro_ingress_queue_wait_seconds",
            WALL_SECONDS_BUCKETS,
            self._lane_labels,
            wall=True,
        )
        #: Live EWMA of this lane's queue delay, mirrored onto gauges so
        #: snapshots / flight frames carry it.
        self.delay_estimator = QueueDelayEstimator()
        self._delay_wall_gauge = shard.metrics.gauge(
            "repro_ingress_queue_delay_ewma_seconds",
            self._lane_labels,
            wall=True,
        )
        #: Wall seconds the most recent admitted event sat queued (0 on
        #: the serial executor, which never queues).
        self._last_wait = 0.0
        self._tracer = (
            SpanTracer(lane, TailSampler(spans))
            if spans is not None
            else None
        )
        if self._tracer is not None:
            shard.attach_tracer(self._tracer)
        self._flight = (
            FlightRecorder(
                flight_interval,
                shard.metrics,
                snapshot=shard.metrics_snapshot,
            )
            if flight_interval
            else None
        )

    def note_queue_wait(self, seconds: float) -> None:
        """Record wall-clock time an admitted event sat in the lane queue."""
        self._queue_wait_wall.observe(seconds)
        self._last_wait = seconds
        self.delay_estimator.observe_wall(seconds)
        self._delay_wall_gauge.set(self.delay_estimator.wall_seconds)

    def _finalize(self, end: float, close_batcher=None) -> None:
        """Finalize the lane's detection state.

        With tracing on, the work lands in one always-retained
        end-of-run trace per lane (``close_batcher``, the replay lanes'
        final scoring flush, as its own span).
        """
        tracer = self._tracer
        if tracer is None:
            if close_batcher is not None:
                close_batcher()
            self.shard.detection.finalize()
            return
        tracer.begin("finish", end)
        if close_batcher is not None:
            with tracer.span("batch_close", end):
                close_batcher()
        with tracer.span("finalize", end):
            self.shard.detection.finalize()
        tracer.end(flags=("finish",))

    def _lane_result(self, **fields) -> LaneResult:
        """The reductions every lane reports, plus the flavour's own."""
        tracer = self._tracer
        return LaneResult(
            lane=self.lane,
            stats=self.shard.stats,
            sessions=self.shard.detection.tracker.analyzable(),
            metrics=self.shard.metrics_snapshot(),
            flight=self._flight.frames if self._flight is not None else [],
            spans=tracer.traces() if tracer is not None else [],
            **fields,
        )


class ReplayLaneWorker(_LaneWorker):
    """Streams one lane's trace events through its node shard."""

    def __init__(
        self,
        lane: int,
        shard: NodeShard,
        housekeeping_interval: float = 600.0,
        scorer_model: AdaBoostModel | None = None,
        batch: MicroBatchConfig | None = None,
        taps=(),
        flight_interval: float | None = None,
        spans: SpanConfig | None = None,
        ladder: LadderConfig | None = None,
    ) -> None:
        super().__init__(lane, shard, taps, flight_interval, spans)
        self._interval = housekeeping_interval or None
        self._next_sweep: float | None = None
        if batch is not None:
            # The batcher may only evict accumulators for sessions the
            # tracker would rotate on return; a shorter eviction window
            # would silently truncate feature histories.  Clamp up.
            tracker_timeout = shard.detection.tracker.idle_timeout
            if batch.idle_timeout < tracker_timeout:
                batch = replace(batch, idle_timeout=tracker_timeout)
        self._batcher = MicroBatcher(scorer_model, batch)
        #: The shard's response ladder when the graduated response is on
        #: for this lane.
        self._ladder = None
        if ladder is not None:
            self._ladder = shard.enable_ladder(ladder)
            self._batcher.attach_ladder(self._ladder, ladder.checkpoint_base)
        self._handled = 0
        self._probes_loaded = 0
        self._first: float | None = None
        self._last: float | None = None
        self._batcher.attach_metrics(shard.metrics, self._lane_labels)
        if self._tracer is not None:
            self._batcher.attach_tracer(self._tracer)
        # The event-time domain of the queue wait: how far behind the
        # lane's own clock an event is when it reaches the worker.
        self._queue_wait_event = shard.metrics.histogram(
            "repro_ingress_queue_wait_event_seconds",
            EVENT_SECONDS_BUCKETS,
            self._lane_labels,
        )
        self._delay_event_gauge = shard.metrics.gauge(
            "repro_ingress_queue_delay_ewma_event_seconds",
            self._lane_labels,
        )
        self._lane_clock: float | None = None

    def process(self, event) -> None:
        """Consume one admitted ``(kind, record)`` event — a request's
        :class:`~repro.trace.clf.TraceRecord`, or a page's journal
        records as one sequence."""
        kind, record = event
        tracer = self._tracer
        if kind == PROBE_EVENT:
            # ``record`` is one journalled page: its lines share a client
            # IP and an issue time, so one clock step, sweep and insert.
            ts = record[0].issued_at
            skew = self._observe_event_time(ts)
            self._sweep(ts)
            if tracer is not None:
                wall_now = time.perf_counter()
                tracer.begin(
                    "probe", ts, wall_start=wall_now - self._last_wait
                )
                tracer.record(
                    "queue_wait", ts, ts + skew,
                    wall_duration=self._last_wait, wall_end=wall_now,
                )
                with tracer.span("register", ts):
                    self.shard.register_page(
                        [line.to_probe() for line in record]
                    )
                tracer.end()
            else:
                self.shard.register_page([line.to_probe() for line in record])
            self._probes_loaded += len(record)
            return
        ts = record.timestamp
        skew = self._observe_event_time(ts)
        self._sweep(ts)
        request = record.to_request()
        if tracer is not None:
            # The root back-dates its wall start by the measured queue
            # wait, and the wait itself lands as an explicit child span
            # — always recorded, so trees keep one shape under every
            # executor (the serial lane simply reports a 0-second wait).
            # The retention flags are computed inside the handle span:
            # their cost is attributed, not root self-time.
            wall_now = time.perf_counter()
            tracer.begin(
                "request", ts, wall_start=wall_now - self._last_wait
            )
            tracer.record(
                "queue_wait", ts, ts + skew,
                wall_duration=self._last_wait, wall_end=wall_now,
            )
            with tracer.span("handle", ts):
                response, outcome = self.shard.handle_traced(request)
                flags = _request_flags(response, outcome)
        else:
            response, outcome = self.shard.handle_traced(request)
        if outcome is not None:
            if tracer is not None and self._batcher.enabled:
                with tracer.span("batch", ts):
                    self._batcher.observe(outcome, request, response)
            else:
                self._batcher.observe(outcome, request, response)
        # Lane traffic bypasses ProxyNetwork.handle, so the network's
        # taps (trace recorders) are fired here instead.
        for tap in self._taps:
            tap(request, response)
        if tracer is not None:
            tracer.end(flags=flags)
        self._handled += 1
        if self._first is None:
            self._first = record.timestamp
        self._last = record.timestamp

    def finish(self) -> LaneResult:
        """Flush scoring, finalize detection, reduce to a LaneResult."""
        batcher = self._batcher
        self._finalize(
            self._lane_clock if self._lane_clock is not None else 0.0,
            close_batcher=batcher.close if batcher.enabled else None,
        )
        return self._lane_result(
            ml_verdicts=batcher.verdicts,
            handled=self._handled,
            probes_loaded=self._probes_loaded,
            first_timestamp=self._first,
            last_timestamp=self._last,
            ladder=(
                self._ladder.export_state()
                if self._ladder is not None
                else None
            ),
        )

    def _observe_event_time(self, timestamp: float) -> float:
        # Event-time queue skew: how far behind the lane's own clock an
        # event is when it reaches the worker.  Pure function of the
        # admitted stream, so it lands in the deterministic domain.
        if self._flight is not None:
            self._flight.tick(timestamp)
        skew = 0.0
        if self._lane_clock is not None:
            skew = max(0.0, self._lane_clock - timestamp)
            self._queue_wait_event.observe(skew)
            self.delay_estimator.observe_event(skew)
            self._delay_event_gauge.set(self.delay_estimator.event_seconds)
        if self._lane_clock is None or timestamp > self._lane_clock:
            self._lane_clock = timestamp
        return skew

    def _sweep(self, timestamp: float) -> None:
        # Sweeps follow this lane's own event clock, anchored at its
        # first event: real logs carry absolute dates (years past the
        # virtual epoch), so counting boundaries from zero would spin
        # through hundreds of thousands of no-op sweeps before the first
        # request, and one sweep at the end of an idle gap subsumes the
        # boundary sweeps inside it.  Sweep timing is behaviour-neutral
        # (idle rotation, cache TTL and bucket eviction are all
        # re-checked on access), so shard count never changes results.
        if self._interval is None:
            return
        if self._next_sweep is None:
            self._next_sweep = timestamp + self._interval
        elif timestamp >= self._next_sweep:
            self.shard.housekeeping(timestamp)
            self._next_sweep = timestamp + self._interval


class WorkloadLaneWorker(_LaneWorker):
    """Buffers one lane's sessions, then drives them in event-time order.

    Admission streams ``(SESSION_EVENT, index, agent, start)`` tuples;
    the actual driving happens at :meth:`finish` so the lane can heap-
    order *all* its sessions by next-event time: the shard sees its own
    clients' requests in timestamp order, which is the only order any
    state depends on.
    """

    def __init__(
        self,
        lane: int,
        shard: NodeShard,
        budget,
        collect_features: bool,
        housekeeping_interval: float,
        captcha_enabled: bool,
        captcha_config: CaptchaConfig,
        captcha_rng: RngStream,
        taps=(),
        flight_interval: float | None = None,
        spans: SpanConfig | None = None,
    ) -> None:
        # Sessions are buffered and driven at finish, so only the wall
        # domain of the queue wait (admission, not event skew) is
        # meaningful here — the base's instruments are all there is.
        super().__init__(lane, shard, taps, flight_interval, spans)
        self._budget = budget
        self._collect_features = collect_features
        self._interval = housekeeping_interval
        self._captcha_enabled = captcha_enabled
        self._captcha = CaptchaService(captcha_config)
        self._captcha_rng = captcha_rng
        self._indices: list[int] = []
        self._agents: list = []
        self._starts: list[float] = []

    def process(self, event) -> None:
        """Accept one admitted session assignment."""
        _kind, index, agent, start = event
        self._indices.append(index)
        self._agents.append(agent)
        self._starts.append(start)

    def finish(self) -> LaneResult:
        """Drive the lane's sessions, annotate, finalize, reduce."""
        # Deferred: repro.trace.interleave reaches this package's
        # machinery through the workload engine, so a module-level
        # import would be circular through the package __init__ chain.
        from repro.trace.interleave import InterleavedScheduler

        handler = self.shard.handle
        if self._taps or self._flight is not None or self._tracer is not None:
            # Lane traffic bypasses ProxyNetwork.handle; fire the
            # network's taps (trace recorders) per exchange here — and
            # tick the flight recorder on the driven event clock.
            def handler(request, _handle=self.shard.handle_traced):
                if self._flight is not None:
                    self._flight.tick(request.timestamp)
                tracer = self._tracer
                if tracer is not None:
                    ts = request.timestamp
                    tracer.begin("request", ts)
                    with tracer.span("handle", ts):
                        response, outcome = _handle(request)
                        flags = _request_flags(response, outcome)
                else:
                    response, outcome = _handle(request)
                for tap in self._taps:
                    tap(request, response)
                if tracer is not None:
                    tracer.end(flags=flags)
                return response

        scheduler = InterleavedScheduler(
            handler,
            budget=self._budget,
            collect_features=self._collect_features,
            housekeeping=self.shard.housekeeping,
            housekeeping_interval=self._interval,
        )
        records = scheduler.run(
            self._agents, self._starts, on_session_end=self._annotate
        )

        self._finalize(
            max((record.ended_at for record in records), default=0.0)
        )
        export_captcha_stats(self.shard.metrics, self._captcha.stats)
        return self._lane_result(
            handled=sum(record.requests for record in records),
            records=list(zip(self._indices, records)),
            captcha_stats=self._captcha.stats,
        )

    def _annotate(self, record: SessionRecord) -> None:
        # Ground truth and the CAPTCHA funnel, the moment a session ends
        # (its tracker state is still live then).  The CAPTCHA stream is
        # split per client IP from the engine's base stream, so outcomes
        # are identical whichever lane (or process) the session ran in.
        state = self.shard.detection.tracker.get(
            record.client_ip, record.user_agent
        )
        if state is None:
            return
        state.true_label = record.true_label
        state.agent_kind = record.agent_kind
        if not self._captcha_enabled:
            return
        outcome = self._captcha.run_for_session(
            self._captcha_rng.split(f"captcha-{record.client_ip}"),
            is_human=record.true_label == "human",
        )
        state.note_captcha(outcome is CaptchaOutcome.PASSED)
