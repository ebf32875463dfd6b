"""Per-lane micro-batching of session scoring.

A streaming ingress sees one request at a time, and the §4.2 ensemble
judges one session at a time.  The micro-batcher sits between them:
every arrival updates its session's streaming
:class:`~repro.ml.features.FeatureAccumulator` (``SessionState.features``,
made here on the session's first scored exchange) and marks the session
*dirty*; dirty sessions are coalesced and each is scored once, with its
latest Table 2 row, by :meth:`~repro.ml.adaboost.AdaBoostModel.score_row`
when either

* :data:`MAX_BATCH` distinct sessions are dirty (count budget), or
* the oldest un-scored update has waited :data:`MAX_DELAY` *virtual*
  seconds (latency budget — event time, not wall clock, so batch
  boundaries are a pure function of the event stream and identical
  under every executor and queue depth).

Coalescing is the point: a session touched 50 times between flushes is
scored once, with its latest snapshot.  Re-scoring across flushes tracks
sessions as they accumulate evidence, the way the online classifier
re-judges per request.  Scoring a row is a dozen ``bisect`` lookups and
builds no numpy array, so a lane makes no numpy call to score.

The batcher keeps no session table of its own: the session tracker
decides how long a session's attributes live (it drops them when it
retires the session), and the dirty map holds each dirty session's
accumulator, so a session rotated or expired since the last flush still
gets its final score at the next one.
"""

from __future__ import annotations

from time import perf_counter

from repro.detection.service import RequestOutcome
from repro.http.message import Request, Response
from repro.ml.adaboost import AdaBoostModel
from repro.ml.batch import BatchVerdict
from repro.ml.features import FeatureAccumulator
from repro.overload.ladder import is_checkpoint

#: Count budget: distinct dirty sessions that force a flush.
MAX_BATCH = 256
#: Latency budget: virtual seconds the oldest un-scored update may wait.
MAX_DELAY = 60.0


class MicroBatcher:
    """Coalesces one lane's arrivals into scored flushes.

    With ``model=None`` the batcher is inert (zero cost per request) —
    the ingress always owns one so the wiring is uniform.  All state is
    lane-local and picklable, so a batcher rides inside process-executor
    lane workers unchanged.
    """

    def __init__(self, model: AdaBoostModel | None) -> None:
        self._model = model
        #: Response-ladder router fed by checkpoint verdicts; None = off.
        self._ladder = None
        self._checkpoint_base = 0
        #: session_id -> accumulator of the sessions updated since the
        #: last flush, in first-touch order.
        self._dirty: dict[str, FeatureAccumulator] = {}
        self._first_dirty_at: float | None = None
        self._clock = 0.0
        self.verdicts: list[BatchVerdict] = []
        self.flushes = 0
        self._flush_total = None
        self._flush_sessions = None
        self._flush_delay = None
        self._pending_gauge = None
        self._score_seconds = None
        self._scored_total = None
        self._tracer = None

    def attach_tracer(self, tracer) -> None:
        """Emit flush/score spans into ``tracer`` (``None`` detaches).

        Spans nest under whatever trace the lane currently has open —
        the triggering request's, or the finish trace on close — and
        are silently dropped when none is (``SpanTracer.span`` is a
        no-op while idle).
        """
        self._tracer = tracer

    def attach_metrics(self, registry, labels=None) -> None:
        """Wire flush-size/latency distributions into a registry.

        Everything here but ``repro_batch_score_seconds`` (the wall time
        of each flush's scoring) is in the deterministic domain: flush
        boundaries, batch sizes, coalescing delays and scored-session
        counts are pure functions of the (event-time) arrival stream.
        """
        from repro.obs.registry import (
            EVENT_SECONDS_BUCKETS,
            SIZE_BUCKETS,
            WALL_SECONDS_BUCKETS,
        )

        self._flush_total = registry.counter("repro_batch_flush_total", labels)
        self._flush_sessions = registry.histogram(
            "repro_batch_flush_sessions", SIZE_BUCKETS, labels
        )
        self._flush_delay = registry.histogram(
            "repro_batch_flush_delay_event_seconds",
            EVENT_SECONDS_BUCKETS,
            labels,
        )
        self._pending_gauge = registry.gauge(
            "repro_batch_pending_sessions", labels
        )
        if self._model is not None:
            self._score_seconds = registry.histogram(
                "repro_batch_score_seconds", WALL_SECONDS_BUCKETS,
                labels, wall=True,
            )
            self._scored_total = registry.counter(
                "repro_batch_sessions_scored_total", labels
            )

    def attach_ladder(self, router, checkpoint_base: int) -> None:
        """Drive a graduated response ladder from checkpoint verdicts.

        ``router`` exposes ``observe_verdict(ip, margin, ts)`` (a
        :class:`~repro.overload.ladder.ResponseLadder`, or a node routing
        to its shards' ladders).  Checkpoints — a session's own observed
        request count hitting a power of two >= ``checkpoint_base`` —
        score that single session immediately, outside the flush
        cadence: flush boundaries depend on the lane's combined stream,
        while checkpoints are a pure function of each session's own
        stream, which is what keeps ladder state byte-identical across
        executors *and* shard counts.  Checkpoint verdicts feed only
        the ladder; ``verdicts`` still comes from batch flushes alone.
        """
        if self._model is None:
            raise ValueError(
                "a scoring model is required to drive the ladder"
            )
        self._ladder = router
        self._checkpoint_base = checkpoint_base

    @property
    def enabled(self) -> bool:
        """Whether a model is attached (otherwise observe() is a no-op)."""
        return self._model is not None

    @property
    def pending(self) -> int:
        """Dirty sessions awaiting the next flush."""
        return len(self._dirty)

    def observe(
        self, outcome: RequestOutcome, request: Request, response: Response
    ) -> None:
        """Account one handled exchange; may trigger a flush."""
        if self._model is None:
            return
        state = outcome.state
        accumulator = state.features
        if accumulator is None:
            accumulator = state.features = FeatureAccumulator()
        accumulator.observe(request, response)
        timestamp = request.timestamp
        if self._ladder is not None and is_checkpoint(
            accumulator.total, self._checkpoint_base
        ):
            self._ladder.observe_verdict(
                state.key.client_ip,
                self._model.score_row(accumulator.row()),
                timestamp,
            )
        self._clock = max(self._clock, timestamp)
        self._dirty[state.session_id] = accumulator
        if self._first_dirty_at is None:
            self._first_dirty_at = timestamp
        if self._pending_gauge is not None:
            self._pending_gauge.set(len(self._dirty))

        if (
            len(self._dirty) >= MAX_BATCH
            or timestamp - self._first_dirty_at >= MAX_DELAY
        ):
            self.flush()

    def flush(self) -> list[BatchVerdict]:
        """Score every dirty session; returns the batch in touch order."""
        if self._model is None or not self._dirty:
            return []
        if self._tracer is None:
            return self._flush_inner()
        with self._tracer.span("batch_flush", self._clock):
            return self._flush_inner()

    def _flush_inner(self) -> list[BatchVerdict]:
        if self._flush_total is not None:
            self._flush_total.inc()
            self._flush_sessions.observe(len(self._dirty))
            if self._first_dirty_at is not None:
                self._flush_delay.observe(
                    max(0.0, self._clock - self._first_dirty_at)
                )
        if self._tracer is None:
            batch = self._score_dirty()
        else:
            with self._tracer.span("batch_score", self._clock):
                batch = self._score_dirty()
        self._dirty.clear()
        self._first_dirty_at = None
        self.verdicts.extend(batch)
        self.flushes += 1
        if self._pending_gauge is not None:
            self._pending_gauge.set(len(self._dirty))
        return batch

    def _score_dirty(self) -> list[BatchVerdict]:
        score_row = self._model.score_row
        started = perf_counter()
        batch = [
            BatchVerdict(session_id, score_row(accumulator.row()))
            for session_id, accumulator in self._dirty.items()
        ]
        if self._score_seconds is not None:
            self._score_seconds.observe(perf_counter() - started)
            self._scored_total.inc(len(batch))
        return batch

    def close(self) -> list[BatchVerdict]:
        """Final flush: score whatever is still dirty."""
        return self.flush()
