"""Per-lane micro-batching of session scoring.

A streaming ingress sees one request at a time, and the §4.2 ensemble
judges one session at a time.  The micro-batcher sits between them:
every arrival updates its session's streaming
:class:`~repro.ml.features.FeatureAccumulator` and marks the session
*dirty*; dirty sessions are coalesced and each is scored once, with its
latest Table 2 row, by :meth:`~repro.ml.adaboost.AdaBoostModel.score_row`
when either

* ``max_batch`` distinct sessions are dirty (count budget), or
* the oldest un-scored update has waited ``max_delay`` *virtual* seconds
  (latency budget — event time, not wall clock, so batch boundaries are
  a pure function of the event stream and identical under every executor
  and queue depth).

Coalescing is the point: a session touched 50 times between flushes is
scored once, with its latest snapshot.  Re-scoring across flushes tracks
sessions as they accumulate evidence, the way the online classifier
re-judges per request.  Scoring a row is a dozen ``bisect`` lookups and
builds no numpy array, so a lane makes no numpy call to score.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter

from repro.detection.service import RequestOutcome
from repro.http.message import Request, Response
from repro.ml.adaboost import AdaBoostModel
from repro.ml.batch import BatchVerdict
from repro.ml.features import FeatureAccumulator
from repro.overload.ladder import is_checkpoint
from repro.util.timeutil import HOUR


@dataclass(frozen=True)
class MicroBatchConfig:
    """Flush budgets for one lane's micro-batcher.

    ``idle_timeout`` bounds memory: a session's accumulator is dropped
    (at flush time, on the event clock) once the session has been idle
    that long.  Keep it >= the tracker's idle timeout — any session
    returning after such a gap is rotated to a fresh session id by the
    tracker anyway, so eviction can never change a score.
    """

    max_batch: int = 256
    max_delay: float = 60.0
    idle_timeout: float = HOUR

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_delay <= 0:
            raise ValueError("max_delay must be positive")
        if self.idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")


class MicroBatcher:
    """Coalesces one lane's arrivals into scored flushes.

    With ``model=None`` the batcher is inert (zero cost per request) —
    the ingress always owns one so the wiring is uniform.  All state is
    lane-local and picklable, so a batcher rides inside process-executor
    lane workers unchanged.
    """

    def __init__(
        self,
        model: AdaBoostModel | None,
        config: MicroBatchConfig | None = None,
    ) -> None:
        self._config = config or MicroBatchConfig()
        self._model = model
        #: Response-ladder router fed by checkpoint verdicts; None = off.
        self._ladder = None
        self._checkpoint_base = 0
        #: session_id -> streaming Table 2 attributes.
        self._accumulators: dict[str, FeatureAccumulator] = {}
        #: session_id -> (key, last event timestamp), for idle eviction.
        self._last_seen: dict[str, tuple[tuple[str, str], float]] = {}
        #: sessions updated since the last flush, in first-touch order.
        self._dirty: OrderedDict[str, None] = OrderedDict()
        self._first_dirty_at: float | None = None
        self._clock = 0.0
        #: live session per key, to retire rotated sessions' state.
        self._live: dict[tuple[str, str], str] = {}
        self._retired: set[str] = set()
        self.verdicts: list[BatchVerdict] = []
        self.flushes = 0
        self._flush_total = None
        self._flush_sessions = None
        self._flush_delay = None
        self._pending_gauge = None
        self._evicted_total = None
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
        boundaries, batch sizes, coalescing delays, scored-session
        counts and idle evictions are pure functions of the (event-time)
        arrival stream.
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
        self._evicted_total = registry.counter(
            "repro_batch_evicted_total", labels
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
        key = (state.key.client_ip, state.key.user_agent)
        session_id = state.session_id
        previous = self._live.get(key)
        if previous is not None and previous != session_id:
            self._retire(previous)
        self._live[key] = session_id

        accumulator = self._accumulators.get(session_id)
        if accumulator is None:
            accumulator = self._accumulators[session_id] = FeatureAccumulator()
        accumulator.observe(request, response)
        if self._ladder is not None and is_checkpoint(
            accumulator.total, self._checkpoint_base
        ):
            self._ladder.observe_verdict(
                key[0],
                self._model.score_row(accumulator.row()),
                request.timestamp,
            )
        self._last_seen[session_id] = (key, request.timestamp)
        self._clock = max(self._clock, request.timestamp)
        if session_id not in self._dirty:
            self._dirty[session_id] = None
        if self._first_dirty_at is None:
            self._first_dirty_at = request.timestamp
        if self._pending_gauge is not None:
            self._pending_gauge.set(len(self._dirty))

        cfg = self._config
        if (
            len(self._dirty) >= cfg.max_batch
            or request.timestamp - self._first_dirty_at >= cfg.max_delay
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
        for session_id in self._dirty:
            if session_id in self._retired:
                self._retired.discard(session_id)
                self._drop(session_id)
        self._dirty.clear()
        self._first_dirty_at = None
        self.verdicts.extend(batch)
        self.flushes += 1
        self._evict_idle()
        if self._pending_gauge is not None:
            self._pending_gauge.set(len(self._dirty))
        return batch

    def _score_dirty(self) -> list[BatchVerdict]:
        score_row = self._model.score_row
        accumulators = self._accumulators
        started = perf_counter()
        batch = [
            BatchVerdict(session_id, score_row(accumulators[session_id].row()))
            for session_id in self._dirty
        ]
        if self._score_seconds is not None:
            self._score_seconds.observe(perf_counter() - started)
            self._scored_total.inc(len(batch))
        return batch

    def close(self) -> list[BatchVerdict]:
        """Final flush: score whatever is still dirty."""
        return self.flush()

    def _retire(self, session_id: str) -> None:
        """A session rotated: drop its accumulator once finally scored."""
        if session_id in self._dirty:
            self._retired.add(session_id)
        else:
            self._drop(session_id)

    def _drop(self, session_id: str) -> None:
        self._accumulators.pop(session_id, None)
        entry = self._last_seen.pop(session_id, None)
        if entry is not None:
            key, _seen = entry
            if self._live.get(key) == session_id:
                del self._live[key]

    def _evict_idle(self) -> None:
        """Bound steady-state memory on million-session streams.

        Runs after each flush (event clock, so identical under every
        executor and queue depth): sessions idle past ``idle_timeout``
        have already received their final score — if they ever return,
        the tracker hands them a *new* session id — so their
        accumulators are dead weight.
        """
        horizon = self._clock - self._config.idle_timeout
        if horizon <= 0:
            return
        stale = [
            session_id
            for session_id, (_key, seen) in self._last_seen.items()
            if seen < horizon and session_id not in self._dirty
        ]
        for session_id in stale:
            self._retired.discard(session_id)
            self._drop(session_id)
        if self._evicted_total is not None and stale:
            self._evicted_total.inc(len(stale))
