"""Time-interleaved session scheduling: the one session driver.

Driving sessions one at a time is fine for census arithmetic (the
tracker keys state by <IP, User-Agent>) but incapable of expressing load
shape: every request of session A would hit the proxy before any request
of session B, no matter what their timestamps say.

:class:`InterleavedScheduler` instead keeps every live session as a
:class:`~repro.workload.session_run.SessionCursor` in a min-heap ordered
by next-event time and always performs the earliest fetch, so its
handler sees requests in true timestamp order.  That is what makes
flash-crowd and diurnal arrival profiles (:mod:`repro.trace.arrival`)
meaningful.  Each ingress lane runs one scheduler over its own node's
sessions (:class:`~repro.ingress.workers.WorkloadLaneWorker`), which is
the same discipline trace replay applies to recorded events — one lane,
one event clock — for synthetic and recorded traffic alike.

Per-session results do not depend on how sessions are grouped into
lanes: cursors own all per-session state, and the only shared state
(caches, probe tables, trackers) is keyed or content-equivalent under
reordering.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable

from repro.agents.base import Agent, SessionBudget
from repro.ml.dataset import DEFAULT_CHECKPOINTS
from repro.workload.session_run import Handler, SessionCursor, SessionRecord


class InterleavedScheduler:
    """Steps many agent sessions through one handler in event-time order."""

    def __init__(
        self,
        handler: Handler,
        budget: SessionBudget | None = None,
        collect_features: bool = False,
        checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS,
        housekeeping: Callable[[float], None] | None = None,
        housekeeping_interval: float = 0.0,
    ) -> None:
        if housekeeping_interval < 0:
            raise ValueError("housekeeping_interval must be non-negative")
        self._handler = handler
        self._budget = budget
        self._collect_features = collect_features
        self._checkpoints = checkpoints
        self._housekeeping = housekeeping
        self._interval = housekeeping_interval

    def run(
        self,
        agents: Iterable[Agent],
        starts: Iterable[float],
        on_session_end: Callable[[SessionRecord], None] | None = None,
    ) -> list[SessionRecord]:
        """Drive all sessions to completion in event order.

        ``on_session_end`` fires the moment each session finishes — at
        that point its tracker state is still live, so callers can attach
        ground truth.  Records are returned in the agents' original
        order.
        """
        cursors: list[SessionCursor] = []
        heap: list[tuple[float, int, int]] = []
        records: list[SessionRecord | None] = []

        for index, (agent, start) in enumerate(zip(agents, starts)):
            cursor = SessionCursor(
                agent,
                start_time=start,
                budget=self._budget,
                collect_features=self._collect_features,
                checkpoints=self._checkpoints,
            )
            cursors.append(cursor)
            records.append(None)
            if cursor.begin():
                heapq.heappush(heap, (cursor.next_time, index, index))
            else:
                records[index] = cursor.record
                if on_session_end is not None:
                    on_session_end(cursor.record)

        # One sweep per elapsed interval of event time; a sweep at the
        # end of an idle gap subsumes the boundary sweeps inside it.
        interval = self._interval if self._housekeeping else 0.0
        next_service = interval if interval else None
        while heap:
            now, _, index = heapq.heappop(heap)
            if next_service is not None and now >= next_service:
                self._housekeeping(now)
                next_service = now + interval
            cursor = cursors[index]
            if cursor.step(self._handler):
                heapq.heappush(heap, (cursor.next_time, index, index))
            else:
                records[index] = cursor.record
                if on_session_end is not None:
                    on_session_end(cursor.record)

        return [record for record in records if record is not None]
