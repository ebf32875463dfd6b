"""Causal per-session tracing: span trees, bounded retention, profiling.

Where :mod:`repro.obs.registry` answers "how much / how often", this
module answers "where did *this* request's time go".  Every admitted
event can carry a trace: a tree of named spans covering the full path —
lane-queue wait, node-shard dispatch, detection update, micro-batch
flush, vectorized scoring, verdict/CAPTCHA policy — in **both clock
domains**:

* **virtual** (event time): span boundaries derived purely from event
  timestamps and the admitted per-lane order.  The virtual view of a
  span tree is a pure function of the admitted event stream, so it is
  byte-identical across the ``serial``/``process`` ingress
  executors and every queue depth — the same contract the metric
  snapshots honour.
* **wall** (``perf_counter``): real elapsed time per stage, the numbers
  capacity planning and the ``repro profile`` critical-path report
  want.  Wall clocks are lane-local (a process lane's clock lives in
  the child interpreter), so wall times are only comparable *within*
  a trace, never across lanes.

Recording every trace at replay scale would swamp memory, so each
lane's :class:`SpanTracer` keeps exemplar traces per category under one
budget N.  Categories split into the same two domains as metrics:

* deterministic — ``head`` (the first N unflagged traces a lane
  admits), ``robot`` (the first 2N requests that ended under a robot
  verdict or policy block), ``error`` (the first N 5xx responses),
  ``finish`` (every lane's end-of-run flush / finalize trace).  Which
  traces these keep is a pure function of the admitted stream.
* wall — ``slow`` (the N slowest by root wall duration).  Inherently
  timing-dependent, so it is excluded from the deterministic export
  view.

Everything here is picklable: tracers ride lane workers into process
children, and retained trees ride :class:`~repro.ingress.workers.LaneResult`
back, merging in lane order like metric snapshots do.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

__all__ = [
    "DETERMINISTIC_CATEGORIES",
    "ProfileReport",
    "Span",
    "SpanTracer",
    "SpanTree",
    "StageStats",
    "profile_stages",
    "to_trace_events",
    "trace_trees_from_json",
]

#: Retention categories that are pure functions of the admitted stream.
DETERMINISTIC_CATEGORIES: tuple[str, ...] = (
    "head", "robot", "error", "finish",
)

TRACE_EVENT_SCHEMA = "repro.spans/v1"


@dataclass(slots=True)
class Span:
    """One named stage of one trace, in both clock domains.

    ``span_id`` counts creation order within the trace (0 = root), so
    ids — like everything virtual — are deterministic.  Wall times are
    lane-local ``perf_counter`` readings.  Slotted: spans are built on
    the request path, where construction cost is tracer self-time.
    """

    name: str
    span_id: int
    parent_id: int | None
    virtual_start: float
    virtual_end: float
    wall_start: float = 0.0
    wall_end: float = 0.0

    @property
    def virtual_duration(self) -> float:
        """Event-time seconds this span covers (often 0)."""
        return max(0.0, self.virtual_end - self.virtual_start)

    @property
    def wall_duration(self) -> float:
        """Wall-clock seconds this span took."""
        return max(0.0, self.wall_end - self.wall_start)


@dataclass
class SpanTree:
    """One completed trace: a root span plus its descendants.

    ``spans`` is in creation order (``spans[0]`` is the root), which is
    also a valid topological order — parents precede children.
    ``categories`` is filled by the tracer with the tags the trace was
    retained under.
    """

    trace_id: str
    lane: int
    seq: int
    spans: list[Span] = field(default_factory=list)
    categories: tuple[str, ...] = ()

    @property
    def root(self) -> Span:
        """The trace's root span."""
        return self.spans[0]

    @property
    def order_key(self) -> tuple[int, int]:
        """Deterministic merge order: (lane, per-lane sequence)."""
        return (self.lane, self.seq)


class _NullSpan:
    """No-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context manager closing one open span on a tracer."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "SpanTracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close_span(self._span)


class SpanTracer:
    """Builds one lane's span trees and keeps a bounded sample of them.

    The tracer keeps a stack of open spans; :meth:`begin` opens a root,
    :meth:`span` nests under the innermost open span, :meth:`end`
    completes the trace and decides whether to keep it.  With a
    ``budget`` of N it keeps the first N unflagged traces (``head``),
    the first N ``error`` and first 2N ``robot`` traces, every
    ``finish`` trace, and the N slowest by root wall duration
    (``slow``: a min-heap that may evict an earlier keep).  All but
    ``slow`` admit in end order, a pure function of the lane's stream.

    Trace ids are ``"{lane}:{seq}"`` with ``seq`` counting begun traces
    per lane — deterministic, because each lane consumes its events in
    admission order under every executor.  Pickles with no active
    trace (workers ship to process children before their first event).
    """

    def __init__(
        self,
        lane: int,
        budget: int,
        wall_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if budget < 0:
            raise ValueError("span budget must be non-negative")
        self.lane = lane
        self.budget = budget
        self._wall_clock = wall_clock
        self._seq = 0
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        #: Traces each category may still keep (``finish``: all).
        self._room = {
            "head": budget, "robot": 2 * budget, "error": budget,
            "finish": math.inf,
        }
        #: Traces kept under >= 1 deterministic category.
        self._kept: list[SpanTree] = []
        #: (wall_duration, -seq, tree) min-heap of slow keeps.
        self._slow: list[tuple[float, int, SpanTree]] = []

    @property
    def active(self) -> bool:
        """Whether a trace is currently open."""
        return bool(self._stack)

    # -- building one trace -------------------------------------------------

    def begin(
        self,
        name: str,
        virtual_time: float,
        wall_start: float | None = None,
    ) -> Span:
        """Open a root span; ``wall_start`` may back-date it (queue wait)."""
        if self._stack:
            raise RuntimeError(
                f"begin({name!r}) with trace {self.lane}:{self._seq - 1} "
                "still open"
            )
        root = Span(
            name=name,
            span_id=0,
            parent_id=None,
            virtual_start=virtual_time,
            virtual_end=virtual_time,
            wall_start=(
                self._wall_clock() if wall_start is None else wall_start
            ),
        )
        self._spans = [root]
        self._stack = [root]
        self._seq += 1
        return root

    def span(
        self,
        name: str,
        virtual_time: float,
        virtual_end: float | None = None,
    ) -> _SpanHandle | _NullSpan:
        """Open a child span of the innermost open span (no-op if idle)."""
        if not self._stack:
            return _NULL_SPAN
        parent = self._stack[-1]
        child = Span(
            name=name,
            span_id=len(self._spans),
            parent_id=parent.span_id,
            virtual_start=virtual_time,
            virtual_end=(
                virtual_time if virtual_end is None else virtual_end
            ),
            wall_start=self._wall_clock(),
        )
        self._spans.append(child)
        self._stack.append(child)
        return _SpanHandle(self, child)

    def record(
        self,
        name: str,
        virtual_start: float,
        virtual_end: float,
        wall_duration: float = 0.0,
        wall_end: float | None = None,
    ) -> None:
        """Add an already-measured child span (queue waits, say).

        Passing ``wall_end`` (a reading the caller already took) skips
        the clock read — one less gap of unattributed root self-time.
        """
        if not self._stack:
            return
        parent = self._stack[-1]
        wall_now = self._wall_clock() if wall_end is None else wall_end
        self._spans.append(
            Span(
                name=name,
                span_id=len(self._spans),
                parent_id=parent.span_id,
                virtual_start=virtual_start,
                virtual_end=virtual_end,
                wall_start=wall_now - wall_duration,
                wall_end=wall_now,
            )
        )

    def _close_span(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )
        self._stack.pop()
        span.wall_end = self._wall_clock()

    def end(
        self,
        flags: Sequence[str] = (),
        virtual_end: float | None = None,
    ) -> SpanTree | None:
        """Complete the open trace and decide whether to keep it.

        ``flags`` name the categories the trace qualifies for beyond
        the implicit ``head``/``slow`` (``robot``, ``error``,
        ``finish``).
        """
        # Stamp the wall end before any bookkeeping: everything below
        # is post-measurement and costs no attributed time.
        wall_end = self._wall_clock()
        if not self._stack:
            return None
        if len(self._stack) != 1:
            raise RuntimeError(
                "end() with child spans still open: "
                + " > ".join(s.name for s in self._stack)
            )
        root = self._stack.pop()
        root.wall_end = wall_end
        if virtual_end is not None:
            root.virtual_end = virtual_end
        # The root covers its children in virtual time: a request's
        # queue wait ends at the lane clock, past the event stamp.
        for span in self._spans:
            if span.virtual_end > root.virtual_end:
                root.virtual_end = span.virtual_end
        seq = self._seq - 1
        tree = SpanTree(
            trace_id=f"{self.lane}:{seq}",
            lane=self.lane,
            seq=seq,
            spans=self._spans,
        )
        self._spans = []
        categories = []
        room = self._room
        for category in flags or ("head",):
            if room[category] > 0:
                room[category] -= 1
                categories.append(category)
        if categories:
            tree.categories = tuple(sorted(categories))
            self._kept.append(tree)
        if self.budget:
            entry = (root.wall_duration, -seq, tree)
            if len(self._slow) < self.budget:
                heapq.heappush(self._slow, entry)
            elif entry[0] > self._slow[0][0]:
                heapq.heapreplace(self._slow, entry)
        return tree

    def traces(self) -> list[SpanTree]:
        """Retained traces with final category tags, in (lane, seq) order."""
        slow_ids = {id(tree) for _, _, tree in self._slow}
        collected = {id(tree): tree for tree in self._kept}
        for _, _, tree in self._slow:
            collected.setdefault(id(tree), tree)
        for tree in collected.values():
            tags = set(tree.categories)
            tags.discard("slow")
            if id(tree) in slow_ids:
                tags.add("slow")
            tree.categories = tuple(sorted(tags))
        return sorted(collected.values(), key=lambda t: t.order_key)

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        if self._stack:
            raise RuntimeError("cannot pickle a tracer mid-trace")
        return self.__dict__.copy()


# -- Chrome trace-event export ----------------------------------------------


def _virtual_micros(seconds: float) -> float:
    """Event-time seconds -> integer-friendly microseconds.

    Rounded to a tenth of a microsecond so the value is a stable
    decimal: byte-identity of the virtual export must not hinge on
    float repr noise from the ``* 1e6`` scaling.
    """
    return round(seconds * 1e6, 1)


def to_trace_events(
    traces: Sequence[SpanTree], clock: str = "wall"
) -> str:
    """Render retained traces as canonical Chrome trace-event JSON.

    ``clock="wall"`` exports every retained trace with lane-local wall
    timings (normalized so each lane starts at 0) — the view Perfetto
    and ``repro profile`` read.  ``clock="virtual"`` exports only
    deterministically-retained traces with event-time boundaries and
    **no wall data at all**: two runs that admitted the same stream
    produce byte-identical documents, whatever executor ran the lanes.
    """
    if clock not in ("wall", "virtual"):
        raise ValueError(f"clock must be wall or virtual, got {clock!r}")
    # (tree, the categories it is exported under), in (lane, seq) order.
    chosen: list[tuple[SpanTree, tuple[str, ...]]] = []
    for tree in sorted(traces, key=lambda t: t.order_key):
        if clock == "wall":
            chosen.append((tree, tree.categories))
            continue
        categories = tuple(
            c for c in tree.categories if c in DETERMINISTIC_CATEGORIES
        )
        if categories:
            chosen.append((tree, categories))

    # Per-lane origin: the earliest wall reading in the lane — spans,
    # not just roots, because recorded children (queue waits) may be
    # back-dated past their root's start.
    wall_origin: dict[int, float] = {}
    if clock == "wall":
        for tree, _ in chosen:
            for span in tree.spans:
                origin = wall_origin.get(tree.lane)
                if origin is None or span.wall_start < origin:
                    wall_origin[tree.lane] = span.wall_start

    events: list[dict] = []
    lanes = sorted({tree.lane for tree, _ in chosen})
    for lane in lanes:
        events.append(
            {
                "args": {"name": f"lane {lane}"},
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": lane,
            }
        )
    for tree, categories in chosen:
        category = ",".join(categories) or "trace"
        for span in tree.spans:
            if clock == "virtual":
                ts = _virtual_micros(span.virtual_start)
                dur = _virtual_micros(span.virtual_duration)
            else:
                origin = wall_origin[tree.lane]
                ts = (span.wall_start - origin) * 1e6
                dur = span.wall_duration * 1e6
            args: dict = {
                "trace": tree.trace_id,
                "span": span.span_id,
                "virtual_ts": _virtual_micros(span.virtual_start),
            }
            if span.parent_id is not None:
                args["parent"] = span.parent_id
            events.append(
                {
                    "args": args,
                    "cat": category,
                    "dur": dur,
                    "name": span.name,
                    "ph": "X",
                    "pid": 1,
                    "tid": tree.lane,
                    "ts": ts,
                }
            )
    document = {
        "displayTimeUnit": "ms",
        "otherData": {"clock": clock, "schema": TRACE_EVENT_SCHEMA},
        "traceEvents": events,
    }
    return json.dumps(
        document, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def trace_trees_from_json(text: str) -> tuple[list[SpanTree], str]:
    """Parse a :func:`to_trace_events` document back into span trees.

    Returns ``(trees, clock)``; span wall/virtual fields are filled
    from whichever clock the document was exported with (``ts``/``dur``
    land in that domain; the other stays zero except for the virtual
    stamp every event carries in ``args``).
    """
    document = json.loads(text)
    other = document.get("otherData", {})
    if other.get("schema") != TRACE_EVENT_SCHEMA:
        raise ValueError(
            "not a repro span trace (missing/unknown otherData.schema)"
        )
    clock = other.get("clock", "wall")
    trees: dict[str, SpanTree] = {}
    for event in document.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = event["args"]
        trace_id = args["trace"]
        tree = trees.get(trace_id)
        if tree is None:
            lane_text, _, seq_text = trace_id.partition(":")
            tree = trees[trace_id] = SpanTree(
                trace_id=trace_id,
                lane=int(lane_text),
                seq=int(seq_text),
                categories=tuple(
                    c for c in event.get("cat", "").split(",") if c
                ),
            )
        start = event["ts"] / 1e6
        end = start + event["dur"] / 1e6
        virtual = args.get("virtual_ts", 0.0) / 1e6
        span = Span(
            name=event["name"],
            span_id=args["span"],
            parent_id=args.get("parent"),
            virtual_start=virtual,
            virtual_end=virtual,
            wall_start=0.0,
            wall_end=0.0,
        )
        if clock == "virtual":
            span.virtual_start, span.virtual_end = start, end
        else:
            span.wall_start, span.wall_end = start, end
        tree.spans.append(span)
    for tree in trees.values():
        tree.spans.sort(key=lambda s: s.span_id)
    return sorted(trees.values(), key=lambda t: t.order_key), clock


# -- critical-path profiling ------------------------------------------------


@dataclass
class StageStats:
    """Aggregate timing of one named stage across retained traces."""

    name: str
    count: int = 0
    total: float = 0.0
    self_total: float = 0.0
    durations: list[float] = field(default_factory=list)

    def quantile(self, q: float) -> float:
        """Exact quantile over the per-span durations."""
        if not self.durations:
            return 0.0
        ordered = sorted(self.durations)
        index = min(
            len(ordered) - 1, max(0, round(q * (len(ordered) - 1)))
        )
        return ordered[index]


@dataclass
class ProfileReport:
    """Per-stage critical-path attribution over a set of traces."""

    clock: str
    stages: list[StageStats]
    traces: int
    root_total: float
    root_self_total: float

    @property
    def attributed_fraction(self) -> float:
        """Share of end-to-end root time covered by named child stages."""
        if self.root_total <= 0.0:
            return 1.0
        return 1.0 - self.root_self_total / self.root_total

    def render(self, limit: int | None = None) -> str:
        """The ``repro profile`` table."""
        unit = "s" if self.clock == "wall" else "vs"
        lines = [
            f"{self.traces} traces, {self.clock} clock; "
            f"end-to-end time {self.root_total:.6g}{unit}",
            f"{'stage':<22}{'count':>8}{'total':>12}{'self':>12}"
            f"{'p50':>10}{'p95':>10}{'p99':>10}{'share':>8}",
        ]
        shown = self.stages if limit is None else self.stages[:limit]
        for stage in shown:
            share = (
                stage.self_total / self.root_total
                if self.root_total > 0
                else 0.0
            )
            lines.append(
                f"{stage.name:<22}{stage.count:>8}"
                f"{stage.total:>12.6g}{stage.self_total:>12.6g}"
                f"{stage.quantile(0.5):>10.3g}"
                f"{stage.quantile(0.95):>10.3g}"
                f"{stage.quantile(0.99):>10.3g}"
                f"{share:>8.1%}"
            )
        lines.append(
            f"attributed to named stages: {self.attributed_fraction:.1%} "
            f"of end-to-end time ({1.0 - self.attributed_fraction:.1%} "
            "unattributed root self-time)"
        )
        return "\n".join(lines)


def profile_stages(
    traces: Sequence[SpanTree], clock: str = "wall"
) -> ProfileReport:
    """Reduce span trees to per-stage totals, self times and quantiles.

    *Self* time is a span's duration minus its direct children's — the
    critical-path attribution.  Root spans contribute their own self
    time to the ``root_self_total`` (the unattributed remainder), and
    the report's ``attributed_fraction`` is the share of end-to-end
    time named child stages account for.
    """
    if clock not in ("wall", "virtual"):
        raise ValueError(f"clock must be wall or virtual, got {clock!r}")

    def duration(span: Span) -> float:
        return (
            span.wall_duration if clock == "wall" else span.virtual_duration
        )

    stages: dict[str, StageStats] = {}
    root_total = 0.0
    root_self_total = 0.0
    for tree in traces:
        child_sums: dict[int, float] = {}
        for span in tree.spans:
            if span.parent_id is not None:
                child_sums[span.parent_id] = (
                    child_sums.get(span.parent_id, 0.0) + duration(span)
                )
        for span in tree.spans:
            total = duration(span)
            self_time = max(0.0, total - child_sums.get(span.span_id, 0.0))
            stage = stages.get(span.name)
            if stage is None:
                stage = stages[span.name] = StageStats(name=span.name)
            stage.count += 1
            stage.total += total
            stage.self_total += self_time
            stage.durations.append(total)
            if span.parent_id is None:
                root_total += total
                root_self_total += self_time
    ordered = sorted(
        stages.values(), key=lambda s: (-s.self_total, s.name)
    )
    return ProfileReport(
        clock=clock,
        stages=ordered,
        traces=len(traces),
        root_total=root_total,
        root_self_total=root_self_total,
    )
