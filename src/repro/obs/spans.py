"""Causal per-session tracing: span trees, tail sampling, profiling.

Where :mod:`repro.obs.registry` answers "how much / how often", this
module answers "where did *this* request's time go".  Every admitted
event can carry a trace: a tree of named spans covering the full path —
admission, lane-queue wait, node-shard dispatch, detection update,
micro-batch flush, vectorized scoring, verdict/CAPTCHA policy — in
**both clock domains**:

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

Recording every trace at replay scale would swamp memory, so retention
is **tail-based**: a :class:`TailSampler` keeps exemplar traces per
category under fixed per-lane budgets.  Categories split into the same
two domains as metrics:

* deterministic — ``head`` (the first N traces a lane admits),
  ``robot`` (the request ended under a robot verdict or policy block),
  ``error`` (5xx response), ``finish`` (the lane's end-of-run flush /
  finalize trace).  Which traces these budgets retain is a pure
  function of the admitted stream.
* wall — ``slow`` (the top K by wall duration) and ``shed`` (admission
  refused the event).  Inherently timing-dependent, so they are
  excluded from the deterministic export view.

Everything here is picklable: tracers ride lane workers into process
children, and retained trees ride :class:`~repro.ingress.workers.LaneResult`
back, merging in lane order like metric snapshots do.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

__all__ = [
    "DETERMINISTIC_CATEGORIES",
    "NULL_SPAN",
    "WALL_CATEGORIES",
    "ProfileReport",
    "Span",
    "SpanConfig",
    "SpanTracer",
    "SpanTree",
    "StageStats",
    "TailSampler",
    "merge_traces",
    "profile_stages",
    "to_trace_events",
    "trace_trees_from_json",
]

#: Retention categories that are pure functions of the admitted stream.
DETERMINISTIC_CATEGORIES: tuple[str, ...] = (
    "head", "robot", "error", "finish",
)

#: Retention categories that depend on wall-clock behaviour.
WALL_CATEGORIES: tuple[str, ...] = ("slow", "shed")

TRACE_EVENT_SCHEMA = "repro.spans/v1"


@dataclass(frozen=True)
class SpanConfig:
    """Per-lane tail-sampling budgets (traces retained per category).

    ``head`` keeps the first N traces the lane sees (deterministic
    exemplars of steady-state behaviour); ``robot``/``error`` keep the
    first N traces flagged by verdict/response; ``slow`` keeps the top
    K by root wall duration; ``shed`` keeps the first N admission
    refusals.  ``finish`` traces (one per lane) are always retained.
    A budget of 0 disables that category.
    """

    head: int = 16
    slow: int = 16
    robot: int = 32
    error: int = 16
    shed: int = 16

    def __post_init__(self) -> None:
        for name in ("head", "slow", "robot", "error", "shed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} budget must be non-negative")

    @classmethod
    def uniform(cls, budget: int) -> "SpanConfig":
        """One budget for every category (the ``--trace-sample`` knob)."""
        return cls(
            head=budget, slow=budget, robot=2 * budget,
            error=budget, shed=budget,
        )


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
    ``categories`` is filled by the sampler with the tags the trace was
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

    def deterministic_categories(self) -> tuple[str, ...]:
        """The retention tags that are pure functions of the stream."""
        return tuple(
            c for c in self.categories if c in DETERMINISTIC_CATEGORIES
        )


class TailSampler:
    """Bounded tail-based retention of completed traces.

    Every completed trace is *offered* with a set of flags; the sampler
    keeps it when any category it qualifies for still has budget.
    Deterministic categories admit in offer order (pure function of the
    lane's event stream); ``slow`` keeps the top-K by root wall
    duration via a min-heap and may evict earlier keeps.
    """

    def __init__(self, config: SpanConfig | None = None) -> None:
        self.config = config or SpanConfig()
        self._offered = 0
        self._counts = {"head": 0, "robot": 0, "error": 0, "shed": 0}
        #: Traces kept under >= 1 deterministic (or shed) category.
        self._kept: list[SpanTree] = []
        #: (wall_duration, -offer_index, tree) min-heap of slow keeps.
        self._slow: list[tuple[float, int, SpanTree]] = []
        self._slow_seq = 0

    @property
    def offered(self) -> int:
        """How many traces were offered (kept or not)."""
        return self._offered

    def offer(self, tree: SpanTree, flags: Iterable[str] = ()) -> bool:
        """Consider one completed trace for retention.

        ``flags`` name the categories the trace *qualifies* for beyond
        the implicit ``head``/``slow``; returns True when retained.
        """
        self._offered = self._offered + 1
        flagset = set(flags)
        cfg = self.config
        categories: list[str] = []
        if "finish" in flagset:
            categories.append("finish")
        for category in ("robot", "error", "shed"):
            if (
                category in flagset
                and self._counts[category] < getattr(cfg, category, 0)
            ):
                self._counts[category] += 1
                categories.append(category)
        if not flagset and self._counts["head"] < cfg.head:
            self._counts["head"] += 1
            categories.append("head")
        kept = False
        if categories:
            tree.categories = tuple(sorted(categories))
            self._kept.append(tree)
            kept = True
        # Slow ranking applies to every non-shed trace with a measured
        # root; a tree can be retained under both a deterministic tag
        # and ``slow`` (deduplicated at collection).
        if cfg.slow and "shed" not in flagset:
            duration = tree.root.wall_duration
            self._slow_seq += 1
            entry = (duration, -self._slow_seq, tree)
            if len(self._slow) < cfg.slow:
                heapq.heappush(self._slow, entry)
                kept = True
            elif duration > self._slow[0][0]:
                heapq.heapreplace(self._slow, entry)
                kept = True
        return kept

    def traces(self) -> list[SpanTree]:
        """Retained traces with final category tags, in (lane, seq) order."""
        slow_ids = {id(tree) for _, _, tree in self._slow}
        collected: dict[int, SpanTree] = {id(t): t for t in self._kept}
        for _, _, tree in self._slow:
            collected.setdefault(id(tree), tree)
        for tree in collected.values():
            tags = set(tree.categories)
            tags.discard("slow")
            if id(tree) in slow_ids:
                tags.add("slow")
            tree.categories = tuple(sorted(tags))
        return sorted(collected.values(), key=lambda t: t.order_key)

    def __len__(self) -> int:
        slow_only = sum(
            1
            for _, _, tree in self._slow
            if not any(t is tree for t in self._kept)
        )
        return len(self._kept) + slow_only


class _NullSpan:
    """No-op context manager: the disabled-tracing fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: Shared no-op span for callers guarding on "is tracing attached?".
NULL_SPAN = _NULL_SPAN


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
    """Builds one lane's span trees; hands completed traces to a sampler.

    The tracer keeps a stack of open spans; :meth:`begin` opens a root,
    :meth:`span` nests under the innermost open span, :meth:`end`
    completes the trace and offers it to the sampler together with any
    flags accumulated via :meth:`flag` (how deep pipeline stages — the
    detection verdict, say — tag the trace without threading context
    objects through every call).

    Trace ids are ``"{lane}:{seq}"`` with ``seq`` counting begun traces
    per lane — deterministic, because each lane consumes its events in
    admission order under every executor.  Pickles with no active
    trace (workers ship to process children before their first event).
    """

    def __init__(
        self,
        lane: int = 0,
        sampler: TailSampler | None = None,
        wall_clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.lane = lane
        # Explicit None check: an empty sampler is falsy (len() == 0)
        # and must NOT be swapped for a default-config one.
        self.sampler = TailSampler() if sampler is None else sampler
        self._wall_clock = wall_clock
        self._seq = 0
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._flags: set[str] = set()

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
        self._flags.clear()
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

    def flag(self, category: str) -> None:
        """Tag the open trace for a retention category (robot, error)."""
        if self._stack:
            self._flags.add(category)

    def _close_span(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )
        self._stack.pop()
        span.wall_end = self._wall_clock()

    def end(
        self,
        flags: Iterable[str] = (),
        virtual_end: float | None = None,
    ) -> SpanTree | None:
        """Complete the open trace and offer it to the sampler."""
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
        all_flags = self._flags | set(flags)
        self._flags.clear()
        self.sampler.offer(tree, all_flags)
        return tree

    def traces(self) -> list[SpanTree]:
        """The sampler's retained traces (finalized tags, sorted)."""
        return self.sampler.traces()

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        if self._stack:
            raise RuntimeError("cannot pickle a tracer mid-trace")
        return self.__dict__.copy()


def merge_traces(
    groups: Iterable[Sequence[SpanTree]],
) -> list[SpanTree]:
    """Merge per-lane retained traces into one deterministic list."""
    merged = [tree for group in groups for tree in group]
    merged.sort(key=lambda t: t.order_key)
    return merged


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
    if clock == "virtual":
        chosen = [
            replace_categories(tree, tree.deterministic_categories())
            for tree in traces
            if tree.deterministic_categories()
        ]
    else:
        chosen = list(traces)
    chosen.sort(key=lambda t: t.order_key)

    # Per-lane origin: the earliest wall reading in the lane — spans,
    # not just roots, because recorded children (queue waits) may be
    # back-dated past their root's start.
    wall_origin: dict[int, float] = {}
    if clock == "wall":
        for tree in chosen:
            for span in tree.spans:
                origin = wall_origin.get(tree.lane)
                if origin is None or span.wall_start < origin:
                    wall_origin[tree.lane] = span.wall_start

    events: list[dict] = []
    lanes = sorted({tree.lane for tree in chosen})
    for lane in lanes:
        events.append(
            {
                "args": {"name": _lane_label(lane)},
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": lane,
            }
        )
    for tree in chosen:
        category = ",".join(tree.categories) or "trace"
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


def replace_categories(
    tree: SpanTree, categories: tuple[str, ...]
) -> SpanTree:
    """A shallow copy of ``tree`` carrying only ``categories``."""
    return SpanTree(
        trace_id=tree.trace_id,
        lane=tree.lane,
        seq=tree.seq,
        spans=tree.spans,
        categories=categories,
    )


def _lane_label(lane: int) -> str:
    return "admission" if lane < 0 else f"lane {lane}"


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
