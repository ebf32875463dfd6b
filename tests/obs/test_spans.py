"""Causal tracing: tracer mechanics, retention, export, profiling.

Wall clocks are injected everywhere, so every assertion below is exact
— no sleeps, no tolerance bands.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs.spans import (
    TRACE_EVENT_SCHEMA,
    ProfileReport,
    Span,
    SpanTracer,
    SpanTree,
    profile_stages,
    to_trace_events,
    trace_trees_from_json,
)


class FakeClock:
    """A wall clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, seconds: float) -> float:
        self.now += seconds
        return self.now

    def __call__(self) -> float:
        return self.now


def make_tracer(lane: int = 0, budget: int = 16):
    clock = FakeClock()
    tracer = SpanTracer(lane, budget, wall_clock=clock)
    return tracer, clock


class TestSpanTracer:
    def test_builds_one_tree_with_creation_order_ids(self):
        tracer, clock = make_tracer()
        tracer.begin("request", 100.0)
        clock.advance(0.010)
        with tracer.span("handle", 100.0):
            clock.advance(0.005)
            with tracer.span("detection", 100.0):
                clock.advance(0.002)
        tree = tracer.end()

        assert tree.trace_id == "0:0"
        assert [s.span_id for s in tree.spans] == [0, 1, 2]
        assert [s.parent_id for s in tree.spans] == [None, 0, 1]
        assert [s.name for s in tree.spans] == [
            "request", "handle", "detection",
        ]
        root, handle, detection = tree.spans
        assert root.wall_duration == pytest.approx(0.017)
        assert handle.wall_duration == pytest.approx(0.007)
        assert detection.wall_duration == pytest.approx(0.002)

    def test_record_backdates_and_root_covers_children_virtually(self):
        tracer, clock = make_tracer()
        clock.advance(1.0)
        tracer.begin("request", 50.0, wall_start=0.25)
        tracer.record(
            "queue_wait", 50.0, 53.0, wall_duration=0.75, wall_end=1.0
        )
        tree = tracer.end()

        wait = tree.spans[1]
        assert wait.wall_start == pytest.approx(0.25)
        assert wait.wall_duration == pytest.approx(0.75)
        assert wait.virtual_duration == pytest.approx(3.0)
        # The root's virtual end is extended over the recorded child.
        assert tree.root.virtual_end == pytest.approx(53.0)

    def test_trace_ids_count_per_lane(self):
        tracer, _ = make_tracer(lane=3)
        for seq in range(3):
            tracer.begin("request", float(seq))
            tree = tracer.end()
            assert tree.trace_id == f"3:{seq}"

    def test_span_without_open_trace_is_noop(self):
        tracer, _ = make_tracer()
        with tracer.span("orphan", 0.0):
            pass
        tracer.record("orphan", 0.0, 1.0)
        assert tracer.end() is None
        assert tracer.traces() == []

    def test_misuse_raises(self):
        tracer, _ = make_tracer()
        tracer.begin("a", 0.0)
        with pytest.raises(RuntimeError, match="still open"):
            tracer.begin("b", 0.0)
        handle = tracer.span("child", 0.0)
        with handle:
            with pytest.raises(RuntimeError, match="child spans"):
                tracer.end()
        tracer.end()

    def test_pickles_between_traces_but_not_mid_trace(self):
        tracer, _ = make_tracer()
        tracer.begin("request", 0.0)
        with pytest.raises(RuntimeError, match="mid-trace"):
            pickle.dumps(tracer)
        tracer.end()
        clone = pickle.loads(pickle.dumps(tracer))
        clone.begin("request", 1.0)
        assert clone.end().trace_id == "0:1"

    def test_trees_pickle_roundtrip(self):
        tracer, clock = make_tracer()
        tracer.begin("request", 9.0)
        clock.advance(0.25)
        with tracer.span("handle", 9.0):
            clock.advance(0.5)
        tracer.end(flags=("robot",))
        traces = tracer.traces()
        assert pickle.loads(pickle.dumps(traces)) == traces


def offer(tracer: SpanTracer, clock: FakeClock, duration=0.0, flags=()):
    """End one root-only trace whose root took ``duration`` wall seconds."""
    tracer.begin("request", 0.0)
    clock.advance(duration)
    return tracer.end(flags=flags)


class TestTailSampler:
    """Retention decided at trace end, under one per-lane budget."""

    def test_budgets_bound_every_category(self):
        tracer, clock = make_tracer(budget=1)
        for flags in [()] * 6 + [("robot",)] * 6 + [("error",)] * 6:
            offer(tracer, clock, flags=flags)
        kept = tracer.traces()
        by_cat: dict[str, int] = {}
        for tree in kept:
            for cat in tree.categories:
                by_cat[cat] = by_cat.get(cat, 0) + 1
        # N per class, 2N for robots; with equal durations the first
        # trace also holds the one slow place.
        assert by_cat == {"head": 1, "robot": 2, "error": 1, "slow": 1}
        # First-ended wins within each deterministic category.
        assert [t.seq for t in kept] == [0, 6, 7, 12]

    def test_finish_always_retained(self):
        tracer, clock = make_tracer(budget=0)
        for _ in range(5):
            offer(tracer, clock, flags=("finish",))
        assert [t.categories for t in tracer.traces()] == [
            ("finish",)
        ] * 5

    def test_slow_keeps_top_k_by_root_wall_duration(self):
        tracer, clock = make_tracer(budget=2)
        for duration in [0.030, 0.010, 0.050, 0.020, 0.040]:
            offer(tracer, clock, duration=duration)
        kept = tracer.traces()
        assert [t.seq for t in kept] == [0, 1, 2, 4]
        # Trace 0 ranked slow until 2 and 4 evicted it; head keeps it.
        assert [t.categories for t in kept] == [
            ("head",), ("head",), ("slow",), ("slow",),
        ]

    def test_dual_retention_deduplicates(self):
        tracer, clock = make_tracer(budget=1)
        offer(tracer, clock, duration=1.0, flags=("robot",))
        kept = tracer.traces()
        assert len(kept) == 1
        assert kept[0].categories == ("robot", "slow")

    def test_bounded_under_load(self):
        tracer, clock = make_tracer(budget=4)
        for seq in range(1000):
            flags = ("robot",) if seq % 3 == 0 else ()
            offer(tracer, clock, duration=seq * 1e-6, flags=flags)
        # head + slow + robot budgets, minus any dual retention.
        assert len(tracer.traces()) <= 4 + 4 + 8

    def test_negative_budget_is_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpanTracer(0, -1)


def _sample_traces() -> list[SpanTree]:
    """Two lanes, three traces, virtual and wall data, mixed flags."""
    traces: list[SpanTree] = []
    plans = {0: [(), ("robot",)], 1: [()]}
    for lane, flag_runs in plans.items():
        clock = FakeClock()
        clock.advance(lane + 1.0)
        tracer = SpanTracer(lane, 16, wall_clock=clock)
        for seq, flags in enumerate(flag_runs):
            ts = 10.0 * (seq + 1)
            tracer.begin("request", ts)
            tracer.record("queue_wait", ts, ts + 0.5, wall_duration=0.125)
            clock.advance(0.010)
            with tracer.span("handle", ts):
                clock.advance(0.040)
                with tracer.span("detection", ts):
                    clock.advance(0.030)
            tracer.end(flags=flags)
        traces.extend(tracer.traces())
    return traces


class TestTraceEventExport:
    def test_schema_and_shape(self):
        document = json.loads(to_trace_events(_sample_traces()))
        assert document["otherData"]["schema"] == TRACE_EVENT_SCHEMA
        assert document["otherData"]["clock"] == "wall"
        events = document["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert [m["args"]["name"] for m in metas] == ["lane 0", "lane 1"]
        for event in events:
            assert set(event) >= {"name", "ph", "pid", "tid"}
            if event["ph"] == "X":
                assert event["dur"] >= 0
                assert "trace" in event["args"]
                assert "span" in event["args"]
                assert "virtual_ts" in event["args"]

    def test_canonical_bytes(self):
        traces = _sample_traces()
        text = to_trace_events(traces, clock="virtual")
        assert text == to_trace_events(_sample_traces(), clock="virtual")
        assert "\n" not in text
        parsed = json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )
        assert parsed == text

    def test_wall_normalizes_per_lane_origin(self):
        document = json.loads(to_trace_events(_sample_traces()))
        for lane in (0, 1):
            starts = [
                e["ts"]
                for e in document["traceEvents"]
                if e["ph"] == "X" and e["tid"] == lane
            ]
            assert min(starts) == 0.0

    def test_virtual_export_has_no_wall_data(self):
        traces = _sample_traces()
        # Tag one tree with a wall-only category: it must be dropped.
        traces[-1].categories = ("slow",)
        traces[0].categories = ("head",)
        traces[1].categories = ("robot",)
        document = json.loads(to_trace_events(traces, clock="virtual"))
        xs = [e for e in document["traceEvents"] if e["ph"] == "X"]
        kept_traces = {e["args"]["trace"] for e in xs}
        assert kept_traces == {"0:0", "0:1"}
        waits = [e for e in xs if e["name"] == "queue_wait"]
        assert all(e["dur"] == pytest.approx(5e5) for e in waits)

    def test_roundtrip_preserves_tree_structure(self):
        traces = _sample_traces()
        trees, clock = trace_trees_from_json(to_trace_events(traces))
        assert clock == "wall"
        assert [t.trace_id for t in trees] == [
            t.trace_id for t in traces
        ]
        for parsed, original in zip(trees, traces):
            assert [
                (s.name, s.span_id, s.parent_id) for s in parsed.spans
            ] == [
                (s.name, s.span_id, s.parent_id) for s in original.spans
            ]
            for a, b in zip(parsed.spans, original.spans):
                assert a.wall_duration == pytest.approx(
                    b.wall_duration, abs=1e-9
                )

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError, match="schema"):
            trace_trees_from_json(json.dumps({"traceEvents": []}))


def _synthetic_profile_tree() -> SpanTree:
    spans = [
        Span("request", 0, None, 0.0, 0.0, wall_start=0.0, wall_end=1.0),
        Span("handle", 1, 0, 0.0, 0.0, wall_start=0.02, wall_end=0.98),
        Span("detection", 2, 1, 0.0, 0.0, wall_start=0.10, wall_end=0.70),
        Span("forward", 3, 1, 0.0, 0.0, wall_start=0.70, wall_end=0.90),
    ]
    return SpanTree(trace_id="0:0", lane=0, seq=0, spans=spans)


class TestProfile:
    def test_self_time_subtracts_direct_children(self):
        report = profile_stages([_synthetic_profile_tree()])
        stages = {s.name: s for s in report.stages}
        assert stages["request"].total == pytest.approx(1.0)
        assert stages["request"].self_total == pytest.approx(0.04)
        assert stages["handle"].self_total == pytest.approx(0.16)
        assert stages["detection"].self_total == pytest.approx(0.60)
        assert report.root_total == pytest.approx(1.0)
        assert report.attributed_fraction == pytest.approx(0.96)
        # Sorted by self time, descending.
        assert [s.name for s in report.stages] == [
            "detection", "forward", "handle", "request",
        ]

    def test_quantiles_nearest_rank(self):
        report = profile_stages(
            [_synthetic_profile_tree() for _ in range(4)]
        )
        stage = {s.name: s for s in report.stages}["detection"]
        assert stage.count == 4
        assert stage.quantile(0.5) == pytest.approx(0.6)
        assert stage.quantile(0.95) == pytest.approx(0.6)

    def test_render_lists_every_quantile_column(self):
        text = profile_stages([_synthetic_profile_tree()]).render()
        header = text.splitlines()[1]
        for column in ("stage", "count", "total", "self", "p50", "p95",
                       "p99", "share"):
            assert column in header
        assert "attributed to named stages: 96.0%" in text

    def test_render_limit_truncates_stages(self):
        text = profile_stages([_synthetic_profile_tree()]).render(limit=1)
        assert "detection" in text
        assert "forward" not in text

    def test_empty_report(self):
        report = profile_stages([])
        assert isinstance(report, ProfileReport)
        assert report.attributed_fraction == 1.0
        assert "0 traces" in report.render()

    def test_rejects_unknown_clock(self):
        with pytest.raises(ValueError, match="clock"):
            profile_stages([], clock="cpu")
