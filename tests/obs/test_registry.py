"""Unit tests for the repro.obs instrument and snapshot model."""

from __future__ import annotations

import pickle

import pytest

from repro.obs.registry import (
    EVENT_SECONDS_BUCKETS,
    SIZE_BUCKETS,
    WALL_SECONDS_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)


class TestCounter:
    def test_inc_and_set(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total", {"node": "a"})
        c.inc()
        c.inc(3)
        assert c.point().value == 4.0
        c.set(9)
        assert c.point().value == 9.0

    def test_same_key_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("hits_total", {"node": "a"})
        b = reg.counter("hits_total", {"node": "a"})
        assert a is b
        assert reg.counter("hits_total", {"node": "b"}) is not a

    def test_label_insertion_order_is_canonicalized(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"b": "2", "a": "1"})
        b = reg.counter("x", {"a": "1", "b": "2"})
        assert a is b
        assert a.labels == (("a", "1"), ("b", "2"))

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="not a gauge"):
            reg.gauge("x")


class TestGauge:
    def test_set_and_set_max(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", agg="max")
        g.set(4)
        g.set_max(2)
        assert g.point().value == 4.0
        g.set_max(7)
        assert g.point().value == 7.0

    @pytest.mark.parametrize(
        "agg,expected", [("sum", 9.0), ("max", 6.0), ("min", 3.0)]
    )
    def test_merge_honours_aggregation(self, agg, expected):
        a = MetricsRegistry().gauge("g", agg=agg)
        b = MetricsRegistry().gauge("g", agg=agg)
        a.set(3)
        b.set(6)
        assert a.point().merged(b.point()).value == expected


class TestHistogram:
    def test_bucket_edges_are_upper_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 2.0, 3.0, 100.0):
            h.observe(value)
        point = h.point()
        # counts: <=1, <=2, <=4, +Inf
        assert point.counts == (2, 1, 1, 1)
        assert point.count == 5
        assert point.sum == pytest.approx(106.5)

    def test_merge_adds_bucket_counts(self):
        a = MetricsRegistry().histogram("h", (1.0, 2.0))
        b = MetricsRegistry().histogram("h", (1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        merged = a.point().merged(b.point())
        assert merged.counts == (1, 1, 1)
        assert merged.count == 3
        assert merged.sum == pytest.approx(11.0)

    def test_merge_rejects_mismatched_layouts(self):
        a = MetricsRegistry().histogram("h", (1.0, 2.0))
        b = MetricsRegistry().histogram("h", (1.0, 4.0))
        with pytest.raises(ValueError, match="bucket layouts differ"):
            a.point().merged(b.point())

    def test_registry_rejects_relayout(self):
        reg = MetricsRegistry()
        reg.histogram("h", (1.0, 2.0))
        with pytest.raises(ValueError, match="buckets differ"):
            reg.histogram("h", (1.0, 4.0))

    @pytest.mark.parametrize(
        "buckets",
        [WALL_SECONDS_BUCKETS, EVENT_SECONDS_BUCKETS, SIZE_BUCKETS],
    )
    def test_stock_layouts_strictly_increasing(self, buckets):
        assert list(buckets) == sorted(set(buckets))


class TestSnapshot:
    def test_points_sorted_and_order_independent(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a", {"x": "2"}).inc()
        reg.counter("a", {"x": "1"}).inc()
        snap = reg.snapshot()
        assert [p.key for p in snap.points] == sorted(
            p.key for p in snap.points
        )

    def test_deterministic_drops_wall_points(self):
        reg = MetricsRegistry()
        reg.counter("events_total").inc()
        reg.histogram("lat", (1.0,), wall=True).observe(0.5)
        det = reg.snapshot().deterministic()
        assert [p.name for p in det.points] == ["events_total"]

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        snap = reg.snapshot()
        c.inc(10)
        assert snap.get("x").value == 1.0

    def test_get_series_total(self):
        reg = MetricsRegistry()
        reg.counter("x", {"lane": "0"}).inc(2)
        reg.counter("x", {"lane": "1"}).inc(3)
        snap = reg.snapshot()
        assert snap.get("x", {"lane": "1"}).value == 3.0
        assert snap.get("x", {"lane": "9"}) is None
        assert len(snap.series("x")) == 2
        assert snap.total("x") == 5.0

    def test_merge_snapshots_union_and_reduce(self):
        a = MetricsRegistry()
        a.counter("shared").inc(1)
        a.counter("only_a").inc(5)
        b = MetricsRegistry()
        b.counter("shared").inc(2)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged.get("shared").value == 3.0
        assert merged.get("only_a").value == 5.0

    def test_merge_empty_iterable(self):
        assert merge_snapshots([]) == MetricsSnapshot()


class TestAbsorbAndPickle:
    def test_absorb_accumulates_into_live_instruments(self):
        parent = MetricsRegistry()
        parent.counter("c").inc(1)
        parent.histogram("h", (1.0, 2.0)).observe(0.5)
        child = MetricsRegistry()
        child.counter("c").inc(2)
        child.histogram("h", (1.0, 2.0)).observe(1.5)
        parent.absorb(child.snapshot())
        snap = parent.snapshot()
        assert snap.get("c").value == 3.0
        assert snap.get("h").counts == (1, 1, 0)

    def test_absorb_rejects_layout_mismatch(self):
        parent = MetricsRegistry()
        parent.histogram("h", (1.0,))
        child = MetricsRegistry()
        child.histogram("h", (2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            parent.absorb(child.snapshot())

    def test_registry_pickles_and_drops_listeners(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        reg.add_listener(lambda frame: None)
        assert reg.has_listeners
        clone = pickle.loads(pickle.dumps(reg))
        assert not clone.has_listeners
        assert clone.snapshot() == reg.snapshot()

    def test_pickle_preserves_shared_instruments(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        clone_reg, clone_c = pickle.loads(pickle.dumps((reg, c)))
        clone_c.inc(7)
        assert clone_reg.snapshot().get("c").value == 7.0
