"""The metric model: instruments, the registry, mergeable snapshots.

Design constraints, in priority order:

1. **Deterministic mergeability.**  Per-lane and per-shard registries
   reduce to one deployment-wide view exactly like the result merge
   does: each lane's observations happen in admission order, lane
   snapshots are absorbed in lane-index order, and every combining
   operation (integer adds, float sums over identically-ordered
   sequences, bucket-count adds) is order-stable — so the merged
   deterministic snapshot is byte-identical across executors and queue
   depths whenever the results are.
2. **Picklability.**  Instruments, registries and snapshots cross
   process boundaries: a lane worker's registry rides into the child
   interpreter with its node, and the finished snapshot ships back in
   the ``LaneResult``.  Listeners (live callbacks) are the one thing
   that cannot travel, so they are dropped on pickling — and the
   ingress refuses process lanes while any are attached, the same
   contract traffic taps already follow.
3. **Cheap on the hot path.**  A counter increment is one attribute
   add; a histogram observation is one bisect over a small tuple.
   Instruments are handed out once (get-or-create) and cached by the
   instrumented code, so steady-state cost is independent of registry
   size.

Histograms use **fixed buckets** chosen per quantity (wall seconds,
virtual seconds, sizes) so merging is bucket-count addition — the
Prometheus model — and two registries can only disagree on buckets by
programmer error, which :meth:`Histogram.absorb` turns into a loud one.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping

#: Wall-clock stage timings: microseconds up to a minute.
WALL_SECONDS_BUCKETS: tuple[float, ...] = (
    1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
    1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0,
)

#: Virtual (event-time) delays: sub-second up to a week.
EVENT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.001, 0.01, 0.1, 1.0, 5.0, 15.0, 60.0, 300.0,
    900.0, 3600.0, 4 * 3600.0, 86400.0, 7 * 86400.0,
)

#: Discrete sizes (batch sizes, queue depths): powers-of-two-ish.
SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096, 16384,
)

LabelInput = Mapping[str, str] | None
Labels = tuple[tuple[str, str], ...]


def _labels(labels: LabelInput) -> Labels:
    """Canonical label form: a tuple of (key, value) pairs sorted by key."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (or a value collected at export).

    ``inc`` is the streaming path; ``set`` is for export-time collection
    from an authoritative stats object (idempotent, so flight-recorder
    frames can re-collect as often as they like).
    """

    __slots__ = ("name", "labels", "wall", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Labels, wall: bool) -> None:
        self.name = name
        self.labels = labels
        self.wall = wall
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1)."""
        self.value += amount

    def set(self, value: float) -> None:
        """Overwrite with a collected value (export-time use)."""
        self.value = float(value)

    def point(self) -> "MetricPoint":
        """Snapshot this instrument."""
        return MetricPoint(
            name=self.name, labels=self.labels, kind=self.kind,
            wall=self.wall, value=self.value,
        )


class Gauge:
    """A value that can go up and down; ``agg`` picks the merge rule.

    ``agg="sum"`` (default) adds across lanes — right for live-session
    counts and backlog sizes; ``agg="max"`` keeps the peak — right for
    high-watermarks.
    """

    __slots__ = ("name", "labels", "wall", "agg", "value")
    kind = "gauge"

    def __init__(
        self, name: str, labels: Labels, wall: bool, agg: str = "sum"
    ) -> None:
        if agg not in ("sum", "max", "min"):
            raise ValueError(f"agg must be sum/max/min, got {agg!r}")
        self.name = name
        self.labels = labels
        self.wall = wall
        self.agg = agg
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the current value."""
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the value to ``value`` if larger (watermark style)."""
        if value > self.value:
            self.value = float(value)

    def point(self) -> "MetricPoint":
        """Snapshot this instrument."""
        return MetricPoint(
            name=self.name, labels=self.labels, kind=self.kind,
            wall=self.wall, value=self.value, agg=self.agg,
        )


class Histogram:
    """Fixed-bucket distribution: cumulative-friendly counts + sum.

    ``buckets`` are upper bounds (a value lands in the first bucket
    whose bound is >= it); one implicit ``+Inf`` bucket catches the
    rest, so ``counts`` has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "labels", "wall", "buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(
        self, name: str, labels: Labels, wall: bool,
        buckets: tuple[float, ...],
    ) -> None:
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.wall = wall
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def point(self) -> "MetricPoint":
        """Snapshot this instrument."""
        return MetricPoint(
            name=self.name, labels=self.labels, kind=self.kind,
            wall=self.wall, buckets=self.buckets,
            counts=tuple(self.counts), sum=self.sum, count=self.count,
        )


@dataclass(frozen=True)
class MetricPoint:
    """One instrument's frozen state — the unit snapshots are made of."""

    name: str
    labels: Labels
    kind: str
    wall: bool
    value: float = 0.0
    agg: str = "sum"
    buckets: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None
    sum: float = 0.0
    count: int = 0

    @property
    def key(self) -> tuple[str, Labels]:
        """The (name, labels) identity a registry keys instruments by."""
        return (self.name, self.labels)

    def merged(self, other: "MetricPoint") -> "MetricPoint":
        """Combine two points of the same key deterministically."""
        if self.key != other.key or self.kind != other.kind:
            raise ValueError(
                f"cannot merge {self.kind} {self.key} with "
                f"{other.kind} {other.key}"
            )
        if self.kind == "histogram":
            if self.buckets != other.buckets:
                raise ValueError(
                    f"histogram {self.name}: bucket layouts differ "
                    f"({self.buckets} vs {other.buckets})"
                )
            assert self.counts is not None and other.counts is not None
            return replace(
                self,
                counts=tuple(
                    a + b for a, b in zip(self.counts, other.counts)
                ),
                sum=self.sum + other.sum,
                count=self.count + other.count,
            )
        if self.kind == "gauge":
            if self.agg == "max":
                value = max(self.value, other.value)
            elif self.agg == "min":
                value = min(self.value, other.value)
            else:
                value = self.value + other.value
            return replace(self, value=value)
        return replace(self, value=self.value + other.value)


@dataclass
class MetricsSnapshot:
    """An ordered, picklable collection of metric points.

    Points are kept sorted by ``(name, labels)``; equality (and the JSON
    byte representation) therefore depends only on metric *content*,
    never on collection order — the property the determinism matrix
    asserts.
    """

    points: list[MetricPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.points = sorted(self.points, key=lambda p: p.key)

    def deterministic(self) -> "MetricsSnapshot":
        """The snapshot restricted to the deterministic domain."""
        return MetricsSnapshot(
            points=[p for p in self.points if not p.wall]
        )

    def get(
        self, name: str, labels: LabelInput = None
    ) -> MetricPoint | None:
        """Look up one point by name and exact labels."""
        key = (name, _labels(labels))
        for point in self.points:
            if point.key == key:
                return point
        return None

    def series(self, name: str) -> list[MetricPoint]:
        """All points of one metric name, across label sets."""
        return [p for p in self.points if p.name == name]

    def total(self, name: str) -> float:
        """Sum of a counter/gauge metric's values across label sets."""
        return sum(p.value for p in self.series(name))

    def merged(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine with another snapshot (order-stable reduction)."""
        combined: dict[tuple[str, Labels], MetricPoint] = {
            p.key: p for p in self.points
        }
        for point in other.points:
            existing = combined.get(point.key)
            combined[point.key] = (
                point if existing is None else existing.merged(point)
            )
        return MetricsSnapshot(points=list(combined.values()))


def merge_snapshots(
    snapshots: Iterable[MetricsSnapshot],
) -> MetricsSnapshot:
    """Reduce many snapshots (lane order in, deterministic out)."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged = merged.merged(snapshot)
    return merged


class MetricsRegistry:
    """Process-wide (or lane/shard-local) instrument registry.

    Instruments are keyed by ``(name, labels)`` and handed out
    get-or-create, so wiring code asks for what it needs and hot paths
    cache the returned object.  ``snapshot()`` freezes the current
    state; ``absorb()`` folds a snapshot from another registry (a lane
    shipped back from a child process, say) into this one.
    """

    def __init__(self) -> None:
        self._instruments: dict[
            tuple[str, Labels], Counter | Gauge | Histogram
        ] = {}
        self._listeners: list[Callable] = []

    # -- instruments --------------------------------------------------------

    def counter(
        self, name: str, labels: LabelInput = None, wall: bool = False
    ) -> Counter:
        """Get or create a counter."""
        return self._get(Counter, name, _labels(labels), wall)

    def gauge(
        self,
        name: str,
        labels: LabelInput = None,
        wall: bool = False,
        agg: str = "sum",
    ) -> Gauge:
        """Get or create a gauge."""
        key = (name, _labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Gauge(name, key[1], wall, agg=agg)
            self._instruments[key] = instrument
        elif not isinstance(instrument, Gauge):
            raise TypeError(
                f"{name}{dict(key[1])} is a {instrument.kind}, not a gauge"
            )
        return instrument

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...],
        labels: LabelInput = None,
        wall: bool = False,
    ) -> Histogram:
        """Get or create a fixed-bucket histogram."""
        key = (name, _labels(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(name, key[1], wall, buckets=buckets)
            self._instruments[key] = instrument
        elif not isinstance(instrument, Histogram):
            raise TypeError(
                f"{name}{dict(key[1])} is a {instrument.kind}, "
                "not a histogram"
            )
        elif instrument.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name}: requested buckets differ from the "
                "registered layout"
            )
        return instrument

    def _get(self, cls, name: str, labels: Labels, wall: bool):
        key = (name, labels)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels, wall)
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"{name}{dict(labels)} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    # -- listeners ----------------------------------------------------------

    @property
    def has_listeners(self) -> bool:
        """Whether any live observer is attached."""
        return bool(self._listeners)

    @property
    def listeners(self) -> tuple[Callable, ...]:
        """The attached observers (read-only view)."""
        return tuple(self._listeners)

    def add_listener(self, listener: Callable) -> None:
        """Observe flight-recorder frames as they are captured.

        Listeners are live callbacks and cannot cross a process
        boundary: like traffic taps, they make the ingress refuse
        process-executor lanes while attached.
        """
        self._listeners.append(listener)

    def remove_listener(self, listener: Callable) -> None:
        """Detach a listener (no error if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- reduction ----------------------------------------------------------

    def snapshot(self, include_wall: bool = True) -> MetricsSnapshot:
        """Freeze current state (sorted, picklable)."""
        points = [
            instrument.point()
            for instrument in self._instruments.values()
            if include_wall or not instrument.wall
        ]
        return MetricsSnapshot(points=points)

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot into this registry's live instruments."""
        for point in snapshot.points:
            if point.kind == "counter":
                self.counter(
                    point.name, dict(point.labels), wall=point.wall
                ).value += point.value
            elif point.kind == "gauge":
                gauge = self.gauge(
                    point.name, dict(point.labels),
                    wall=point.wall, agg=point.agg,
                )
                gauge.value = gauge.point().merged(point).value
            else:
                assert point.buckets is not None
                histogram = self.histogram(
                    point.name, point.buckets,
                    dict(point.labels), wall=point.wall,
                )
                assert point.counts is not None
                for index, add in enumerate(point.counts):
                    histogram.counts[index] += add
                histogram.sum += point.sum
                histogram.count += point.count

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        """Instruments travel; live listener callbacks cannot."""
        state = self.__dict__.copy()
        state["_listeners"] = []
        return state
