"""Virtual-time flight recorder: periodic registry snapshots during replay.

A :class:`FlightRecorder` samples a :class:`~repro.obs.registry.MetricsRegistry`
on a fixed **event-time** interval.  Frames sit on an absolute grid
(multiples of ``interval``): the recorder is ticked with each event's
timestamp *before* the event is applied, and emits one frame per crossing,
stamped at the largest grid boundary ``<=`` that timestamp.  A frame at
boundary ``b`` therefore never includes events with ``ts >= b``.

Because the grid is absolute and per-lane event order is pinned by the
admission contract, a lane's frame sequence is identical whether the lane
ran inline (serial executor) or behind a pipe in its own process
(process executor) — which is what lets :func:`merge_flight` reconstruct a global
timeline from per-lane recordings deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.obs.registry import MetricsRegistry, MetricsSnapshot, merge_snapshots


@dataclass
class FlightFrame:
    """One sampled snapshot, stamped at a virtual-time grid boundary."""

    tick: float
    metrics: MetricsSnapshot


@dataclass
class FlightRecorder:
    """Samples a registry whenever event time crosses an interval boundary.

    ``prepare`` (optional) runs just before each sample — the hook that
    lets a node collect its authoritative stats objects into registry
    counters so frames reflect them.  ``snapshot`` (optional) replaces
    ``registry.snapshot()`` as the frame source: a lane passes its
    shard's export-then-snapshot ``metrics_snapshot`` here so frames
    carry the shard's stats (the ``registry`` is still the one whose
    listeners fire per frame).
    """

    interval: float
    registry: MetricsRegistry
    prepare: Optional[Callable[[], None]] = None
    snapshot: Optional[Callable[[], MetricsSnapshot]] = None
    frames: list = field(default_factory=list)
    _last_tick: Optional[float] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("flight interval must be positive")

    def tick(self, timestamp: float) -> Optional[FlightFrame]:
        """Advance to ``timestamp``; emit a frame if a boundary was crossed.

        Call before applying the event stamped ``timestamp``.
        """
        boundary = math.floor(timestamp / self.interval) * self.interval
        if self._last_tick is not None and boundary <= self._last_tick:
            return None
        self._last_tick = boundary
        if self.prepare is not None:
            self.prepare()
        metrics = (
            self.snapshot()
            if self.snapshot is not None
            else self.registry.snapshot()
        )
        frame = FlightFrame(tick=boundary, metrics=metrics)
        self.frames.append(frame)
        for listener in self.registry.listeners:
            listener(frame)
        return frame


def _lane_state_at(
    tick: float,
    frames: Sequence[FlightFrame],
    final: MetricsSnapshot,
) -> Optional[MetricsSnapshot]:
    """The lane's snapshot as of grid boundary ``tick``.

    Latest frame with ``tick <= T``; the final snapshot once ``T`` passes
    the lane's last frame (events after the last crossed boundary only
    exist there); nothing before the lane's first frame.
    """
    if not frames or tick < frames[0].tick:
        return None
    if tick > frames[-1].tick:
        return final
    chosen = frames[0]
    for frame in frames:
        if frame.tick > tick:
            break
        chosen = frame
    return chosen.metrics


def merge_flight(
    lane_frames: Sequence[Sequence[FlightFrame]],
    lane_finals: Sequence[MetricsSnapshot],
) -> list[FlightFrame]:
    """Merge per-lane frame sequences into one global timeline.

    For every grid boundary observed by any lane, merges (in lane-index
    order) each lane's state as of that boundary.  Lane order is fixed,
    so the merged reduction is order-stable.
    """
    if len(lane_frames) != len(lane_finals):
        raise ValueError("lane_frames and lane_finals must align")
    ticks = sorted({f.tick for frames in lane_frames for f in frames})
    merged: list[FlightFrame] = []
    for tick in ticks:
        parts = [
            state
            for frames, final in zip(lane_frames, lane_finals)
            if (state := _lane_state_at(tick, frames, final)) is not None
        ]
        merged.append(FlightFrame(tick=tick, metrics=merge_snapshots(parts)))
    return merged
