"""Arrival profiles: when sessions start within the experiment window.

The seed engine spread session starts uniformly over the window.
Because every lane steps its live sessions by next-event time
(:mod:`repro.trace.interleave`), sessions overlap and the start-time
*distribution* is a real workload knob: diurnal cycles and flash crowds
— the load shapes a production CoDeeN node actually sees — are
first-class scenarios.

Profiles draw from the workload's own RNG stream, so a workload remains
fully described by (mix, size, seed, profile).
"""

from __future__ import annotations

import abc
import math

from repro.util.rng import RngStream
from repro.util.timeutil import DAY


class ArrivalProfile(abc.ABC):
    """Samples sorted session start times over ``[0, duration)``."""

    name: str = "abstract"

    @abc.abstractmethod
    def sample(
        self, rng: RngStream, count: int, duration: float
    ) -> list[float]:
        """Draw ``count`` start times in ascending order."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}()"


class UniformArrival(ArrivalProfile):
    """Starts spread uniformly over the window (the seed behaviour).

    Draw-for-draw identical to the original engine's sampling, so
    default workloads reproduce the exact same start times.
    """

    name = "uniform"

    def sample(
        self, rng: RngStream, count: int, duration: float
    ) -> list[float]:
        return sorted(rng.uniform(0.0, duration) for _ in range(count))


class DiurnalArrival(ArrivalProfile):
    """A day/night sine cycle: intensity peaks once per period.

    ``peak_ratio`` is peak-to-trough intensity; sampling is by rejection
    against the normalised intensity curve, which keeps the draws
    deterministic under the stream and exact for any ratio.
    """

    name = "diurnal"

    def __init__(
        self,
        period: float = DAY,
        peak_ratio: float = 4.0,
        peak_at: float = 0.58,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if peak_ratio < 1.0:
            raise ValueError("peak_ratio must be >= 1")
        if not 0.0 <= peak_at < 1.0:
            raise ValueError("peak_at must be in [0, 1)")
        self.period = period
        self.peak_ratio = peak_ratio
        self.peak_at = peak_at

    def intensity(self, t: float) -> float:
        """Relative arrival intensity at time ``t`` (max 1.0)."""
        phase = (t / self.period - self.peak_at) * 2.0 * math.pi
        trough = 1.0 / self.peak_ratio
        return trough + (1.0 - trough) * (1.0 + math.cos(phase)) / 2.0

    def sample(
        self, rng: RngStream, count: int, duration: float
    ) -> list[float]:
        starts: list[float] = []
        while len(starts) < count:
            t = rng.uniform(0.0, duration)
            if rng.random() < self.intensity(t):
                starts.append(t)
        starts.sort()
        return starts


class BurstArrival(ArrivalProfile):
    """A flash crowd: a fraction of all sessions lands in one short window.

    ``burst_share`` of the population arrives uniformly inside the burst
    window; the rest arrives uniformly over the whole duration, so the
    burst rides on top of background load.
    """

    name = "burst"

    def __init__(
        self,
        burst_share: float = 0.5,
        burst_start: float = 0.4,
        burst_width: float = 0.02,
    ) -> None:
        if not 0.0 <= burst_share <= 1.0:
            raise ValueError("burst_share must be in [0, 1]")
        if not 0.0 <= burst_start < 1.0:
            raise ValueError("burst_start must be in [0, 1)")
        if not 0.0 < burst_width <= 1.0:
            raise ValueError("burst_width must be in (0, 1]")
        self.burst_share = burst_share
        self.burst_start = burst_start
        self.burst_width = burst_width

    def sample(
        self, rng: RngStream, count: int, duration: float
    ) -> list[float]:
        begin = self.burst_start * duration
        end = min(duration, begin + self.burst_width * duration)
        starts = []
        for _ in range(count):
            if rng.bernoulli(self.burst_share):
                starts.append(rng.uniform(begin, end))
            else:
                starts.append(rng.uniform(0.0, duration))
        starts.sort()
        return starts


_PROFILES = {
    UniformArrival.name: UniformArrival,
    DiurnalArrival.name: DiurnalArrival,
    BurstArrival.name: BurstArrival,
}


def profile_by_name(name: str, **kwargs) -> ArrivalProfile:
    """Instantiate a named profile (``uniform``, ``diurnal``, ``burst``)."""
    try:
        cls = _PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown arrival profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None
    return cls(**kwargs)
