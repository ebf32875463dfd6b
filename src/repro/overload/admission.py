"""Front-door admission: the one place a request is admitted or shed.

:class:`Admission` serves both front doors — the live server (one lane
per node) and the ingress pipeline (one lane per node shard) — and is
the only code that predicts a lane's queue delay: the backlog times an
EWMA of the wall seconds the lane spends per served event.  Under
``ShedPolicy.ADAPTIVE`` that prediction goes to a
:class:`DelayBudgetController`, which sheds once it exceeds a latency
budget.  Three refinements keep the degradation graceful:

* **hysteresis** — shedding starts above ``delay_budget`` but only
  stops below ``delay_budget * resume_ratio``, so the controller does
  not flap around the threshold;
* **fairness** — while shedding, clients whose recent admitted share
  exceeds a multiple of the fair share are dropped first, so a flash
  crowd of distinct users degrades gracefully while a flooding IP
  absorbs the drops;
* **pressure ramp** — the over-share multiple starts permissive and
  tightens toward 1x the longer the episode lasts; once saturated, a
  duty-cycle backstop sheds all but one request in ``duty_cycle``
  until the prediction falls back under budget.

Admission runs against wall-clock signals, so — for ``SHED`` and
``ADAPTIVE`` alike — which individual events it sheds is
timing-dependent and **not** part of the determinism contract.  What it
guarantees instead is accounting (admitted + shed always balances the
arrival totals) and the bounded predicted delay the tests pin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "DELAY_CAP",
    "AdaptiveConfig",
    "Admission",
    "DelayBudgetController",
    "FairnessTracker",
    "LaneOverload",
    "OverloadReport",
    "ShedPolicy",
]

#: Every lane's seconds-per-served-event estimate starts at a 5 ms
#: event and moves a fifth of the way to each new sample.
_SERVICE_SEED = 0.005
_SERVICE_ALPHA = 0.2
#: Predicted delays are capped: a stalled lane reports this, never
#: infinity (the canonical JSON exporters reject non-finite floats).
DELAY_CAP = 3600.0

#: Renormalise the inflated fairness weights before the common scale
#: factor (2 ** (elapsed / half_life)) can overflow a float.
_RENORM_SCALE = 2.0**500


class ShedPolicy(Enum):
    """What admission does with an arrival a lane may be too slow for.

    * ``BLOCK`` — admit it: backpressure, and results bit-identical at
      any queue depth.
    * ``SHED`` — refuse and count it once the lane's backlog passes its
      cap (a process pipe's cap is the pipe: a full one refuses whole
      chunks itself).  The count is surfaced in the statistics, so a
      Table-1-style report never silently loses traffic.
    * ``ADAPTIVE`` — refuse it while the controller sheds; whatever it
      admits is never dropped again.
    """

    BLOCK = "block"
    SHED = "shed"
    ADAPTIVE = "adaptive"


@dataclass(frozen=True)
class AdaptiveConfig:
    """Tuning for :class:`DelayBudgetController`."""

    #: Predicted queue delay (seconds) that triggers shedding.
    delay_budget: float = 1.0
    #: Shedding stops once prediction falls below ``budget * ratio``.
    resume_ratio: float = 0.5
    #: Half-life (wall seconds) of the per-IP admitted-share memory.
    fairness_half_life: float = 5.0
    #: Initial over-share multiple: an IP sheds only once its share
    #: exceeds ``boost * fair_share`` at the start of an episode.
    fairness_boost: float = 4.0
    #: Requests over which the episode pressure ramps from 0 to 1.
    ramp_requests: int = 256
    #: At full pressure, admit one request in this many.
    duty_cycle: int = 4

    def __post_init__(self) -> None:
        if self.delay_budget <= 0.0:
            raise ValueError("delay_budget must be positive")
        if not 0.0 < self.resume_ratio < 1.0:
            raise ValueError(
                "resume_ratio must be in (0, 1): shedding has to stop "
                "strictly below the budget that started it"
            )
        if self.fairness_half_life <= 0.0:
            raise ValueError("fairness_half_life must be positive")
        if self.fairness_boost < 1.0:
            raise ValueError("fairness_boost must be >= 1")
        if self.ramp_requests < 1:
            raise ValueError("ramp_requests must be >= 1")
        if self.duty_cycle < 2:
            raise ValueError("duty_cycle must be >= 2")


class FairnessTracker:
    """Exponentially-decayed admitted-request counts per client IP.

    Weights are stored *inflated* by ``2 ** (elapsed / half_life)`` so
    a single multiply-free dict update implements the decay; shares are
    ratios, so the common inflation cancels exactly.  Renormalisation
    keeps the scale finite on long runs.
    """

    def __init__(self, half_life: float) -> None:
        self.half_life = half_life
        self._epoch: float | None = None
        self._weights: dict[str, float] = {}
        self._total = 0.0

    @property
    def population(self) -> int:
        """Distinct IPs with non-negligible recent admitted weight."""
        return len(self._weights)

    def _renormalize(self, now: float) -> None:
        factor = 2.0 ** (-(now - self._epoch) / self.half_life)
        cutoff = 2.0**-40
        rescaled = {
            ip: weight * factor
            for ip, weight in self._weights.items()
            if weight * factor > cutoff
        }
        self._weights = rescaled
        self._total = sum(rescaled.values())
        self._epoch = now

    def note(self, ip: str, now: float) -> None:
        """Record one admitted request from ``ip``."""
        if self._epoch is None:
            self._epoch = now
        scale = 2.0 ** ((now - self._epoch) / self.half_life)
        if scale >= _RENORM_SCALE:
            self._renormalize(now)
            scale = 1.0
        self._weights[ip] = self._weights.get(ip, 0.0) + scale
        self._total += scale

    def share(self, ip: str, now: float) -> float:
        """``ip``'s fraction of recently admitted requests, in [0, 1]."""
        del now  # decay cancels in the ratio
        if self._total <= 0.0:
            return 0.0
        return self._weights.get(ip, 0.0) / self._total

    def fair_share(self) -> float:
        """The equal-split share given the current population."""
        return 1.0 / max(1, len(self._weights))


@dataclass
class _LaneState:
    shedding: bool = False
    pressure: float = 0.0
    peak_pressure: float = 0.0
    duty_seq: int = 0
    admitted: int = 0
    shed: int = 0
    entered: int = 0
    exited: int = 0


@dataclass(frozen=True)
class LaneOverload:
    """One lane's admission ledger for the run."""

    lane: int
    admitted: int
    shed: int
    entered: int
    exited: int
    peak_pressure: float


@dataclass(frozen=True)
class OverloadReport:
    """What adaptive admission did, for summaries and fairness tests."""

    lanes: tuple[LaneOverload, ...]
    admitted_by_ip: dict[str, int] = field(default_factory=dict)
    shed_by_ip: dict[str, int] = field(default_factory=dict)
    reasons: dict[str, int] = field(default_factory=dict)

    @property
    def admitted(self) -> int:
        return sum(lane.admitted for lane in self.lanes)

    @property
    def shed(self) -> int:
        return sum(lane.shed for lane in self.lanes)

    def shed_fraction(self, ip: str) -> float:
        """Fraction of ``ip``'s arrivals the controller refused."""
        admitted = self.admitted_by_ip.get(ip, 0)
        shed = self.shed_by_ip.get(ip, 0)
        total = admitted + shed
        return shed / total if total else 0.0


class DelayBudgetController:
    """The ``ShedPolicy.ADAPTIVE`` decision, given a predicted delay.

    Lives in the admitting process; one fairness tracker and one
    hysteresis state per lane (client IPs are lane-sticky, so per-lane
    shares are exactly the shares among that lane's clients).
    """

    def __init__(
        self,
        config: AdaptiveConfig,
        lanes: int,
        metrics=None,
    ) -> None:
        self.config = config
        self._states = [_LaneState() for _ in range(lanes)]
        self._trackers = [
            FairnessTracker(config.fairness_half_life) for _ in range(lanes)
        ]
        self._metrics = metrics
        self._admitted_by_ip: dict[str, int] = {}
        self._shed_by_ip: dict[str, int] = {}
        self._reasons: dict[str, int] = {}

    # -- decision ------------------------------------------------------------

    def admit(
        self,
        lane: int,
        ip: str,
        predicted_delay: float,
        now: float | None = None,
    ) -> bool:
        """Admit or shed one arrival for ``lane`` from ``ip``."""
        if now is None:
            now = time.monotonic()
        cfg = self.config
        state = self._states[lane]
        if state.shedding:
            if predicted_delay < cfg.delay_budget * cfg.resume_ratio:
                state.shedding = False
                state.pressure = 0.0
                state.exited += 1
                self._phase(lane, state)
        elif predicted_delay > cfg.delay_budget:
            state.shedding = True
            state.entered += 1
            self._phase(lane, state)
        if not state.shedding:
            return self._admit(lane, state, ip, now)
        state.pressure = min(
            1.0, state.pressure + 1.0 / cfg.ramp_requests
        )
        state.peak_pressure = max(state.peak_pressure, state.pressure)
        tracker = self._trackers[lane]
        multiple = 1.0 + (cfg.fairness_boost - 1.0) * (1.0 - state.pressure)
        if tracker.share(ip, now) > tracker.fair_share() * multiple:
            return self._shed(lane, state, ip, "fairness")
        if state.pressure >= 1.0 and predicted_delay > cfg.delay_budget:
            state.duty_seq += 1
            if state.duty_seq % cfg.duty_cycle != 0:
                return self._shed(lane, state, ip, "delay_budget")
        return self._admit(lane, state, ip, now)

    def _admit(
        self, lane: int, state: _LaneState, ip: str, now: float
    ) -> bool:
        self._trackers[lane].note(ip, now)
        state.admitted += 1
        self._admitted_by_ip[ip] = self._admitted_by_ip.get(ip, 0) + 1
        return True

    def _shed(
        self, lane: int, state: _LaneState, ip: str, reason: str
    ) -> bool:
        state.shed += 1
        self._shed_by_ip[ip] = self._shed_by_ip.get(ip, 0) + 1
        self._reasons[reason] = self._reasons.get(reason, 0) + 1
        if self._metrics is not None:
            self._metrics.counter(
                "repro_ingress_shed_reason_total",
                {"lane": str(lane), "reason": reason},
                wall=True,
            ).inc()
        return False

    def _phase(self, lane: int, state: _LaneState) -> None:
        if self._metrics is not None:
            labels = {"lane": str(lane)}
            self._metrics.gauge(
                "repro_ingress_adaptive_shedding", labels, wall=True
            ).set(1.0 if state.shedding else 0.0)
            self._metrics.counter(
                "repro_ingress_adaptive_transitions_total",
                {**labels, "phase": "enter" if state.shedding else "exit"},
                wall=True,
            ).inc()

    # -- accounting ----------------------------------------------------------

    def lane_shed_counts(self) -> list[int]:
        """Per-lane admission-side sheds, for the stats ledger."""
        return [state.shed for state in self._states]

    def report(self) -> OverloadReport:
        return OverloadReport(
            lanes=tuple(
                LaneOverload(
                    lane=index,
                    admitted=state.admitted,
                    shed=state.shed,
                    entered=state.entered,
                    exited=state.exited,
                    peak_pressure=state.peak_pressure,
                )
                for index, state in enumerate(self._states)
            ),
            admitted_by_ip=dict(self._admitted_by_ip),
            shed_by_ip=dict(self._shed_by_ip),
            reasons=dict(self._reasons),
        )


class Admission:
    """Admit or shed each arrival for one front door's lanes.

    ``cap`` is the ``SHED`` backlog limit (None: the lane's own queue
    refuses when full); ``adaptive`` tunes the ``ADAPTIVE`` controller
    (defaulted when None).  Callers feed :meth:`served` with the wall
    seconds their lanes spend serving events and pass each arrival's
    backlog — the events it waits behind — to :meth:`admit`.
    """

    def __init__(
        self,
        policy: ShedPolicy,
        lanes: int,
        cap: int | None = None,
        adaptive: AdaptiveConfig | None = None,
        metrics=None,
    ) -> None:
        self.policy = policy
        self._cap = cap
        #: Per lane: EWMA wall seconds per served event, and seconds
        #: served toward events not delivered yet.
        self._service = [_SERVICE_SEED] * lanes
        self._owed = [0.0] * lanes
        #: The ``ADAPTIVE`` controller (None under the other policies).
        self.controller = (
            DelayBudgetController(
                adaptive or AdaptiveConfig(), lanes, metrics=metrics
            )
            if policy is ShedPolicy.ADAPTIVE
            else None
        )

    def admit(self, lane: int, ip: str, backlog: int) -> bool:
        """True to admit an arrival from ``ip`` behind ``backlog`` events."""
        policy = self.policy
        if policy is ShedPolicy.BLOCK:
            return True
        if policy is ShedPolicy.SHED:
            return self._cap is None or backlog <= self._cap
        return self.controller.admit(lane, ip, self.predict(lane, backlog))

    def served(self, lane: int, seconds: float, events: int = 1) -> None:
        """Fold ``seconds`` of ``lane`` service that delivered ``events``.

        ``events=0`` means the lane was busy but has delivered nothing
        yet: the seconds count toward the next delivery.
        """
        seconds += self._owed[lane]
        if not events:
            self._owed[lane] = seconds
            return
        self._owed[lane] = 0.0
        service = self._service
        service[lane] += _SERVICE_ALPHA * (seconds / events - service[lane])

    def predict(self, lane: int, backlog: int) -> float:
        """Predicted wall seconds to serve ``backlog`` events on ``lane``."""
        return min(DELAY_CAP, backlog * self._service[lane])
