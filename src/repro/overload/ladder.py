"""Graduated response ladder: ``throttle -> CAPTCHA -> block``.

The paper's deployment did not just *report* robot verdicts — CoDeeN
refused service to clients it distrusted.  This module closes that
loop: micro-batch checkpoint verdicts accumulate evidence points per
client IP, and the request path consults the resulting stage before
detection runs.

Determinism contract
--------------------
Ladder state must be byte-identical across ``{serial, process}``
executors *and* across shard counts (one lane per shard, so a shard
count is a lane layout).  Batch flush boundaries depend on a lane's combined
event stream, so flush verdicts cannot drive the ladder without
breaking that invariant.  Instead sessions are scored at *per-session
request-count checkpoints* (the session's own observed-request count
hitting a power of two >= ``checkpoint_base``): whether and when a
checkpoint fires is a pure function of that session's own stream, and
every enforcement the verdict triggers is positional in the same IP's
stream — both invariant under any interleaving the executors produce.

Decay uses half-life *steps* (``points * 0.5 ** floor(dt / half_life)``)
rather than a continuous exponent so the arithmetic stays exactly
representable and the exported floats compare byte-for-byte.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "LadderConfig",
    "LadderStage",
    "ResponseLadder",
    "is_checkpoint",
    "merge_ladder_states",
]

#: Response header marking a ladder enforcement; the value is the stage.
LADDER_HEADER = "x-robot-ladder"


class LadderStage(enum.Enum):
    """Rungs of the graduated response, mildest first."""

    ALLOW = "allow"
    THROTTLE = "throttle"
    CAPTCHA = "captcha"
    BLOCK = "block"

    @property
    def rank(self) -> int:
        return _STAGE_RANK[self]


_STAGE_RANK = {
    LadderStage.ALLOW: 0,
    LadderStage.THROTTLE: 1,
    LadderStage.CAPTCHA: 2,
    LadderStage.BLOCK: 3,
}


def is_checkpoint(count: int, base: int) -> bool:
    """True when ``count`` is a power of two at or past ``base``."""
    return count >= base and (count & (count - 1)) == 0


@dataclass(frozen=True)
class LadderConfig:
    """Tuning for the per-IP escalation/decay state machine.

    ``checkpoint_base`` must be a power of two: checkpoints fire at
    observed-request counts ``base, 2*base, 4*base, ...`` per session.
    A robot checkpoint verdict adds one evidence point; points decay by
    half every ``half_life`` seconds of event time.  Stage thresholds
    are compared against the decayed total.
    """

    checkpoint_base: int = 4
    robot_weight: float = 1.0
    throttle_points: float = 1.0
    captcha_points: float = 2.0
    block_points: float = 4.0
    half_life: float = 1800.0
    #: In THROTTLE, admit one request in this many; refuse the rest.
    throttle_keep_one_in: int = 4
    #: Unanswered challenges before CAPTCHA escalates to BLOCK.
    challenge_patience: int = 32

    def __post_init__(self) -> None:
        base = self.checkpoint_base
        if base < 2 or (base & (base - 1)) != 0:
            raise ValueError(
                f"checkpoint_base must be a power of two >= 2, got {base}"
            )
        if not (
            0.0
            < self.throttle_points
            <= self.captcha_points
            <= self.block_points
        ):
            raise ValueError(
                "stage thresholds must satisfy 0 < throttle <= captcha "
                "<= block, got "
                f"{self.throttle_points}/{self.captcha_points}/"
                f"{self.block_points}"
            )
        if self.half_life <= 0.0:
            raise ValueError("half_life must be positive")
        if self.throttle_keep_one_in < 2:
            raise ValueError("throttle_keep_one_in must be >= 2")
        if self.challenge_patience < 1:
            raise ValueError("challenge_patience must be >= 1")
        if self.robot_weight <= 0.0:
            raise ValueError("robot_weight must be positive")


@dataclass
class _IpState:
    """Mutable ladder record for one client IP."""

    points: float = 0.0
    #: Event timestamp the decay is anchored at (advances in whole
    #: half-life steps so the multiplier stays a power of 0.5).
    anchor: float = 0.0
    stage: str = LadderStage.ALLOW.value
    throttle_seq: int = 0
    challenge_streak: int = 0
    verdicts: int = 0
    throttled: int = 0
    challenged: int = 0
    blocked: int = 0


class ResponseLadder:
    """Per-IP escalation/decay state machine for one lane partition.

    One instance lives on each :class:`~repro.proxy.node.NodeShard`
    (lane-contained, pickle-safe: plain dicts plus an optional metrics
    registry, which already crosses process boundaries with the shard).
    Client IPs are sticky to a shard, so instances never share an IP
    and their exports merge by plain union.
    """

    def __init__(self, config: LadderConfig | None = None) -> None:
        self.config = config or LadderConfig()
        self._ips: dict[str, _IpState] = {}
        self._transitions: list[tuple[float, str, str, str]] = []
        self._registry = None
        self._labels: dict[str, str] = {}
        #: Counter handles by ``(name, *label values)``, resolved once.
        self._counters: dict[tuple[str, ...], object] = {}

    def attach_metrics(self, registry, labels: Mapping[str, str]) -> None:
        """Record ladder activity into ``registry`` (event-time domain)."""
        self._registry = registry
        self._labels = dict(labels)
        self._counters = {}

    def _count(self, name: str, **extra: str) -> None:
        if self._registry is not None:
            key = (name, *extra.values())
            counter = self._counters.get(key)
            if counter is None:
                counter = self._registry.counter(name, {**self._labels, **extra})
                self._counters[key] = counter
            counter.inc()

    # -- evidence ------------------------------------------------------------

    def observe_verdict(
        self, ip: str, margin: float, timestamp: float
    ) -> None:
        """Fold one checkpoint verdict for ``ip`` into its record.

        A robot verdict (``margin <= 0``, matching the batch scorer's
        tie-to-robot rule) adds ``robot_weight`` points; a human
        verdict adds nothing — recovery is decay's job.  Records are
        created lazily on first robot evidence so the table stays
        bounded by the suspicious-IP population, not the client one.
        """
        is_robot = margin <= 0.0
        self._count(
            "repro_ladder_verdicts_total",
            verdict="robot" if is_robot else "human",
        )
        record = self._ips.get(ip)
        if record is None:
            if not is_robot:
                return
            record = self._ips[ip] = _IpState(anchor=timestamp)
        self._decay(record, timestamp)
        if is_robot:
            record.points += self.config.robot_weight
            record.verdicts += 1
        self._transition(record, ip, self._stage_of(record.points), timestamp)

    def note_captcha_result(
        self, ip: str, passed: bool, timestamp: float
    ) -> None:
        """A challenge came back: a pass exonerates, a fail condemns."""
        record = self._ips.get(ip)
        if record is None:
            return
        self._decay(record, timestamp)
        record.challenge_streak = 0
        if passed:
            record.points = 0.0
        else:
            record.points = max(record.points, self.config.block_points)
        self._transition(record, ip, self._stage_of(record.points), timestamp)

    # -- enforcement ---------------------------------------------------------

    def gate(self, ip: str, now: float) -> LadderStage:
        """Decide the enforcement for one arriving request from ``ip``.

        Returns the stage to enforce *for this request*: ``ALLOW``
        passes it on to detection, ``THROTTLE`` refuses it (503),
        ``CAPTCHA`` serves a challenge, ``BLOCK`` refuses hard (403).
        While in THROTTLE one request in ``throttle_keep_one_in`` is
        admitted so the micro-batcher keeps seeing evidence.
        """
        record = self._ips.get(ip)
        if record is None:
            return LadderStage.ALLOW
        cfg = self.config
        self._decay(record, now)
        stage = self._stage_of(record.points)
        if stage is LadderStage.CAPTCHA:
            record.challenge_streak += 1
            if record.challenge_streak > cfg.challenge_patience:
                # The client keeps hammering instead of solving the
                # challenge: that is evidence in itself.
                record.points = max(record.points, cfg.block_points)
                record.anchor = now
                stage = LadderStage.BLOCK
        else:
            record.challenge_streak = 0
        # ``_value_``: ``value`` is a descriptor call on 3.11.
        if stage._value_ != record.stage:
            self._transition(record, ip, stage, now)
        if stage is LadderStage.THROTTLE:
            record.throttle_seq += 1
            if record.throttle_seq % cfg.throttle_keep_one_in == 0:
                return LadderStage.ALLOW
            record.throttled += 1
        elif stage is LadderStage.CAPTCHA:
            record.challenged += 1
        elif stage is LadderStage.BLOCK:
            record.blocked += 1
        else:
            return stage
        self._count("repro_ladder_gated_total", stage=stage._value_)
        return stage

    # -- internals -----------------------------------------------------------

    def _decay(self, record: _IpState, now: float) -> None:
        steps = int((now - record.anchor) // self.config.half_life)
        if steps > 0:
            record.points *= 0.5**steps
            record.anchor += steps * self.config.half_life

    def _stage_of(self, points: float) -> LadderStage:
        cfg = self.config
        if points >= cfg.block_points:
            return LadderStage.BLOCK
        if points >= cfg.captcha_points:
            return LadderStage.CAPTCHA
        if points >= cfg.throttle_points:
            return LadderStage.THROTTLE
        return LadderStage.ALLOW

    def _transition(
        self, record: _IpState, ip: str, stage: LadderStage, now: float
    ) -> None:
        if stage.value != record.stage:
            self._transitions.append((now, ip, record.stage, stage.value))
            self._count(
                "repro_ladder_transitions_total",
                src=record.stage,
                dst=stage.value,
            )
            record.stage = stage.value

    # -- export --------------------------------------------------------------

    def export_state(self) -> dict:
        """Canonical, JSON-serialisable ladder state for this partition."""
        ips = {
            ip: {
                "points": record.points,
                "anchor": record.anchor,
                "stage": record.stage,
                "verdicts": record.verdicts,
                "throttled": record.throttled,
                "challenged": record.challenged,
                "blocked": record.blocked,
            }
            for ip, record in sorted(self._ips.items())
        }
        return {
            "ips": ips,
            "transitions": [list(item) for item in self._transitions],
        }


def merge_ladder_states(states: Iterable[dict]) -> dict:
    """Union per-partition exports into one network-wide state.

    IPs are sticky to a partition so the ``ips`` maps are disjoint;
    transitions interleave by ``(timestamp, ip)`` — a stable sort, so
    each IP's own transition order (already total within one
    partition) is preserved.  The result is identical whichever lane
    layout produced the partitions.
    """
    ips: dict[str, dict] = {}
    transitions: list[list] = []
    for state in states:
        for ip, record in state["ips"].items():
            if ip in ips:
                raise ValueError(
                    f"ladder partitions overlap on client IP {ip}"
                )
            ips[ip] = record
        transitions.extend(state["transitions"])
    transitions.sort(key=lambda item: (item[0], item[1]))
    return {
        "ips": {ip: ips[ip] for ip in sorted(ips)},
        "transitions": transitions,
    }
