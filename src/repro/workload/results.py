"""Workload reductions shared by the synthetic engine and trace replay.

:class:`SessionCensus` is the common shape both the synthetic
:class:`WorkloadResult` and the trace-replay result expose, so every
analysis and reporting consumer (tables, figures, census arithmetic)
works unchanged whether sessions came from simulated agents or from an
access log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.captcha.service import CaptchaService
from repro.detection.session import DetectionLatency, SessionState
from repro.detection.set_algebra import SetAlgebraSummary
from repro.ml.dataset import Dataset
from repro.obs.flight import FlightFrame
from repro.obs.registry import MetricsSnapshot
from repro.obs.spans import SpanTree
from repro.proxy.node import NodeStats
from repro.workload.session_run import SessionRecord


#: <IP, User-Agent> -> (agent_kind, true_label).
IdentityMap = dict[tuple[str, str], tuple[str, str]]


def session_identities(records) -> IdentityMap:
    """Ground-truth identity map from driven session records."""
    return {
        (r.client_ip, r.user_agent): (r.agent_kind, r.true_label)
        for r in records
    }


def apply_session_identities(
    sessions: list["SessionState"], identities: IdentityMap
) -> None:
    """Backfill ground truth onto unlabeled sessions by <IP, UA> key.

    Sessions annotated while live (the engine's per-session pass) are
    left untouched; segments that idle-rotated before annotation — and
    every session of a trace replay — get their labels here.
    """
    for state in sessions:
        if state.agent_kind or state.true_label:
            continue
        identity = identities.get(
            (state.key.client_ip, state.key.user_agent)
        )
        if identity is not None:
            state.agent_kind, state.true_label = identity


class SessionCensus:
    """Census helpers over a ``sessions: list[SessionState]`` attribute."""

    sessions: list[SessionState]

    @property
    def analyzable_count(self) -> int:
        """Sessions above the >10 request threshold."""
        return len(self.sessions)

    def sessions_of_kind(self, kind: str) -> list[SessionState]:
        """Analyzable sessions generated by one agent family."""
        return [s for s in self.sessions if s.agent_kind == kind]

    def kind_census(self) -> dict[str, int]:
        """Analyzable session counts per agent family."""
        census: dict[str, int] = {}
        for state in self.sessions:
            census[state.agent_kind] = census.get(state.agent_kind, 0) + 1
        return census


@dataclass
class WorkloadResult(SessionCensus):
    """Everything a workload replay produced."""

    records: list[SessionRecord]
    sessions: list[SessionState]
    summary: SetAlgebraSummary
    stats: NodeStats
    latencies: list[DetectionLatency]
    dataset: Dataset
    captcha: CaptchaService
    #: Deployment-wide metrics: the ingress-merged snapshot (admission
    #: registry, then lane registries in lane order).
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    #: Merged flight-recorder timeline (empty unless a flight interval
    #: was configured) and tail-sampled span trees (empty unless span
    #: tracing was configured).
    flight: list[FlightFrame] = field(default_factory=list)
    spans: list[SpanTree] = field(default_factory=list)
    #: Adaptive admission ledger (None unless adaptive shedding was on).
    overload: object | None = None
