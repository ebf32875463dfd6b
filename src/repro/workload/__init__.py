"""Workload generation and experiment drivers.

:class:`~repro.workload.session_run.SessionRunner` drives one agent
against a proxy handler on a virtual clock
(:class:`~repro.workload.session_run.SessionCursor` exposes the same
session one fetch at a time for the interleaved scheduler);
:class:`~repro.workload.engine.WorkloadEngine` replays a whole population
mix through a proxy network's ingress lanes — each node's sessions
interleaved by event time — labelling sessions with ground truth and
running the optional CAPTCHA funnel; :mod:`repro.workload.mixes` holds the
calibrated populations (most importantly ``CODEEN_WEEK``, the Table 1
census); :mod:`repro.workload.codeen` and
:mod:`repro.workload.complaints` are the §3 experiment drivers.
"""

from repro.workload.codeen import CodeenWeekExperiment, CodeenWeekResult
from repro.workload.complaints import (
    ComplaintConfig,
    ComplaintTimeline,
    MonthlyComplaints,
)
from repro.workload.engine import WorkloadConfig, WorkloadEngine, WorkloadResult
from repro.workload.mixes import (
    CODEEN_WEEK,
    ML_STUDY,
    SMOKE,
    mix_by_name,
)
from repro.workload.results import SessionCensus
from repro.workload.session_run import (
    SessionCursor,
    SessionRecord,
    SessionRunner,
)

__all__ = [
    "CODEEN_WEEK",
    "CodeenWeekExperiment",
    "CodeenWeekResult",
    "ComplaintConfig",
    "ComplaintTimeline",
    "ML_STUDY",
    "MonthlyComplaints",
    "SMOKE",
    "SessionCensus",
    "SessionCursor",
    "SessionRecord",
    "SessionRunner",
    "WorkloadConfig",
    "WorkloadEngine",
    "WorkloadResult",
    "mix_by_name",
]
