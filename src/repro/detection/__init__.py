"""The paper's primary contribution: online human/robot classification.

A :class:`~repro.detection.tracker.SessionTracker` groups the request
stream into ``<IP, User-Agent>`` sessions (1-hour idle timeout, §3).  Each
session is one :class:`~repro.detection.session.SessionState`, the state
machine of §2-§3: every request is matched against the instrumentation
registry, and a hit becomes evidence on the session —

* valid keyed mouse-image fetch  -> human activity (§2.1);
* CSS-beacon fetch               -> standard-browser behaviour (§2.2);
* UA-probe fetch                 -> JavaScript execution (+ forgery check);
* hidden-trap page fetch         -> crawler behaviour;
* wrong-key beacon fetch         -> blind-fetching robot.

The same state gives the session's online and final verdicts (the
requests-to-detect samples behind Figure 2 are its first-evidence
indices) and applies the §3.2 staging: a robot-labelled session is
watched and blocked once its CGI rate, GET rate or 4xx count crosses a
:class:`~repro.detection.session.PolicyConfig` threshold.
:class:`~repro.detection.service.DetectionService` is the per-request
pipeline around them, and :mod:`repro.detection.set_algebra` combines the
finished sessions with the paper's formula
``S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)`` into the lower/upper
human-fraction bounds and the maximum false-positive rate.
"""

from repro.detection.service import DetectionService, RequestOutcome
from repro.detection.session import (
    DetectionLatency,
    PolicyConfig,
    SessionKey,
    SessionState,
)
from repro.detection.set_algebra import SessionSets, SetAlgebraSummary
from repro.detection.sharded import ShardedDetectionService
from repro.detection.tracker import SessionTracker
from repro.detection.verdict import Label, Verdict

__all__ = [
    "DetectionLatency",
    "DetectionService",
    "Label",
    "PolicyConfig",
    "RequestOutcome",
    "SessionKey",
    "SessionSets",
    "SessionState",
    "SessionTracker",
    "SetAlgebraSummary",
    "ShardedDetectionService",
    "Verdict",
]
