"""DetectionService: the full per-request pipeline a proxy node hosts.

Order of operations for each incoming request (mirrors the CoDeeN
deployment):

1. route the request to its <IP, User-Agent> session (idle rotation);
2. match it against the instrumentation registry — beacon fetches are
   answered by the proxy itself and become evidence on the session;
3. take the session's online verdict;
4. let the session's §3.2 staging decide whether to block.

The service does not forward to the origin or instrument pages — that is
the proxy node's job — it owns *state and judgement*, and every piece of
judgement lives on :class:`~repro.detection.session.SessionState`.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.detection.session import DetectionLatency, PolicyConfig, SessionState
from repro.detection.set_algebra import SessionSets
from repro.detection.tracker import SessionTracker
from repro.detection.verdict import Verdict
from repro.http.message import Request, Response
from repro.instrument.keys import BeaconHit, InstrumentationRegistry
from repro.util.timeutil import HOUR


class RequestOutcome(NamedTuple):
    """Everything the pipeline concluded about one request."""

    state: SessionState
    hit: BeaconHit | None
    verdict: Verdict
    #: True when the session's §3.2 staging blocked this request.
    blocked: bool


class DetectionService:
    """Session tracking and the per-session state machine, as one pipeline."""

    def __init__(
        self,
        registry: InstrumentationRegistry,
        idle_timeout: float = HOUR,
        min_requests: int = 10,
        policy_config: PolicyConfig | None = None,
        session_id_prefix: str = "sess",
    ) -> None:
        self._registry = registry
        self.tracker = SessionTracker(
            idle_timeout=idle_timeout,
            min_requests=min_requests,
            id_prefix=session_id_prefix,
        )
        #: The §3.2 thresholds every session is policed against.
        self.policy = policy_config or PolicyConfig()

    @property
    def registry(self) -> InstrumentationRegistry:
        """The shared probe table."""
        return self._registry

    def handle_request(self, request: Request) -> RequestOutcome:
        """Run the pipeline for one request (response not yet known)."""
        state = self.tracker.observe(request)[0]
        index = state.note_request(request)
        hit = self._registry.match(request)
        if hit is not None:
            state.observe_hit(hit, index)
        verdict = state.verdict()
        return RequestOutcome(
            state, hit, verdict, state.police(request, verdict, self.policy)
        )

    def note_response(self, outcome: RequestOutcome, response: Response) -> None:
        """Record the response for the request handled in ``outcome``."""
        outcome.state.note_response(response, from_beacon=outcome.hit is not None)

    # -- end-of-experiment reductions --------------------------------------

    def finalize(self) -> list[SessionState]:
        """Retire all live sessions and return every analyzable session."""
        self.tracker.finalize_all()
        return self.tracker.analyzable()

    def session_sets(self) -> SessionSets:
        """Set-algebra census over analyzable completed sessions."""
        return SessionSets.from_sessions(self.tracker.analyzable())

    def detection_latencies(self) -> list[DetectionLatency]:
        """Figure 2 samples over analyzable completed sessions."""
        return [
            DetectionLatency.from_state(s) for s in self.tracker.analyzable()
        ]
