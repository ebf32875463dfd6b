"""DetectionService: the full per-request pipeline a proxy node hosts.

Order of operations for each incoming request (mirrors the CoDeeN
deployment):

1. route the request to its <IP, User-Agent> session (idle rotation);
2. match it against the instrumentation registry — beacon fetches are
   answered by the proxy itself and converted into detection events;
3. update the session's verdict;
4. ask the robot policy whether to block.

The service does not forward to the origin or instrument pages — that is
the proxy node's job — it owns *state and judgement*.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.detection.browser_test import BrowserTestDetector
from repro.detection.events import DetectionEvent, EventKind
from repro.detection.hidden_trap import HiddenLinkDetector
from repro.detection.human_activity import HumanActivityDetector
from repro.detection.online import DetectionLatency, OnlineClassifier, OnlineConfig
from repro.detection.policy import PolicyAction, PolicyConfig, PolicyDecision, RobotPolicy
from repro.detection.session import SessionState
from repro.detection.set_algebra import SessionSets
from repro.detection.tracker import SessionTracker
from repro.detection.verdict import Verdict
from repro.http.message import Request, Response
from repro.instrument.keys import BeaconHit, InstrumentationRegistry
from repro.util.timeutil import HOUR


@dataclass
class RequestOutcome:
    """Everything the pipeline concluded about one request."""

    state: SessionState
    session_started: bool
    request_index: int
    hit: BeaconHit | None
    events: list[DetectionEvent] = field(default_factory=list)
    verdict: Verdict | None = None
    decision: PolicyDecision | None = None

    @property
    def blocked(self) -> bool:
        """True when the policy blocked this request."""
        return (
            self.decision is not None
            and self.decision.action is PolicyAction.BLOCK
        )


class DetectionService:
    """Sessions + detectors + verdicts + policy, as one pipeline."""

    def __init__(
        self,
        registry: InstrumentationRegistry,
        idle_timeout: float = HOUR,
        min_requests: int = 10,
        online_config: OnlineConfig | None = None,
        policy_config: PolicyConfig | None = None,
        enforce_policy: bool = True,
        session_id_prefix: str = "sess",
    ) -> None:
        self._registry = registry
        self.tracker = SessionTracker(
            idle_timeout=idle_timeout,
            min_requests=min_requests,
            sink=self._session_retired,
            id_prefix=session_id_prefix,
        )
        self._human_activity = HumanActivityDetector()
        self._browser_test = BrowserTestDetector()
        self._hidden_trap = HiddenLinkDetector()
        self.classifier = OnlineClassifier(online_config)
        self.policy = RobotPolicy(policy_config)
        self._enforce_policy = enforce_policy
        #: Debugging aid, off by default: every event of every request,
        #: kept for the life of the service.  Nothing in the pipeline
        #: reads it — ``RequestOutcome.events`` hands each request's
        #: events to the caller — so switch it on only to inspect a
        #: short run.
        self.keep_event_log = False
        self.event_log: list[DetectionEvent] = []

    @property
    def registry(self) -> InstrumentationRegistry:
        """The shared probe table."""
        return self._registry

    @property
    def enforce_policy(self) -> bool:
        """Whether the robot policy is consulted per request."""
        return self._enforce_policy

    def handle_request(self, request: Request) -> RequestOutcome:
        """Run the pipeline for one request (response not yet known)."""
        state, started = self.tracker.observe(request)
        index = state.note_request(request)

        hit = self._registry.match(request)
        events: list[DetectionEvent] = []
        if started:
            events.append(
                DetectionEvent(
                    kind=EventKind.SESSION_STARTED,
                    session_id=state.session_id,
                    request_index=index,
                    timestamp=request.timestamp,
                    detail=str(state.key),
                )
            )
        if hit is not None:
            for detector in (
                self._human_activity,
                self._browser_test,
                self._hidden_trap,
            ):
                events.extend(
                    detector.observe_hit(state, hit, index, request.timestamp)
                )

        verdict = self.classifier.classify(state)
        decision = None
        if self._enforce_policy:
            decision = self.policy.evaluate(state, verdict, request)

        if self.keep_event_log:
            self.event_log.extend(events)
        return RequestOutcome(
            state=state,
            session_started=started,
            request_index=index,
            hit=hit,
            events=events,
            verdict=verdict,
            decision=decision,
        )

    def note_response(self, outcome: RequestOutcome, response: Response) -> None:
        """Record the response for the request handled in ``outcome``."""
        outcome.state.note_response(response, from_beacon=outcome.hit is not None)

    def note_captcha(
        self, state: SessionState, passed: bool, timestamp: float
    ) -> DetectionEvent:
        """Record a CAPTCHA result against a session."""
        kind = EventKind.CAPTCHA_PASSED if passed else EventKind.CAPTCHA_FAILED
        if passed:
            state.mark_first("captcha_passed_at", state.request_count)
        event = DetectionEvent(
            kind=kind,
            session_id=state.session_id,
            request_index=state.request_count,
            timestamp=timestamp,
        )
        if self.keep_event_log:
            self.event_log.append(event)
        return event

    def _session_retired(self, state: SessionState) -> None:
        # Tracker sink: a retired session's id is never issued again, so
        # its watch entry could only leak.  A bound method, not a
        # lambda: services are pickled to process lanes.
        self.policy.forget(state.session_id)

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
