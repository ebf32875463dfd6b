"""The per-session detection state machine of §2-§3.

§3 defines a session as "a stream of HTTP requests and responses
associated with a unique <IP, User-Agent> pair, that has not been idle for
more than an hour", and the analysis "only consider[s] sessions that have
sent more than 10 requests".

One :class:`SessionState` holds everything the detector knows and decides
about one session:

* **evidence** — the 1-based request index at which each signal *first*
  fired (:meth:`SessionState.observe_hit`, one dispatch on the probe
  kind).  These indices are the Figure 2 samples:

  - valid keyed mouse-image fetch  -> human activity (§2.1);
  - wrong-key (decoy) mouse fetch  -> blind-fetching robot;
  - CSS-beacon fetch               -> standard-browser behaviour (§2.2);
  - UA-probe fetch                 -> JavaScript executed, and a forgery
    check of the echoed agent against the User-Agent header;
  - hidden-trap page fetch         -> crawler (the trap *image* is
    ordinary rendering and is no evidence);
* **verdicts** — :meth:`SessionState.verdict` on a live session and
  :meth:`SessionState.final_verdict` at its end;
* **§3.2 staging** — "after we classify a session to belong to a robot,
  we further analyzed its behavior (by checking CGI request rate, GET
  request rate, error response codes, etc.), and blocked its traffic as
  soon as its behavior deviated from predefined thresholds"
  (:meth:`SessionState.police`).  A block lasts until the session ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

from repro.detection.verdict import Label, Verdict
from repro.http.content import ContentKind
from repro.http.message import Method, Request, Response
from repro.http.status import StatusClass
from repro.instrument.keys import BeaconHit, BeaconKind
from repro.instrument.ua_probe import sanitize_user_agent
from repro.util.timeutil import MINUTE

if TYPE_CHECKING:
    from repro.ml.features import FeatureAccumulator

#: Requests without browser-like evidence after which a live session is
#: tentatively a robot (the set algebra labels "all other sessions"
#: robots).
MIN_REQUESTS = 10
#: Requests after JavaScript execution to wait for a mouse event before
#: tentatively calling a live session a robot; the offline analysis
#: applies the same rule at session end with an infinite horizon.
JS_NO_MOUSE_GRACE = 30

_WRONG_KEY = "fetched beacon URL with wrong key"
_HIDDEN_LINK = "followed hidden link"
_UA_MISMATCH = "User-Agent header contradicts JavaScript echo"
_MOUSE = "correctly keyed mouse event"

# The members the per-request updates compare against, read once (on
# CPython 3.11 an ``Enum.MEMBER`` read is a class lookup); an unpacked
# enum yields its members in definition order.
_GET, _HEAD, _POST = Method
_, _SUCCESS, _REDIRECT, _CLIENT_ERROR, _SERVER_ERROR = StatusClass
_BEACON_JS, _MOUSE_IMAGE, _CSS_BEACON, _TRAP_PAGE, _, _UA_PROBE = BeaconKind
_HUMAN, _ROBOT, _UNDECIDED = Label
_CGI = ContentKind.CGI


class SessionKey(NamedTuple):
    """The <IP, User-Agent> pair that identifies a session.

    A named tuple: equal to, and hashed as, the plain
    ``(client_ip, user_agent)`` tuple the tracker routes requests by.
    """

    client_ip: str
    user_agent: str

    def __str__(self) -> str:
        agent = self.user_agent if len(self.user_agent) <= 40 else (
            self.user_agent[:37] + "..."
        )
        return f"<{self.client_ip}, {agent}>"


@dataclass(frozen=True)
class PolicyConfig:
    """§3.2 thresholds for a robot-labelled session (per minute)."""

    cgi_rate_limit: float = 10.0
    get_rate_limit: float = 120.0
    error_4xx_limit: int = 15

    def __post_init__(self) -> None:
        if self.cgi_rate_limit <= 0 or self.get_rate_limit <= 0:
            raise ValueError("rate limits must be positive")
        if self.error_4xx_limit < 1:
            raise ValueError("error_4xx_limit must be >= 1")


@dataclass(slots=True)
class SessionState:
    """Everything the detector remembers and decides about one session.

    Slotted: a server holds one per live client, and on CPython 3.11 an
    instance of 30 or more attributes gets an unshared ``__dict__``,
    ~1.3 KiB more each.
    """

    session_id: str
    key: SessionKey
    started_at: float
    last_request_at: float = 0.0
    request_count: int = 0

    # -- evidence (first-occurrence request indices) -----------------------
    css_beacon_at: int | None = None
    beacon_js_at: int | None = None
    js_executed_at: int | None = None
    mouse_event_at: int | None = None
    hidden_link_at: int | None = None
    ua_mismatch_at: int | None = None
    captcha_passed_at: int | None = None
    wrong_key_fetches: int = 0

    # -- aggregate counters (cheap; always maintained) ---------------------
    head_requests: int = 0
    get_requests: int = 0
    post_requests: int = 0
    cgi_requests: int = 0
    status_2xx: int = 0
    status_3xx: int = 0
    status_4xx: int = 0
    status_5xx: int = 0
    bytes_served: int = 0
    beacon_bytes_served: int = 0

    # -- §3.2 watch: exponentially decayed per-minute rates while the
    # session is labelled a robot, the time of the last watched request
    # (None = not watched; 0.0 is a time), and the reason it was blocked
    # ("" = not blocked).
    cgi_rate: float = 0.0
    get_rate: float = 0.0
    rates_at: float | None = None
    block_reason: str = ""

    # Ground truth for evaluation only — set by the workload generator,
    # never read by any detector.
    true_label: str = ""
    agent_kind: str = ""

    # The §4.2 Table 2 attributes while the session is live: made by the
    # lane's micro-batcher on the first scored exchange, dropped (set to
    # None) by the tracker when it retires the session.
    features: FeatureAccumulator | None = field(
        default=None, repr=False, compare=False
    )

    # -- membership predicates used by the set algebra ---------------------

    @property
    def in_css_set(self) -> bool:
        """S_CSS: downloaded the beacon CSS file."""
        return self.css_beacon_at is not None

    @property
    def in_js_set(self) -> bool:
        """S_JS: executed the embedded JavaScript (UA probe fetched)."""
        return self.js_executed_at is not None

    @property
    def in_mouse_set(self) -> bool:
        """S_MM: produced a correctly keyed mouse-event fetch."""
        return self.mouse_event_at is not None

    @property
    def followed_hidden_link(self) -> bool:
        """Fetched a hidden-trap page."""
        return self.hidden_link_at is not None

    @property
    def ua_mismatched(self) -> bool:
        """JavaScript-echoed UA disagreed with the UA header."""
        return self.ua_mismatch_at is not None

    @property
    def passed_captcha(self) -> bool:
        """Solved the optional CAPTCHA."""
        return self.captcha_passed_at is not None

    @property
    def is_human_by_set_algebra(self) -> bool:
        """Membership in S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)."""
        in_union = self.in_css_set or self.in_mouse_set
        in_js_only = self.in_js_set and not self.in_mouse_set
        return in_union and not in_js_only

    # -- updates ------------------------------------------------------------

    def note_request(self, request: Request) -> int:
        """Record an incoming request; returns its 1-based index."""
        self.request_count += 1
        self.last_request_at = request.timestamp
        method = request.method
        if method is _HEAD:
            self.head_requests += 1
        elif method is _POST:
            self.post_requests += 1
        else:
            self.get_requests += 1
        if request.path_kind is _CGI:
            self.cgi_requests += 1
        return self.request_count

    def observe_hit(self, hit: BeaconHit, index: int) -> None:
        """Turn the registry hit of request ``index`` into evidence.

        Step 4 of §2.1: "The server finds the entry for the client IP,
        and checks if k in the URL matches. If so, it classifies the
        session as human. If the k does not match ... it is classified
        as a robot."  Every index records the *first* fetch only.
        """
        probe = hit.probe
        kind = probe.kind
        if kind is _MOUSE_IMAGE:
            if not probe.is_real_key:
                self.wrong_key_fetches += 1
            elif self.mouse_event_at is None:
                self.mouse_event_at = index
        elif kind is _CSS_BEACON:
            if self.css_beacon_at is None:
                self.css_beacon_at = index
        elif kind is _UA_PROBE:
            if self.js_executed_at is None:
                self.js_executed_at = index
            # An empty echo is no claim, so it cannot contradict one.
            echoed = hit.echoed_user_agent
            if (
                echoed
                and self.ua_mismatch_at is None
                and echoed != sanitize_user_agent(self.key.user_agent)
            ):
                self.ua_mismatch_at = index
        elif kind is _BEACON_JS:
            if self.beacon_js_at is None:
                self.beacon_js_at = index
        elif kind is _TRAP_PAGE:
            if self.hidden_link_at is None:
                self.hidden_link_at = index

    def note_response(self, response: Response, from_beacon: bool = False) -> None:
        """Record the response paired with the latest request."""
        klass = response.status_class
        if klass is _SUCCESS:
            self.status_2xx += 1
        elif klass is _REDIRECT:
            self.status_3xx += 1
        elif klass is _CLIENT_ERROR:
            self.status_4xx += 1
        elif klass is _SERVER_ERROR:
            self.status_5xx += 1
        self.bytes_served += response.size
        if from_beacon:
            self.beacon_bytes_served += response.size

    def note_captcha(self, passed: bool) -> None:
        """Record a CAPTCHA result (a pass is human evidence)."""
        if passed and self.captcha_passed_at is None:
            self.captcha_passed_at = self.request_count

    # -- verdicts -------------------------------------------------------------

    def _robot_evidence(self) -> str | None:
        """The hard robot evidence, strongest first (None = none)."""
        if self.wrong_key_fetches:
            return _WRONG_KEY
        if self.hidden_link_at is not None:
            return _HIDDEN_LINK
        if self.ua_mismatch_at is not None:
            return _UA_MISMATCH
        return None

    def verdict(self) -> Verdict:
        """The online verdict after the latest request.

        The paper's two schemes differ in speed and accuracy (§3.1):
        "the standard browser testing is a quick method to get results,
        while human activity detection will provide more accurate results
        provided a reasonable amount of data".  The decision order:

        1. hard robot evidence -> definitive ROBOT;
        2. a correctly keyed mouse event, or a passed CAPTCHA ->
           definitive HUMAN;
        3. JavaScript executed and no mouse event within
           :data:`JS_NO_MOUSE_GRACE` requests -> tentative ROBOT;
        4. CSS beacon fetched -> tentative HUMAN;
        5. UNDECIDED until :data:`MIN_REQUESTS`, then tentative ROBOT.
        """
        n = self.request_count
        reason = self._robot_evidence()
        if reason is not None:
            return Verdict(_ROBOT, reason, True, n)
        if self.mouse_event_at is not None:
            return Verdict(_HUMAN, _MOUSE, True, self.mouse_event_at)
        if self.captcha_passed_at is not None:
            return Verdict(_HUMAN, "passed CAPTCHA", True, self.captcha_passed_at)
        if (
            self.js_executed_at is not None
            and n - self.js_executed_at >= JS_NO_MOUSE_GRACE
        ):
            return Verdict(
                _ROBOT, "executed JavaScript but produced no mouse event", False, n
            )
        if self.css_beacon_at is not None:
            return Verdict(
                _HUMAN, "downloaded beacon CSS (standard browser pattern)",
                False, self.css_beacon_at,
            )
        if n >= MIN_REQUESTS:
            return Verdict(
                _ROBOT, "no browser-like evidence after minimum requests", False, n
            )
        return Verdict(_UNDECIDED, "insufficient requests", False, n)

    def final_verdict(self) -> Verdict:
        """Session-end verdict: the set algebra, hard evidence first."""
        n = self.request_count
        reason = self._robot_evidence()
        if reason is not None:
            return Verdict(_ROBOT, reason, definitive=True, at_request=n)
        if self.mouse_event_at is not None:
            return Verdict(
                _HUMAN, _MOUSE,
                definitive=True, at_request=self.mouse_event_at,
            )
        if self.is_human_by_set_algebra:
            return Verdict(
                _HUMAN, "in S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)",
                at_request=n,
            )
        return Verdict(_ROBOT, "outside S_H", at_request=n)

    # -- §3.2 staging ----------------------------------------------------------

    def police(
        self, request: Request, verdict: Verdict, config: PolicyConfig
    ) -> bool:
        """Watch a robot-labelled session; True when ``request`` is blocked.

        A HUMAN verdict drops the watch (its rates restart from zero if
        the session is labelled a robot again); an UNDECIDED one leaves
        it be.  Once a threshold trips the session stays blocked until
        it ends, whatever its later verdicts.
        """
        if self.block_reason:
            return True
        label = verdict.label
        if label is not _ROBOT:
            if label is _HUMAN:
                self.cgi_rate = self.get_rate = 0.0
                self.rates_at = None
            return False
        now = request.timestamp
        if self.rates_at is not None:
            decay = math.exp(-max(0.0, now - self.rates_at) / MINUTE)
            self.cgi_rate *= decay
            self.get_rate *= decay
        self.rates_at = now
        if request.path_kind is _CGI:
            self.cgi_rate += 1.0
        if request.method is _GET:
            self.get_rate += 1.0
        reason = self._tripped(config)
        if reason is None:
            return False
        self.block_reason = reason
        return True

    def _tripped(self, config: PolicyConfig) -> str | None:
        if self.wrong_key_fetches:
            return "wrong-key beacon fetches >= 1"
        if self.cgi_rate > config.cgi_rate_limit:
            return (
                f"CGI request rate {self.cgi_rate:.1f}/min exceeds "
                f"{config.cgi_rate_limit:.0f}/min"
            )
        if self.get_rate > config.get_rate_limit:
            return (
                f"GET request rate {self.get_rate:.1f}/min exceeds "
                f"{config.get_rate_limit:.0f}/min"
            )
        if self.status_4xx >= config.error_4xx_limit:
            return f"4xx responses >= {config.error_4xx_limit}"
        return None


@dataclass(frozen=True)
class DetectionLatency:
    """Figure 2 samples for one session: first-evidence request indices."""

    session_id: str
    css_at: int | None
    beacon_js_at: int | None
    mouse_at: int | None

    @classmethod
    def from_state(cls, state: SessionState) -> "DetectionLatency":
        """Extract the latency sample from a finished session."""
        return cls(
            session_id=state.session_id,
            css_at=state.css_beacon_at,
            beacon_js_at=state.beacon_js_at,
            mouse_at=state.mouse_event_at,
        )
