"""Session tracking: <IP, User-Agent> grouping with the 1-hour idle rule."""

from __future__ import annotations

from repro.detection.session import SessionKey, SessionState
from repro.http.message import Request
from repro.util.ids import IdGenerator
from repro.util.timeutil import HOUR

#: §3: a session is a stream "that has not been idle for more than an
#: hour".
IDLE_TIMEOUT = HOUR
#: §3: the analysis "only consider[s] sessions that have sent more than
#: 10 requests".
NOISE_FLOOR = 10


class SessionTracker:
    """Maintains live sessions and retires idle ones.

    Completed (idle-expired or explicitly finalized) sessions are kept in
    :attr:`completed`; a retired session's state, its §3.2 watch and
    block included, goes with it, and so do its Table 2 attributes
    (``features``): the tracker alone decides how long a session's
    scoring state lives.
    """

    def __init__(self, id_prefix: str = "sess") -> None:
        #: Keyed by the plain ``(client_ip, user_agent)`` tuple, which a
        #: :class:`SessionKey` equals and hashes as.
        self._live: dict[tuple[str, str], SessionState] = {}
        self._ids = IdGenerator(id_prefix)
        self.completed: list[SessionState] = []
        self._total_started = 0

    @property
    def live_count(self) -> int:
        """Number of currently live sessions."""
        return len(self._live)

    @property
    def total_started(self) -> int:
        """Number of sessions ever started."""
        return self._total_started

    def observe(self, request: Request) -> tuple[SessionState, bool]:
        """Route a request to its session, rotating idle ones.

        Returns ``(state, started)`` where ``started`` is True when this
        request opened a new session.
        """
        key = (request.client_ip, request.user_agent)
        state = self._live.get(key)
        started = False
        if state is not None and (
            request.timestamp - state.last_request_at > IDLE_TIMEOUT
        ):
            self._retire(state)
            state = None
        if state is None:
            state = SessionState(
                session_id=self._ids.next(),
                key=SessionKey(*key),
                started_at=request.timestamp,
                last_request_at=request.timestamp,
            )
            self._live[key] = state
            self._total_started += 1
            started = True
        return state, started

    def get(self, client_ip: str, user_agent: str) -> SessionState | None:
        """Look up the live session for a key, if any."""
        return self._live.get((client_ip, user_agent))

    def expire_idle(self, now: float) -> list[SessionState]:
        """Retire every session idle for longer than the timeout."""
        expired = [
            state
            for state in self._live.values()
            if now - state.last_request_at > IDLE_TIMEOUT
        ]
        for state in expired:
            self._retire(state)
        return expired

    def finalize_all(self) -> list[SessionState]:
        """Retire every live session (end of experiment)."""
        remaining = list(self._live.values())
        for state in remaining:
            self._retire(state)
        return remaining

    def analyzable(self) -> list[SessionState]:
        """Completed sessions above the noise floor (> NOISE_FLOOR)."""
        return [s for s in self.completed if s.request_count > NOISE_FLOOR]

    def _retire(self, state: SessionState) -> None:
        self._live.pop(state.key, None)
        state.features = None
        self.completed.append(state)
