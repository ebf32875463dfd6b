"""Session tracking: <IP, User-Agent> grouping with the 1-hour idle rule."""

from __future__ import annotations

from repro.detection.session import SessionKey, SessionState
from repro.http.message import Request
from repro.util.ids import IdGenerator
from repro.util.timeutil import HOUR


class SessionTracker:
    """Maintains live sessions and retires idle ones.

    Completed (idle-expired or explicitly finalized) sessions are kept in
    :attr:`completed`; a retired session's state, its §3.2 watch and
    block included, goes with it.
    """

    def __init__(
        self,
        idle_timeout: float = HOUR,
        min_requests: int = 10,
        id_prefix: str = "sess",
    ) -> None:
        if idle_timeout <= 0:
            raise ValueError("idle_timeout must be positive")
        if min_requests < 0:
            raise ValueError("min_requests must be non-negative")
        self._idle_timeout = idle_timeout
        self._min_requests = min_requests
        self._live: dict[SessionKey, SessionState] = {}
        self._ids = IdGenerator(id_prefix)
        self.completed: list[SessionState] = []
        self._total_started = 0

    @property
    def idle_timeout(self) -> float:
        """Seconds of inactivity after which a session ends."""
        return self._idle_timeout

    @property
    def min_requests(self) -> int:
        """Sessions at or below this request count are noise (§3: > 10)."""
        return self._min_requests

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
        key = SessionKey(request.client_ip, request.user_agent)
        state = self._live.get(key)
        started = False
        if state is not None and (
            request.timestamp - state.last_request_at > self._idle_timeout
        ):
            self._retire(state)
            state = None
        if state is None:
            state = SessionState(
                session_id=self._ids.next(),
                key=key,
                started_at=request.timestamp,
                last_request_at=request.timestamp,
            )
            self._live[key] = state
            self._total_started += 1
            started = True
        return state, started

    def get(self, client_ip: str, user_agent: str) -> SessionState | None:
        """Look up the live session for a key, if any."""
        return self._live.get(SessionKey(client_ip, user_agent))

    def expire_idle(self, now: float) -> list[SessionState]:
        """Retire every session idle for longer than the timeout."""
        expired = [
            state
            for state in self._live.values()
            if now - state.last_request_at > self._idle_timeout
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
        """Completed sessions above the noise threshold (> min_requests)."""
        return [
            s for s in self.completed if s.request_count > self._min_requests
        ]

    def _retire(self, state: SessionState) -> None:
        self._live.pop(state.key, None)
        self.completed.append(state)
