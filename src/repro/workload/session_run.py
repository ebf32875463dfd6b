"""Drive agent sessions against a proxy handler.

The session machinery owns the virtual clock: each yielded
:class:`~repro.agents.base.FetchAction` advances time by its think time,
becomes a concrete :class:`~repro.http.message.Request`, and the handler's
response is sent back into the agent generator.  When feature collection
is on, the Table 2 accumulator is maintained and snapshotted at the
standard checkpoints, producing a ready
:class:`~repro.ml.dataset.SessionExample`.

Two drivers share one stepping core:

* :class:`SessionRunner` runs one agent to completion — the one-agent
  helper the examples and the unit tests use;
* :class:`SessionCursor` exposes the same session one fetch at a time —
  ``next_time`` says when the pending fetch hits the proxy — so the
  interleaved scheduler (:mod:`repro.trace.interleave`), the session
  driver behind :class:`~repro.workload.engine.WorkloadEngine`, can
  heap-order many live sessions by their next event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.agents.base import Agent, FetchResult, SessionBudget
from repro.http.headers import Headers
from repro.http.message import Request, Response, error_response
from repro.http.uri import Url
from repro.ml.dataset import DEFAULT_CHECKPOINTS, HUMAN, ROBOT, SessionExample
from repro.ml.features import FeatureAccumulator

Handler = Callable[[Request], Response]


@dataclass
class SessionRecord:
    """Summary of one driven session."""

    client_ip: str
    user_agent: str
    agent_kind: str
    true_label: str
    started_at: float
    ended_at: float = 0.0
    requests: int = 0
    bytes_received: int = 0
    example: SessionExample | None = None

    @property
    def duration(self) -> float:
        """Virtual seconds from first to last request."""
        return max(0.0, self.ended_at - self.started_at)


class SessionCursor:
    """One live agent session, advanced one fetch at a time.

    Lifecycle: construct, :meth:`begin` (primes the agent; may finish it
    immediately), then :meth:`step` until it returns False.  At any point
    between steps, :attr:`next_time` is the virtual timestamp at which
    the pending fetch will reach the proxy.
    """

    def __init__(
        self,
        agent: Agent,
        start_time: float = 0.0,
        budget: SessionBudget | None = None,
        collect_features: bool = False,
        checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS,
    ) -> None:
        self.agent = agent
        self._budget = budget or SessionBudget()
        self._checkpoints = checkpoints
        self._start = start_time
        self._clock = start_time
        self._generator = agent.browse()
        self._action = None
        self._done = False
        self.record = SessionRecord(
            client_ip=agent.client_ip,
            user_agent=agent.user_agent,
            agent_kind=agent.kind,
            true_label=agent.true_label,
            started_at=start_time,
            ended_at=start_time,
        )
        self._accumulator = (
            FeatureAccumulator() if collect_features else None
        )
        self._example: SessionExample | None = None
        if self._accumulator is not None:
            self._example = SessionExample(
                session_id=f"{agent.client_ip}|{agent.kind}",
                label=HUMAN if agent.true_label == "human" else ROBOT,
                kind=agent.kind,
            )

    @property
    def done(self) -> bool:
        """True once the session has ended (record is final)."""
        return self._done

    @property
    def next_time(self) -> float:
        """Virtual time of the pending fetch (valid while not done)."""
        if self._action is None:
            return self._clock
        return self._clock + self._action.think_time

    def begin(self) -> bool:
        """Prime the agent generator; False when it makes no requests."""
        try:
            self._action = next(self._generator)
        except StopIteration:
            self._finish()
            return False
        return True

    def step(self, handler: Handler) -> bool:
        """Perform the pending fetch; returns False when the session ends."""
        if self._done or self._action is None:
            raise RuntimeError("step() on a finished or unprimed session")
        action = self._action
        record = self.record
        self._clock += action.think_time
        request, response = self._perform(action, handler)
        record.requests += 1
        record.bytes_received += response.size
        record.ended_at = self._clock

        if self._accumulator is not None and self._example is not None:
            self._accumulator.observe(request, response)
            if record.requests in self._checkpoints:
                self._example.snapshots[record.requests] = (
                    self._accumulator.vector()
                )

        if record.requests >= self._budget.max_requests:
            self._finish()
            return False
        if self._clock - self._start >= self._budget.max_duration:
            self._finish()
            return False
        try:
            self._action = self._generator.send(
                FetchResult(request, response)
            )
        except StopIteration:
            self._finish()
            return False
        return True

    def _finish(self) -> None:
        if self._example is not None and self._accumulator is not None:
            self._example.final = self._accumulator.vector()
            self._example.request_count = self.record.requests
        self.record.example = self._example
        self._action = None
        self._done = True

    def _perform(
        self, action, handler: Handler
    ) -> tuple[Request, Response]:
        agent = self.agent
        headers = Headers([("User-Agent", agent.user_agent)])
        if action.referer:
            headers.set("Referer", action.referer)
        for name, value in action.extra_headers:
            headers.set(name, value)
        try:
            url = Url.parse(action.url)
        except ValueError:
            # A malformed URL never leaves the client in reality; answer
            # locally so the agent's script can continue.
            fallback = Url.parse(agent.entry_url).with_path("/__bad_request__")
            request = Request(
                method=action.method,
                url=fallback,
                client_ip=agent.client_ip,
                headers=headers,
                timestamp=self._clock,
            )
            return request, error_response(400, "malformed URL")

        request = Request(
            method=action.method,
            url=url,
            client_ip=agent.client_ip,
            headers=headers,
            timestamp=self._clock,
        )
        return request, handler(request)


class SessionRunner:
    """Runs agents to completion under a budget."""

    def __init__(
        self,
        handler: Handler,
        budget: SessionBudget | None = None,
        collect_features: bool = False,
        checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS,
    ) -> None:
        self._handler = handler
        self._budget = budget or SessionBudget()
        self._collect_features = collect_features
        self._checkpoints = checkpoints

    def cursor(self, agent: Agent, start_time: float = 0.0) -> SessionCursor:
        """A steppable cursor configured like this runner."""
        return SessionCursor(
            agent,
            start_time=start_time,
            budget=self._budget,
            collect_features=self._collect_features,
            checkpoints=self._checkpoints,
        )

    def run(self, agent: Agent, start_time: float = 0.0) -> SessionRecord:
        """Drive ``agent`` from ``start_time``; returns the session record."""
        cursor = self.cursor(agent, start_time)
        if cursor.begin():
            while cursor.step(self._handler):
                pass
        return cursor.record
