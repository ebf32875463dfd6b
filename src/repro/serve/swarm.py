"""Drive the existing agent classes over real sockets.

The simulated engines hand each :class:`~repro.agents.base.FetchAction`
to an in-process handler; the swarm instead renders it as HTTP/1.1
wire bytes, sends it to a live :class:`~repro.serve.server.DetectorServer`
(or anything speaking HTTP on a socket), and feeds the framed response
back into the agent generator.  Agent behaviour — link-following,
robots.txt fetches, beacon loading, think times — is untouched; only
the transport changes.

Client identity: each socket comes from the same local address, so the
swarm carries the agent's simulated ``client_ip`` in ``X-Forwarded-For``
(the server trusts it by default).  That preserves the (IP, User-Agent)
session keys the detectors partition on, making a live run comparable
to a simulated one.

Think times are scaled by ``think_scale`` (default 0: full speed) and
capped, so a week-long simulated session replays against a live socket
in milliseconds while preserving inter-request ordering.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.agents.base import Agent, FetchAction, FetchResult
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response, error_response
from repro.http.uri import Url
from repro.serve.http11 import HttpParseError, read_response
from repro.util.rng import RngStream
from repro.workload.mixes import mix_by_name


@dataclass(frozen=True)
class SwarmConfig:
    """Parameters for one swarm run."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Number of agent sessions to sample from the mix.
    sessions: int = 20
    mix_name: str = "codeen_week"
    seed: int = 2006
    #: Concurrent agent sessions in flight.
    concurrency: int = 16
    #: Multiplier on agent think times (0 disables sleeping entirely).
    think_scale: float = 0.0
    #: Upper bound on one scaled think sleep, in wall seconds.
    think_cap: float = 0.05
    #: Carry the agent's simulated IP in ``X-Forwarded-For``.
    forward_ip: bool = True
    #: Per-session request budget (mirrors ``SessionBudget``).
    max_requests: int = 500
    request_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.sessions < 0:
            raise ValueError("sessions must be non-negative")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.think_scale < 0:
            raise ValueError("think_scale must be non-negative")
        if self.max_requests < 1:
            raise ValueError("max_requests must be >= 1")


@dataclass
class AgentReport:
    """What one agent session did against the live server."""

    client_ip: str
    user_agent: str
    kind: str
    true_label: str
    requests: int = 0
    errors: int = 0
    statuses: dict[int, int] = field(default_factory=dict)


@dataclass
class SwarmResult:
    """All agent reports from one swarm run."""

    reports: list[AgentReport]

    @property
    def requests(self) -> int:
        return sum(r.requests for r in self.reports)

    @property
    def errors(self) -> int:
        return sum(r.errors for r in self.reports)

    def identities(self) -> dict[tuple[str, str], tuple[str, str]]:
        """(client_ip, user_agent) -> (kind, true label).

        Feed this to :meth:`DetectorServer.annotate_ground_truth` so the
        live trace carries the same synthetic ground truth a recorded
        workload would (CLF ``ident``/``authuser`` fields).
        """
        return {
            (r.client_ip, r.user_agent): (r.kind, r.true_label)
            for r in self.reports
        }


def render_request(
    method: Method,
    url: Url,
    headers: Headers,
) -> bytes:
    """Absolute-form HTTP/1.1 request bytes (the CoDeeN proxy idiom)."""
    lines = [f"{method.value} {url} HTTP/1.1", f"Host: {url.host}"]
    for name, value in headers:
        lines.append(f"{name}: {value}")
    if method is Method.POST and "Content-Length" not in headers:
        lines.append("Content-Length: 0")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class _Connection:
    """One keep-alive client connection, reopened on demand."""

    def __init__(self, host: str, port: int) -> None:
        self._host = host
        self._port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self._host, self._port
            )
        assert self._reader is not None and self._writer is not None
        return self._reader, self._writer

    async def round_trip(
        self, wire: bytes, head: bool, timeout: float
    ) -> tuple[int, Headers, bytes]:
        """Send one request, read one response; one reconnect retry."""
        for attempt in (0, 1):
            reader, writer = await self._ensure()
            try:
                writer.write(wire)
                await writer.drain()
                status, headers, body, keep_alive = await asyncio.wait_for(
                    read_response(reader, head=head), timeout
                )
            except (
                ConnectionError,
                asyncio.IncompleteReadError,
                BrokenPipeError,
            ):
                # The server may have closed an idle keep-alive socket
                # between requests; retry exactly once on a fresh one.
                await self.close()
                if attempt:
                    raise
                continue
            if not keep_alive:
                await self.close()
            return status, headers, body
        raise ConnectionResetError("unreachable")  # pragma: no cover

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = None
        self._writer = None


async def _drive_agent(
    agent: Agent, config: SwarmConfig, clock: list[float]
) -> AgentReport:
    """Run one agent's browse() generator against the live socket."""
    report = AgentReport(
        client_ip=agent.client_ip,
        user_agent=agent.user_agent,
        kind=agent.kind,
        true_label=agent.true_label,
    )
    connection = _Connection(config.host, config.port)
    generator = agent.browse()
    try:
        action = next(generator)
    except StopIteration:
        return report
    try:
        while True:
            if config.think_scale and action.think_time:
                await asyncio.sleep(
                    min(
                        action.think_time * config.think_scale,
                        config.think_cap,
                    )
                )
            result, transport_error = await _fetch(
                agent, action, config, connection, clock
            )
            report.requests += 1
            status = result.response.status
            report.statuses[status] = report.statuses.get(status, 0) + 1
            if transport_error:
                report.errors += 1
            if report.requests >= config.max_requests:
                break
            try:
                action = generator.send(result)
            except StopIteration:
                break
    finally:
        generator.close()
        await connection.close()
    return report


async def _fetch(
    agent: Agent,
    action: FetchAction,
    config: SwarmConfig,
    connection: _Connection,
    clock: list[float],
) -> tuple[FetchResult, bool]:
    """One fetch over the socket; the bool flags a transport failure."""
    headers = Headers([("User-Agent", agent.user_agent)])
    if action.referer:
        headers.set("Referer", action.referer)
    for name, value in action.extra_headers:
        headers.set(name, value)
    if config.forward_ip:
        headers.set("X-Forwarded-For", agent.client_ip)

    clock[0] += 1.0
    timestamp = clock[0]
    try:
        url = Url.parse(action.url)
    except ValueError:
        # Mirror SessionCursor._perform: a malformed URL never leaves a
        # real client; answer locally so the agent script continues.
        fallback = Url.parse(agent.entry_url).with_path("/__bad_request__")
        request = Request(
            method=action.method,
            url=fallback,
            client_ip=agent.client_ip,
            headers=headers,
            timestamp=timestamp,
        )
        return FetchResult(request, error_response(400, "malformed URL")), False

    request = Request(
        method=action.method,
        url=url,
        client_ip=agent.client_ip,
        headers=headers,
        timestamp=timestamp,
    )
    wire = render_request(action.method, url, headers)
    head = action.method is Method.HEAD
    try:
        status, response_headers, body = await connection.round_trip(
            wire, head, config.request_timeout
        )
        response = Response(
            status=status, headers=response_headers, body=body
        )
    except (
        ConnectionError,
        OSError,
        asyncio.TimeoutError,
        asyncio.IncompleteReadError,
        HttpParseError,
    ):
        # Transport failure: hand the agent a synthetic 503 so its
        # script can carry on; the report counts it as an error.
        await connection.close()
        return (
            FetchResult(
                request, error_response(503, "swarm transport failure")
            ),
            True,
        )
    return FetchResult(request, response), False


async def run_swarm(config: SwarmConfig, entry_url: str) -> SwarmResult:
    """Sample a population mix and drive every agent over sockets."""
    mix = mix_by_name(config.mix_name)
    agents = mix.sample_many(
        RngStream(config.seed, "serve-swarm"), entry_url, config.sessions
    )
    semaphore = asyncio.Semaphore(config.concurrency)
    clock = [0.0]

    async def bounded(agent: Agent) -> AgentReport:
        async with semaphore:
            return await _drive_agent(agent, config, clock)

    reports = await asyncio.gather(*(bounded(agent) for agent in agents))
    return SwarmResult(reports=list(reports))


def drive_swarm(config: SwarmConfig, entry_url: str) -> SwarmResult:
    """Synchronous wrapper: run the swarm on a private event loop."""
    return asyncio.run(run_swarm(config, entry_url))
