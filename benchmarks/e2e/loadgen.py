"""The benchmark's load generator: record a script once, replay its bytes.

Driving the repo's agent classes costs more CPU than serving them (they
parse every page they fetch), so the measured phase never runs an agent.
:func:`record_script` drives the sampled agents once, one session after
another, against a reference deployment and keeps for every request the
exact wire bytes plus the status and body length that came back.
:func:`play_script` then replays those bytes over loopback TCP with the
smallest client that can frame a response — write, find the header end,
count ``Content-Length`` bytes — one keep-alive connection per session,
one request in flight, zero think time.

Replaying bytes recorded against another deployment instance is sound
because a response depends only on the client's own request history:
probe keys are derived from ``(client_ip, per-client page sequence)``
and sessions are played in recording order.  Every replayed response is
checked against the recorded status and body length, so a deployment
that answered differently shows up as failed operations, never as a
quietly different workload.

:func:`measure_floor` plays the same script against a canned-bytes
responder defined here (no proxy, no detection): what it measures is the
client, asyncio and loopback — the floor under every live number.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable

from repro.agents.base import Agent, FetchResult
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response, error_response
from repro.http.uri import Url
from repro.serve.http11 import read_response
from repro.serve.swarm import render_request

_HEADER_END = b"\r\n\r\n"


@dataclass(frozen=True)
class ScriptedRequest:
    """One recorded exchange: the bytes to send, the answer to expect."""

    wire: bytes
    #: A HEAD request: the response declares ``body_len`` but sends none.
    head: bool
    status: int
    body_len: int


@dataclass
class Script:
    """Every session's requests in play order, plus who played them."""

    sessions: list[list[ScriptedRequest]] = field(default_factory=list)
    #: (client_ip, user_agent) -> (agent kind, true label), the ground
    #: truth ``DetectorServer.annotate_ground_truth`` takes.
    identities: dict[tuple[str, str], tuple[str, str]] = field(
        default_factory=dict
    )

    def requests(self) -> Iterable[ScriptedRequest]:
        for session in self.sessions:
            yield from session

    @property
    def n_requests(self) -> int:
        return sum(len(session) for session in self.sessions)


# -- recording ---------------------------------------------------------------


async def record_script(
    agents: list[Agent], host: str, port: int, max_requests: int
) -> Script:
    """Drive each agent's ``browse()`` once over a socket, in order."""
    script = Script()
    for agent in agents:
        script.sessions.append(
            await _record_session(agent, host, port, max_requests)
        )
        script.identities[(agent.client_ip, agent.user_agent)] = (
            agent.kind,
            agent.true_label,
        )
    # A session that sent nothing opens no connection when replayed.
    script.sessions = [session for session in script.sessions if session]
    return script


async def _record_session(
    agent: Agent, host: str, port: int, max_requests: int
) -> list[ScriptedRequest]:
    recorded: list[ScriptedRequest] = []
    generator = agent.browse()
    try:
        action = next(generator)
    except StopIteration:
        return recorded
    reader, writer = await asyncio.open_connection(host, port)
    try:
        while True:
            headers = Headers([("User-Agent", agent.user_agent)])
            if action.referer:
                headers.set("Referer", action.referer)
            for name, value in action.extra_headers:
                headers.set(name, value)
            headers.set("X-Forwarded-For", agent.client_ip)
            try:
                url = Url.parse(action.url)
            except ValueError:
                # A malformed URL never leaves a real client: answer it
                # locally so the agent carries on, and script nothing.
                url = Url.parse(agent.entry_url).with_path("/__bad_request__")
                response = error_response(400, "malformed URL")
            else:
                wire = render_request(action.method, url, headers)
                head = action.method is Method.HEAD
                writer.write(wire)
                await writer.drain()
                status, response_headers, body, keep_alive = (
                    await read_response(reader, head=head)
                )
                if not keep_alive:
                    raise RuntimeError(
                        "the reference deployment closed a session's "
                        f"connection after {wire[:80]!r}: scripted "
                        "sessions hold one keep-alive connection"
                    )
                # The declared length, which a HEAD response carries too.
                declared = int(response_headers.get("Content-Length", "0"))
                recorded.append(ScriptedRequest(wire, head, status, declared))
                response = Response(
                    status=status, headers=response_headers, body=body
                )
            if len(recorded) >= max_requests:
                break
            request = Request(
                method=action.method,
                url=url,
                client_ip=agent.client_ip,
                headers=headers,
                timestamp=float(len(recorded)),
            )
            try:
                action = generator.send(FetchResult(request, response))
            except StopIteration:
                break
    finally:
        generator.close()
        writer.close()
        await writer.wait_closed()
    return recorded


# -- replay ------------------------------------------------------------------


@dataclass
class Playback:
    """What one pass over a script measured.

    ``ends[0]`` is the instant the pass began; ``ends[i + 1]`` the
    instant the last byte of response ``i`` was read, so consecutive
    differences are the per-request cycle times (a session's first
    cycle includes its connect).  ``sent[i]`` is when request ``i``'s
    first byte was written.
    """

    ends: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    #: Responses whose status or body length differed from the script,
    #: plus requests lost to a transport error.
    failed: int = 0
    bytes_received: int = 0
    #: Called with the index of the request whose cycle is starting.
    on_cycle: Callable[[int], None] | None = None


class _SessionConnection(asyncio.Protocol):
    """Plays one session over one connection, driven by its callbacks."""

    def __init__(
        self,
        session: list[ScriptedRequest],
        playback: Playback,
        finished: asyncio.Future,
    ) -> None:
        self._session = session
        self._playback = playback
        self._finished = finished
        self._position = 0
        self._buffer = bytearray()
        self._need = -1
        self._answer = (0, 0)
        self._transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._send()

    def _send(self) -> None:
        self._playback.sent.append(perf_counter())
        self._transport.write(self._session[self._position].wire)

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        expected = self._session[self._position]
        if self._need < 0:
            end = buffer.find(_HEADER_END)
            if end < 0:
                return
            head = bytes(buffer[:end]).lower()
            mark = head.find(b"content-length:")
            length = (
                int(head[mark + 15 :].split(b"\r", 1)[0]) if mark >= 0 else 0
            )
            self._answer = (int(head[9:12]), length)
            self._need = end + 4 + (0 if expected.head else length)
        if len(buffer) < self._need:
            return
        playback = self._playback
        playback.ends.append(perf_counter())
        playback.bytes_received += len(buffer)
        if (
            self._answer != (expected.status, expected.body_len)
            or len(buffer) != self._need
        ):
            playback.failed += 1
        buffer.clear()
        self._need = -1
        self._position += 1
        if playback.on_cycle is not None:
            playback.on_cycle(len(playback.sent))
        if self._position < len(self._session):
            self._send()
        else:
            self._transport.close()
            self._finished.set_result(None)

    def connection_lost(self, exc) -> None:
        if not self._finished.done():
            # Closed mid-session: every unanswered request failed.  The
            # clocks still need one entry per request to stay aligned.
            playback = self._playback
            missing = len(self._session) - self._position
            playback.failed += missing
            now = perf_counter()
            playback.ends.extend([now] * missing)
            playback.sent.extend([now] * (missing - 1))
            self._finished.set_result(None)


async def play_script(
    script: Script,
    host: str,
    port: int,
    on_cycle: Callable[[int], None] | None = None,
) -> Playback:
    """Replay every session's bytes: closed loop, one request in flight."""
    loop = asyncio.get_running_loop()
    playback = Playback(on_cycle=on_cycle)
    if on_cycle is not None:
        on_cycle(0)
    playback.ends.append(perf_counter())
    for session in script.sessions:
        finished = loop.create_future()
        connection = _SessionConnection(session, playback, finished)
        try:
            await loop.create_connection(lambda: connection, host, port)
        except OSError:
            playback.failed += len(session)
            now = perf_counter()
            playback.ends.extend([now] * len(session))
            playback.sent.extend([now] * len(session))
            continue
        await finished
    return playback


# -- the floor ---------------------------------------------------------------


def _canned_response(request: ScriptedRequest) -> bytes:
    head = (
        f"HTTP/1.1 {request.status} Canned\r\n"
        f"Content-Length: {request.body_len}\r\n"
        "Connection: keep-alive\r\n\r\n"
    ).encode("latin-1")
    return head if request.head else head + bytes(request.body_len)


class _CannedResponder(asyncio.Protocol):
    """Answers each framed request with the next pre-rendered response."""

    def __init__(self, responses) -> None:
        self._responses = responses
        self._buffer = bytearray()
        self._transport: asyncio.Transport | None = None

    def connection_made(self, transport) -> None:
        self._transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        while True:
            end = buffer.find(_HEADER_END)
            if end < 0:
                return
            del buffer[: end + 4]
            self._transport.write(next(self._responses))


async def measure_floor(script: Script, host: str = "127.0.0.1") -> Playback:
    """Play the script against the canned responder (no system under test).

    The responder returns, for request ``i``, a response with the
    recorded status and body length, so the pass moves the same bytes
    over loopback as a live trial does.
    """
    loop = asyncio.get_running_loop()
    responses = iter([_canned_response(r) for r in script.requests()])
    server = await loop.create_server(
        lambda: _CannedResponder(responses), host, 0
    )
    try:
        port = server.sockets[0].getsockname()[1]
        return await play_script(script, host, port)
    finally:
        server.close()
        await server.wait_closed()
