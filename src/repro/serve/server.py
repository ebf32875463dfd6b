"""The live front door: a proxy network behind an ``asyncio.Protocol``.

:class:`DetectorServer` mounts an existing
:class:`~repro.proxy.network.ProxyNetwork` — instrumentation rewriter,
admission, sharded detection, CAPTCHA policy and all — on a real
listening socket.  There is one request path and it runs on the event
loop: a connection appends received bytes to its buffer,
:func:`~repro.serve.http11.parse_request` frames a request from it, the
request is stamped onto the server's virtual clock, admitted, handled by
its sticky node *inline* and answered with one ``transport.write``.
Nothing is allocated per request beyond the wake-up future: each
connection has one serving task, one idle timer and one buffer.  Node
state needs no synchronisation because only the loop thread touches it.

Determinism across the socket boundary: timestamps are strictly
increasing microseconds, and stamping and handling a request are one
synchronous call, so stamp order *is* handling order — sorting the live
CLF log reproduces exactly the per-node order the live run used, and
replaying the log through a fresh network yields the same census and
verdict set (the record→replay invariance, now bridged over TCP).  To
keep that bridge intact the trace logs only requests that reached a
node: admission sheds, handler failures and the server-local CAPTCHA
endpoints are counted in metrics but stay out of the log (the same
out-of-band funnel the record CLI documents).

Admission is the pipeline's own :class:`~repro.overload.admission.Admission`,
one lane per node.  Nothing ever waits *inside* a node, so the backlog
``SHED`` and ``ADAPTIVE`` act on is what waits in front of the loop:
connections whose bytes have arrived (one ``select`` can return many)
and whose request has not been dispatched yet, plus the request being
admitted.  Each request's handle time feeds the lane's service
estimate.

Client identity: every socket shows the peer address, and that address
is the client unless the peer is one of ``ServeConfig.trusted_proxies``
(loopback by default — the swarm, or a fronting load balancer on the
same host), whose ``X-Forwarded-For`` names the real client.  Any other
peer's header is dropped unread: a direct client cannot speak for
another IP.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.captcha.challenge import CHALLENGE_PATH
from repro.detection.verdict import Label
from repro.http.headers import Headers
from repro.http.message import (
    Method,
    Request,
    Response,
    error_response,
    html_response,
)
from repro.obs.sockets import ServeMetrics
from repro.overload.admission import AdaptiveConfig, Admission, ShedPolicy
from repro.serve.http11 import (
    Http11Limits,
    HttpParseError,
    ParsedRequest,
    read_request,
    render_response,
)
from repro.trace.clf import (
    TraceRecord,
    format_clf_line,
    open_trace_file,
    write_trace,
)
from repro.trace.recorder import TraceRecorder, write_probe_journal

if TYPE_CHECKING:
    from repro.instrument.keys import RegisteredProbe
    from repro.overload.ladder import LadderConfig
    from repro.proxy.network import ProxyNetwork

#: Server-local CAPTCHA verification endpoint (the challenge page posts
#: here); lives next to the ladder's CHALLENGE_PATH redirect target.
VERIFY_PATH = "/__captcha__/verify"

#: The token a solver must echo back.  A stand-in for a distorted-text
#: test: the *transport* of the funnel is real, the puzzle is not.
_CHALLENGE_TOKEN = "not-a-robot"

_CHALLENGE_PAGE = f"""<html><body>
<h1>Are you human?</h1>
<form method="POST" action="{VERIFY_PATH}">
<p>Type <b>{_CHALLENGE_TOKEN}</b> to continue:</p>
<input name="answer" autofocus>
<button>Submit</button>
</form>
</body></html>"""

#: Bytes a connection buffers behind a stalled response before it stops
#: reading the socket (reading resumes once the parser asks for more).
_READ_AHEAD = 1 << 16

_logger = logging.getLogger(__name__)
_HEAD = Method.HEAD


@dataclass(frozen=True)
class ServeConfig:
    """Front-door parameters."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Idle seconds before a keep-alive connection is dropped.
    keep_alive_timeout: float = 15.0
    max_requests_per_connection: int = 1000
    #: Peer addresses whose ``X-Forwarded-For`` names the client (a
    #: fronting proxy); every other peer is the client itself.
    trusted_proxies: frozenset[str] = frozenset({"127.0.0.1", "::1"})
    #: Live CLF access log (``.gz`` compresses); None keeps it in
    #: memory only (``server.records``).
    trace_path: str | None = None
    #: Probe journal written at close; None skips it.
    probes_path: str | None = None
    #: Admission policy (a :class:`ShedPolicy` or its value): BLOCK
    #: admits everything (the queue is the kernel's: unread sockets),
    #: SHED refuses (503) once a node's backlog passes
    #: ``max_pending_per_node``, ADAPTIVE runs the delay-budget
    #: controller per node lane, tuned by ``adaptive``.
    policy: ShedPolicy = ShedPolicy.BLOCK
    max_pending_per_node: int = 64
    adaptive: AdaptiveConfig | None = None
    #: Enable the graduated response ladder on every node, escalated
    #: from live detection verdicts; the CAPTCHA endpoints feed
    #: exonerations/condemnations back per client IP.
    ladder: "LadderConfig | None" = None
    #: Wall seconds between node housekeeping sweeps (0 disables).
    housekeeping_interval: float = 600.0
    limits: Http11Limits = field(default_factory=Http11Limits)

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", ShedPolicy(self.policy))
        adaptive = self.policy is ShedPolicy.ADAPTIVE
        if self.adaptive is not None and not adaptive:
            raise ValueError(
                "adaptive admission tuning requires policy='adaptive'"
            )
        if self.keep_alive_timeout <= 0:
            raise ValueError("keep_alive_timeout must be positive")
        if self.max_requests_per_connection < 1:
            raise ValueError("max_requests_per_connection must be >= 1")
        if self.max_pending_per_node < 1:
            raise ValueError("max_pending_per_node must be >= 1")
        if self.housekeeping_interval < 0:
            raise ValueError("housekeeping_interval must be non-negative")


class _Connection(asyncio.Protocol):
    """One client connection: receive buffer, wake-up future, idle timer.

    The transport's callbacks only record what happened and wake the
    connection's serving task (:meth:`DetectorServer._serve`), which
    sleeps in :meth:`more` or :meth:`drained`; everything else runs in
    that task.
    """

    def __init__(self, server: "DetectorServer") -> None:
        self._server = server
        self._loop = server._loop
        self.buffer = bytearray()
        #: The peer has finished sending (or the connection is gone).
        self.eof = False
        #: The idle deadline passed with no response written.
        self.expired = False
        self._queued = False
        self._waiter: asyncio.Future | None = None
        #: False while the transport has paused writing (back-pressure).
        self.writable = True

    # -- transport callbacks ------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.accepted = time.perf_counter()
        peer = transport.get_extra_info("peername")
        self.peer_ip = peer[0] if peer else "0.0.0.0"
        server = self._server
        #: Admission lane: the node of the previous request (the peer's
        #: own until a request says otherwise).
        self.lane = server._network.node_index_for(self.peer_ip)
        timeout = server._config.keep_alive_timeout
        self.deadline = self._loop.time() + timeout
        self._timer = self._loop.call_later(timeout, self._check_idle)
        self.task = self._loop.create_task(server._serve(self))
        server._connections.add(self)
        server.metrics.connections.inc()
        server.metrics.open_connections.set(len(server._connections))

    def data_received(self, data: bytes) -> None:
        self.buffer += data
        if not self.writable:
            # The task is behind a stalled response: bound the read-ahead.
            if len(self.buffer) > _READ_AHEAD:
                self.transport.pause_reading()
        elif self._waiter is not None:
            if not self._queued:
                self._queued = True
                self._server._pending[self.lane] += 1
            self._wake()

    def eof_received(self) -> bool:
        self.eof = True
        self._wake()
        # Half-close: keep the write side open for the pending response.
        return True

    def connection_lost(self, exc) -> None:
        self.eof = True
        self._wake()
        self._timer.cancel()
        server = self._server
        server._connections.discard(self)
        server.metrics.open_connections.set(len(server._connections))

    def pause_writing(self) -> None:
        self.writable = False

    def resume_writing(self) -> None:
        self.writable = True
        self.transport.resume_reading()
        self._wake()

    # -- the serving task's side --------------------------------------------

    async def more(self) -> bool:
        """Sleep until bytes arrive or the stream ends.

        False once the idle deadline has passed: give the connection up.
        """
        if not (self.eof or self.expired):
            await self._sleep()
        return not self.expired

    async def drained(self) -> bool:
        """Back-pressure: sleep while the transport's write buffer is
        over its high-water mark.  False if the peer never drained it."""
        while not self.writable:
            if self.transport.is_closing():
                return False
            await self._sleep()
        return True

    async def _sleep(self) -> None:
        self._waiter = self._loop.create_future()
        try:
            await self._waiter
        finally:
            self._waiter = None
            if self._queued:
                # Running again: no longer waiting in front of the loop.
                self._queued = False
                self._server._pending[self.lane] -= 1

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _check_idle(self) -> None:
        # One timer per connection, armed until the transport is gone:
        # re-armed to the deadline each response pushed forward, never
        # per request.  It cuts an idle connection, a trickled request
        # and a response (or closing flush) the peer stopped reading.
        remaining = self.deadline - self._loop.time()
        if remaining > 0:
            self._timer = self._loop.call_later(remaining, self._check_idle)
        else:
            self.expired = True
            self._server.metrics.timeouts.inc()
            self._wake()
            self.transport.abort()


class DetectorServer:
    """Serve a proxy network's request path over real sockets."""

    def __init__(
        self,
        network: "ProxyNetwork",
        default_host: str | None = None,
        config: ServeConfig | None = None,
    ) -> None:
        self._network = network
        self._default_host = default_host
        self._config = config or ServeConfig()
        self.metrics = ServeMetrics()
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[_Connection] = set()
        #: Per node: connections woken by bytes, not yet dispatched.
        self._pending = [0] * len(network.nodes)
        self._admission = Admission(
            self._config.policy,
            len(network.nodes),
            cap=self._config.max_pending_per_node,
            adaptive=self._config.adaptive,
            metrics=self.metrics.registry,
        )
        self._epoch = time.monotonic()
        self._last_us = 0
        self._trace_handle = None
        self._housekeeper: asyncio.TimerHandle | None = None
        #: Capture without a network tap: :meth:`_log` fills its
        #: records (the server fires the network's taps itself).
        self._recorder = TraceRecorder()
        #: Every exchange that reached a node, in completion order
        #: (the live log holds the same lines, streamed).
        self.records: list[TraceRecord] = self._recorder.records
        #: Probes as registered; journal records are made on demand.
        self.probes: list[RegisteredProbe] = self._recorder.probes
        self.requests_handled = 0

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and arm the pipeline attachments."""
        if self._server is not None:
            raise RuntimeError("server already started")
        cfg = self._config
        if cfg.ladder is not None:
            for node in self._network.nodes:
                node.enable_ladder(cfg.ladder)
        self._network.add_probe_listener(self.probes.extend)
        if cfg.trace_path is not None:
            self._trace_handle = open_trace_file(cfg.trace_path, "wt")
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _Connection(self), cfg.host, cfg.port
        )
        if cfg.housekeeping_interval:
            self._housekeeper = self._loop.call_later(
                cfg.housekeeping_interval, self._housekeeping
            )

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> str:
        """``http://host:port`` of the listening socket."""
        return f"http://{self._config.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Serve until cancelled."""
        if self._server is None:
            raise RuntimeError("server not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, end open connections, flush the trace and
        write the probe journal."""
        if self._housekeeper is not None:
            self._housekeeper.cancel()
            self._housekeeper = None
        if self._server is not None:
            self._server.close()
            # Whatever is still open is an idle keep-alive connection or
            # a response its peer is slow to read; ``wait_closed`` (3.12+)
            # would wait out the idle timeout of either.
            open_now = list(self._connections)
            for connection in open_now:
                connection.transport.abort()
            if open_now:
                await asyncio.wait([c.task for c in open_now])
            await self._server.wait_closed()
            self._server = None
        self._network.remove_probe_listener(self.probes.extend)
        recorder = self._recorder
        if self._trace_handle is not None:
            self._trace_handle.close()
            self._trace_handle = None
            if recorder.identities and self._config.trace_path is not None:
                # The live stream was written before identities were
                # known; rewrite it sorted and annotated at shutdown.
                write_trace(self._config.trace_path, recorder.sorted_records())
        if self._config.probes_path is not None:
            write_probe_journal(
                self._config.probes_path, recorder.sorted_probes()
            )

    # -- results ------------------------------------------------------------

    @property
    def parse_errors(self) -> int:
        """Malformed requests refused (``repro_serve_parse_errors_total``)."""
        return self.metrics.parse_errors

    @property
    def shed_count(self) -> int:
        """Requests shed at admission (``repro_serve_shed_total``)."""
        return int(self.metrics.shed.value)

    def annotate_ground_truth(
        self, identities: dict[tuple[str, str], tuple[str, str]]
    ) -> None:
        """Learn ``(client_ip, user_agent) -> (kind, label)`` identities.

        Typically fed from :meth:`SwarmResult.identities`.  Applied when
        records are read back (and to the trace file at :meth:`close`),
        writing the synthetic ground truth into the CLF ``ident`` /
        ``authuser`` fields exactly like a recorded workload would.
        """
        self._recorder.identities.update(identities)

    def finalize_sessions(self):
        """Finalize the network's sessions (call after traffic stops).

        Any identities learned via :meth:`annotate_ground_truth` are
        backfilled onto the finalized sessions, exactly as the replay
        engine does for records carrying ground truth.
        """
        from repro.workload.results import apply_session_identities

        sessions = self._network.finalize_sessions()
        apply_session_identities(sessions, self._recorder.identities)
        return sessions

    def session_summary(self):
        """Set-algebra summary (after :meth:`finalize_sessions`)."""
        return self._network.session_sets().summary()

    # -- connection handling ------------------------------------------------

    async def _serve(self, connection: _Connection) -> None:
        """A connection's one task: frame, dispatch, answer, repeat."""
        cfg = self._config
        m = self.metrics
        served = 0
        try:
            while True:
                try:
                    parsed = await read_request(
                        connection, self._default_host, cfg.limits
                    )
                except HttpParseError as exc:
                    m.note_parse_error(exc.status)
                    self._write(
                        connection, error_response(exc.status, exc.message)
                    )
                    break
                if parsed is None:
                    break
                served += 1
                if served == 1:
                    m.observe_stage(
                        "accept", time.perf_counter() - connection.accepted
                    )
                else:
                    m.keepalive_reuses.inc()
                m.observe_stage("parse", parsed.parse_seconds)
                keep_alive = (
                    parsed.keep_alive
                    and served < cfg.max_requests_per_connection
                )
                try:
                    response = self._dispatch(parsed, connection)
                except Exception:
                    # The boundary that must keep serving: a failure in
                    # the pipeline costs this connection, not the server.
                    _logger.exception("handler failed: %s", parsed.url)
                    m.handler_errors.inc()
                    response = error_response(500, "handler failed")
                    keep_alive = False
                m.note_request(response.status)
                self._write(
                    connection, response, parsed.method is _HEAD, keep_alive
                )
                if not keep_alive or not (
                    connection.writable or await connection.drained()
                ):
                    break
        finally:
            # Flushes what is buffered; the idle timer bounds the wait.
            connection.transport.close()

    def _write(
        self,
        connection: _Connection,
        response: Response,
        head: bool = False,
        keep_alive: bool = False,
    ) -> None:
        started = time.perf_counter()
        connection.transport.write(render_response(response, head, keep_alive))
        self.metrics.observe_stage("write", time.perf_counter() - started)
        connection.deadline = (
            self._loop.time() + self._config.keep_alive_timeout
        )

    # -- request dispatch ---------------------------------------------------

    def _dispatch(
        self, parsed: ParsedRequest, connection: _Connection
    ) -> Response:
        """Stamp, admit and handle one request, synchronously."""
        client_ip = connection.peer_ip
        forwarded = parsed.forwarded  # already out of the pipeline's view
        if forwarded and client_ip in self._config.trusted_proxies:
            # The first hop names the client only if it is one token:
            # the address is a whitespace-delimited access-log field.
            hop = forwarded.split(",")[0].split()
            if len(hop) == 1:
                client_ip = hop[0]
        request = Request(
            parsed.method, parsed.url, client_ip, parsed.headers, self._stamp()
        )

        if request.url.path.startswith("/__captcha__"):
            return self._captcha(request, parsed.body)

        index = connection.lane = self._network.node_index_for(client_ip)
        admission = self._admission
        if not admission.admit(index, client_ip, self._pending[index] + 1):
            self.metrics.shed.inc()
            response = error_response(
                503, "overloaded: request shed at admission"
            )
            response.headers.set("Retry-After", "1")
            return response

        node = self._network.nodes[index]
        started = time.perf_counter()
        response, outcome = node.handle_traced(request)
        if outcome is not None and self._config.ladder is not None:
            ladder = node.ladder_for(client_ip)
            if ladder is not None:
                ladder.observe_verdict(
                    client_ip,
                    -1.0 if outcome.verdict.label is Label.ROBOT else 1.0,
                    request.timestamp,
                )
        elapsed = time.perf_counter() - started
        admission.served(index, elapsed)
        self.metrics.observe_stage("handle", elapsed)

        for tap in self._network.taps:
            tap(request, response)
        self._log(request, response)
        self.requests_handled += 1
        return response

    # -- CAPTCHA funnel -----------------------------------------------------

    def _captcha(self, request: Request, body: bytes) -> Response:
        """Serve the ladder's challenge page and its verify endpoint.

        Out-of-band by design: these exchanges feed the ladder, not the
        detectors, and leave no access-log footprint (the record CLI
        documents the same property for the simulated funnel).
        """
        if request.url.path == CHALLENGE_PATH:
            return html_response(_CHALLENGE_PAGE, uncacheable=True)
        if request.url.path == VERIFY_PATH:
            from urllib.parse import parse_qs

            form = parse_qs(
                body.decode("latin-1") if body else request.url.query,
                encoding="latin-1",
            )
            passed = form.get("answer", [""])[0] == _CHALLENGE_TOKEN
            node = self._network.node_for(request.client_ip)
            ladder = node.ladder_for(request.client_ip)
            if ladder is not None:
                ladder.note_captcha_result(
                    request.client_ip, passed, request.timestamp
                )
            if passed:
                return Response(
                    status=302, headers=Headers([("Location", "/")])
                )
            return error_response(403, "challenge failed")
        return error_response(404)

    # -- plumbing -----------------------------------------------------------

    def _stamp(self) -> float:
        """Next virtual timestamp: strictly increasing microseconds.

        A request is stamped and handled in one synchronous call, so
        stamp order is handling order — which makes the sorted trace
        replay in the same per-node order the live run handled.
        """
        now_us = int((time.monotonic() - self._epoch) * 1_000_000)
        if now_us <= self._last_us:
            now_us = self._last_us + 1
        self._last_us = now_us
        return now_us / 1_000_000

    def _log(self, request: Request, response: Response) -> None:
        record = TraceRecord.from_exchange(request, response)
        self.records.append(record)
        if self._trace_handle is not None:
            self._trace_handle.write(format_clf_line(record) + "\n")

    def _housekeeping(self) -> None:
        for node in self._network.nodes:
            node.housekeeping(self._stamp())
        self._housekeeper = self._loop.call_later(
            self._config.housekeeping_interval, self._housekeeping
        )
