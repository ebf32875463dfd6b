"""Byte-level HTTP/1.1 framing for the live front door.

The bridge between raw sockets and the repo's message models: a
synchronous request parser that frames one request from the head of a
receive buffer into :class:`~repro.http.message.Method` /
:class:`~repro.http.uri.Url` / :class:`~repro.http.headers.Headers`
values, and a response writer that renders a
:class:`~repro.http.message.Response` back to wire bytes.

Real clients send bytes the simulated path never does, so every
malformed input maps to a definite status instead of a traceback:

* ``400`` — malformed request line, header or target, truncated body;
* ``413`` — declared body larger than the limit;
* ``431`` — request line or header block over the byte limits;
* ``501`` — a method outside the paper's feature set (GET/HEAD/POST),
  or a transfer coding this server does not implement;
* ``505`` — an HTTP version other than 1.0/1.1.

Both request-target forms are accepted: absolute-form
(``GET http://host/x HTTP/1.1``, the proxy idiom CoDeeN clients used)
and origin-form (``GET /x``) resolved against the ``Host`` header or a
configured default host.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

from repro.http.headers import Headers
from repro.http.message import Method, Response
from repro.http.status import describe_status
from repro.http.uri import Url

#: HTTP versions this server speaks.
_SUPPORTED_VERSIONS = ("HTTP/1.0", "HTTP/1.1")

#: Hop-by-hop headers that describe the connection, not the message;
#: never copied into the pipeline-facing request or the wire response.
_HOP_BY_HOP = frozenset(
    (
        "connection",
        "keep-alive",
        "proxy-connection",
        "te",
        "transfer-encoding",
        "upgrade",
    )
)

#: Stripped from the pipeline-facing request view: hop-by-hop fields
#: plus message-framing metadata already folded into the parsed target
#: and body.  The pipeline then sees the same header set a replayed
#: trace record rebuilds (they survive in ``raw_headers``).
_FRAMING_HEADERS = _HOP_BY_HOP | frozenset(("host", "content-length"))


class HttpParseError(ValueError):
    """A request could not be framed; ``status`` is the refusal code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass(frozen=True)
class Http11Limits:
    """Byte budgets for one parsed request."""

    max_request_line: int = 8192
    max_header_bytes: int = 32768
    max_headers: int = 100
    max_body_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        for name in (
            "max_request_line",
            "max_header_bytes",
            "max_headers",
            "max_body_bytes",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class ParsedRequest:
    """One framed request, ready to become a pipeline ``Request``."""

    method: Method
    url: Url
    headers: Headers
    version: str
    keep_alive: bool
    body: bytes = b""
    #: Wall seconds of the ``parse_request`` pass that framed it
    #: (excludes every wait for bytes).
    parse_seconds: float = 0.0
    #: Raw header entries including hop-by-hop fields, for callers that
    #: need connection semantics (the pipeline view in ``headers`` has
    #: them stripped).
    raw_headers: Headers = field(default_factory=Headers)


_DEFAULT_LIMITS = Http11Limits()


def _line_end(text: str, pos: int, max_bytes: int, what: str, eof: bool) -> int:
    """Index of the LF ending the line at ``pos``, or -1 if not there yet.

    A line longer than ``max_bytes`` (terminator included) is refused
    with 431 as soon as that many bytes are buffered without an LF; a
    partial line at EOF is a 400.  -1 with ``eof`` set means the stream
    ended cleanly on a line boundary.
    """
    end = text.find("\n", pos, pos + max_bytes)
    if end < 0:
        if len(text) - pos >= max_bytes:
            raise HttpParseError(431, f"{what} too long")
        if eof and len(text) > pos:
            raise HttpParseError(400, f"connection closed mid-{what}")
    return end


def _split_field(line: str) -> tuple[str, str]:
    name, sep, value = line.partition(":")
    name = name.strip()
    if not sep or not name:
        raise HttpParseError(400, f"malformed header field: {line[:120]}")
    return name, value.strip()


def parse_request(
    buffer: bytearray,
    default_host: str | None = None,
    limits: Http11Limits | None = None,
    eof: bool = False,
) -> tuple[ParsedRequest, int] | None:
    """Frame the request at the head of ``buffer`` in one synchronous pass.

    Returns ``(request, consumed)`` — the caller drops ``consumed`` bytes
    — or ``None`` when the buffer does not hold a whole request yet
    (with ``eof``: the peer closed cleanly between requests).  Raises
    :class:`HttpParseError` at the first malformed or over-limit line,
    without waiting for the rest of the request, and for a request cut
    short by ``eof``.  Stateless: every call starts from the head of the
    buffer, so the outcome depends on the bytes alone, never on how they
    were chunked.  The returned ``headers`` are the pipeline view (hop-
    by-hop fields stripped); connection semantics are already folded
    into ``keep_alive``.
    """
    started = time.perf_counter()
    limits = limits or _DEFAULT_LIMITS
    # Latin-1 maps bytes to characters one to one, so offsets into the
    # text are offsets into the buffer.  A CRLF-terminated head is
    # decoded alone; anything else (incomplete, bare LFs) as a whole.
    stop = buffer.find(b"\r\n\r\n")
    text = (buffer[: stop + 4] if stop >= 0 else buffer).decode("latin-1")

    end = -1
    # Twice: one stray CRLF between pipelined requests is tolerated
    # (RFC 9112 §2.2).
    for _ in range(2):
        pos = end + 1
        end = _line_end(text, pos, limits.max_request_line, "request line", eof)
        if end < 0:
            return None
        line = text[pos:end].rstrip("\r")
        if line:
            break

    parts = line.split(" ")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise HttpParseError(400, f"malformed request line: {line[:120]}")
    method_text, target, version = parts
    if version not in _SUPPORTED_VERSIONS:
        raise HttpParseError(505, f"unsupported HTTP version: {version}")
    try:
        method = Method(method_text.upper())
    except ValueError:
        raise HttpParseError(
            501, f"method not implemented: {method_text[:32]}"
        ) from None

    raw_headers = Headers()
    headers = Headers()
    header_bytes = 0
    fields_left = limits.max_headers
    max_block = limits.max_header_bytes
    while True:
        pos = end + 1
        end = _line_end(text, pos, max_block, "header line", eof)
        if end < 0:
            if eof:
                raise HttpParseError(400, "connection closed inside headers")
            return None
        header_line = text[pos:end].rstrip("\r")
        if not header_line:
            break
        header_bytes += len(header_line) + 2
        if header_bytes > max_block:
            raise HttpParseError(431, "header block too large")
        if not fields_left:
            raise HttpParseError(431, "too many header fields")
        fields_left -= 1
        if header_line[0] in " \t":
            # Obsolete line folding: deliberately refused (RFC 9112 §5.2).
            raise HttpParseError(400, "folded header field")
        name, value = _split_field(header_line)
        raw_headers.add(name, value)
        if name.lower() not in _FRAMING_HEADERS:
            headers.add(name, value)

    url = _resolve_target(target, raw_headers, default_host)
    body_start = end + 1
    consumed = body_start + _body_length(raw_headers, limits)
    if len(buffer) < consumed:
        if eof:
            raise HttpParseError(400, "truncated request body")
        return None

    parsed = ParsedRequest(
        method=method,
        url=url,
        headers=headers,
        version=version,
        keep_alive=_keep_alive(version, raw_headers),
        body=bytes(buffer[body_start:consumed]),
        parse_seconds=time.perf_counter() - started,
        raw_headers=raw_headers,
    )
    return parsed, consumed


async def read_request(
    connection,
    default_host: str | None = None,
    limits: Http11Limits | None = None,
) -> ParsedRequest | None:
    """Next request off a connection's receive buffer.

    ``connection`` holds the bytes received so far in ``buffer``, sets
    ``eof`` once the peer has finished sending, and ``more()`` sleeps
    until either changes, answering False when the connection is to be
    given up instead.  Returns ``None`` when no further request will
    come; raises :class:`HttpParseError` on anything malformed.
    """
    while True:
        framed = parse_request(
            connection.buffer, default_host, limits, connection.eof
        )
        if framed is not None:
            parsed, consumed = framed
            del connection.buffer[:consumed]
            return parsed
        if connection.eof or not await connection.more():
            return None


def _resolve_target(
    target: str, headers: Headers, default_host: str | None
) -> Url:
    if target.startswith("/"):
        host = headers.get("Host") or default_host
        if not host:
            raise HttpParseError(
                400, "origin-form target needs a Host header"
            )
        target = f"http://{host}{target}"
    try:
        return Url.parse(target)
    except ValueError as exc:
        raise HttpParseError(400, f"bad request target: {exc}") from None


def _body_length(headers: Headers, limits: Http11Limits) -> int:
    if "Transfer-Encoding" in headers:
        raise HttpParseError(
            501, "transfer codings are not implemented"
        )
    declared = headers.get("Content-Length")
    if declared is None:
        return 0
    try:
        length = int(declared)
    except ValueError:
        raise HttpParseError(
            400, f"bad Content-Length: {declared[:32]}"
        ) from None
    if length < 0:
        raise HttpParseError(400, "negative Content-Length")
    if length > limits.max_body_bytes:
        raise HttpParseError(413, "request body too large")
    return length


def _keep_alive(version: str, headers: Headers) -> bool:
    tokens = {
        token.strip().lower()
        for value in headers.get_all("Connection")
        for token in value.split(",")
    }
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


def render_response(
    response: Response,
    head: bool = False,
    keep_alive: bool = True,
) -> bytes:
    """Render a pipeline :class:`Response` as HTTP/1.1 wire bytes.

    Always emits an explicit ``Content-Length`` (the body length even
    for HEAD, per RFC 9110 §9.3.2) and a ``Connection`` header, so the
    peer never needs read-until-close framing.
    """
    lines = [f"HTTP/1.1 {describe_status(response.status)}"]
    for name, value in response.headers:
        if name.lower() in _HOP_BY_HOP or name.lower() == "content-length":
            continue
        lines.append(f"{name}: {value}")
    lines.append(f"Content-Length: {len(response.body)}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    wire = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    if not head:
        wire += response.body
    return wire


async def _read_line(
    reader: asyncio.StreamReader, max_bytes: int, status: int, what: str
) -> str | None:
    """One CRLF/LF-terminated line, or None on clean EOF."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpParseError(
            400, f"connection closed mid-{what}"
        ) from None
    except asyncio.LimitOverrunError:
        raise HttpParseError(status, f"{what} too long") from None
    if len(line) > max_bytes:
        raise HttpParseError(status, f"{what} too long")
    return line.decode("latin-1").rstrip("\r\n")


async def read_response(
    reader: asyncio.StreamReader, head: bool = False
) -> tuple[int, Headers, bytes, bool]:
    """Client-side framing: one response off the stream.

    Returns ``(status, headers, body, keep_alive)``.  Relies on the
    explicit ``Content-Length`` this server always writes; with
    ``head`` the declared length is not read (HEAD responses carry
    none).  Raises :class:`HttpParseError` on malformed bytes and
    ``ConnectionError``/``asyncio.IncompleteReadError`` on early close.
    """
    line = await _read_line(reader, 8192, 431, "status line")
    if line is None:
        raise ConnectionResetError("connection closed before status line")
    parts = line.split(" ", 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise HttpParseError(400, f"malformed status line: {line[:120]}")
    version, status_text = parts[0], parts[1]
    if version not in _SUPPORTED_VERSIONS:
        raise HttpParseError(505, f"unsupported HTTP version: {version}")
    status = int(status_text)

    headers = Headers()
    while True:
        header_line = await _read_line(reader, 32768, 431, "header line")
        if header_line is None:
            raise HttpParseError(400, "connection closed inside headers")
        if not header_line:
            break
        headers.add(*_split_field(header_line))

    body = b""
    declared = headers.get("Content-Length")
    if declared is not None and not head:
        try:
            length = int(declared)
        except ValueError:
            raise HttpParseError(
                400, f"bad Content-Length: {declared[:32]}"
            ) from None
        if length:
            body = await reader.readexactly(length)
    elif declared is None and not head:
        body = await reader.read()

    connection = (headers.get("Connection") or "").lower()
    keep_alive = "close" not in connection
    return status, headers, body, keep_alive
