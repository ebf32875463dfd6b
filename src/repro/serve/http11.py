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
from dataclasses import dataclass

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
#: plus message-framing metadata already folded into the parsed target,
#: body and keep-alive decision.  The pipeline then sees the same header
#: set a replayed trace record rebuilds.
_FRAMING_HEADERS = _HOP_BY_HOP | frozenset(("host", "content-length"))

#: Fields the header loop picks up instead of adding to the pipeline
#: view: the framing fields and ``X-Forwarded-For``.
_PICKED = _FRAMING_HEADERS | frozenset(("x-forwarded-for",))

#: Response fields ``render_response`` writes itself or never sends.
_NOT_RENDERED = _HOP_BY_HOP | frozenset(("content-length",))


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
        for name, value in vars(self).items():
            if value < 1:
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
    #: The first ``X-Forwarded-For`` value, if any.  Unless it is empty
    #: (it names no one), no such field is in ``headers``.
    forwarded: str | None = None


_DEFAULT_LIMITS = Http11Limits()
_METHODS = {method.value: method for method in Method}


def _split_field(line: str) -> tuple[str, str]:
    name, sep, value = line.partition(":")
    # Blanks around a name are refused, never stripped (RFC 9112 §5.1).
    if not sep or not name or name.strip() != name:
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
    if not buffer:
        return None
    started = time.perf_counter()
    limits = limits or _DEFAULT_LIMITS
    # Latin-1 maps bytes to characters one to one, so offsets into the
    # text are offsets into the buffer.  A CRLF-terminated head is
    # decoded alone; anything else (incomplete, bare LFs) as a whole.
    stop = buffer.find(b"\r\n\r\n")
    text = (buffer[: stop + 4] if stop >= 0 else buffer).decode("latin-1")
    # One split cuts every line a head may use (a stray CRLF, the request
    # line, ``max_headers`` fields and one more); ``lines[last]`` is read
    # only as a line missing its LF.  A line is refused with 431 once
    # ``max`` bytes (LF included) lack an LF; a partial line at EOF, 400.
    lines = text.split("\n", limits.max_headers + 3)
    last = len(lines) - 1

    # Twice: one stray CRLF between pipelined requests is tolerated
    # (RFC 9112 §2.2).
    max_line = limits.max_request_line
    for index in (0, 1):
        line = lines[index]
        if len(line) >= max_line:
            raise HttpParseError(431, "request line too long")
        if index == last:
            if eof and line:
                raise HttpParseError(400, "connection closed mid-request line")
            return None
        line = line.rstrip("\r")
        if line:
            break

    parts = line.split(" ")
    if len(parts) != 3 or not parts[0] or not parts[1]:
        raise HttpParseError(400, f"malformed request line: {line[:120]}")
    method_text, target, version = parts
    if version not in _SUPPORTED_VERSIONS:
        raise HttpParseError(505, f"unsupported HTTP version: {version}")
    method = _METHODS.get(method_text) or _METHODS.get(method_text.upper())
    if method is None:
        raise HttpParseError(501, f"method not implemented: {method_text[:32]}")

    # The pipeline view's entries and their folded names; the framing
    # fields and X-Forwarded-For are picked up on the way.
    entries, folded_names = [], []
    host = forwarded = None
    lengths, connection, chunked = [], [], False
    header_bytes = 0
    max_block = limits.max_header_bytes
    too_many = index + 1 + limits.max_headers  # the first field over the limit
    # Every complete line; ``lines[last]`` is read only if no blank one ends
    # the head before it.
    for index in range(index + 1, last):
        line = lines[index]
        if len(line) >= max_block:
            raise HttpParseError(431, "header line too long")
        line = line.rstrip("\r")
        if not line:
            break
        header_bytes += len(line) + 2
        if header_bytes > max_block:
            raise HttpParseError(431, "header block too large")
        if index == too_many:
            raise HttpParseError(431, "too many header fields")
        if line[0] in " \t":
            # Obsolete line folding: deliberately refused (RFC 9112 §5.2).
            raise HttpParseError(400, "folded header field")
        name, sep, value = line.partition(":")
        if not sep or not name or name.strip() != name:
            raise HttpParseError(400, f"malformed header field: {line[:120]}")
        value = value.strip()
        entry = (name, value)
        folded = name.lower()
        if folded not in _PICKED:
            entries.append(entry)
            folded_names.append(folded)
        elif folded == "host":
            if host is None:
                host = value
        elif folded == "x-forwarded-for":
            if forwarded is None:
                forwarded = value
            if not forwarded:  # an empty first one names no one: all stay
                entries.append(entry)
                folded_names.append(folded)
        elif folded == "connection":
            connection.append(value)
        elif folded == "content-length":
            lengths.append(value)
        elif folded == "transfer-encoding":
            chunked = True
    else:
        if len(lines[last]) >= max_block:
            raise HttpParseError(431, "header line too long")
        if not eof:
            return None
        if lines[last]:
            raise HttpParseError(400, "connection closed mid-header line")
        raise HttpParseError(400, "connection closed inside headers")

    url = _resolve_target(target, host, default_host)
    body_start = (len(text) - len(lines[last]) if index + 1 == last
                  else sum(map(len, lines[: index + 1])) + index + 1)
    consumed = body_start + (
        _body_length(chunked, lengths, limits) if chunked or lengths else 0)
    if len(buffer) < consumed:
        if eof:
            raise HttpParseError(400, "truncated request body")
        return None

    parsed = ParsedRequest(
        method, url, Headers.from_folded(entries, folded_names), version,
        _keep_alive(version, connection) if connection else version != "HTTP/1.0",
        bytes(buffer[body_start:consumed]) if consumed > body_start else b"",
        time.perf_counter() - started, forwarded,
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

    The framer is stateless, so it is run again only when what arrived
    since its last ``None`` can change that answer: an LF (a line
    ended), the end of the stream, the unfinished line reaching a line
    limit, or any byte once the head is whole (the body).  A head
    trickled in small chunks is framed in time linear in its length.
    """
    limits = limits or _DEFAULT_LIMITS
    seen = line = 0  # the buffer's length at the last None; its last line
    whole = False
    while True:
        buffer = connection.buffer
        end = len(buffer)
        if connection.eof or end > seen and (
            not seen or whole or buffer.find(b"\n", seen) >= 0
            or seen - line < limits.max_request_line <= end - line
            or seen - line < limits.max_header_bytes <= end - line
        ):
            framed = parse_request(buffer, default_host, limits, connection.eof)
            if framed is not None:
                parsed, consumed = framed
                del buffer[:consumed]
                return parsed
            seen, line = end, buffer.rfind(b"\n") + 1
            whole = b"\n\n" in buffer or b"\n\r\n" in buffer
        if connection.eof or not await connection.more():
            return None


def _resolve_target(
    target: str, host: str | None, default_host: str | None
) -> Url:
    """``target`` as a URL; ``host`` is the first ``Host`` field's value."""
    if target.startswith("/"):
        host = host or default_host
        if not host:
            raise HttpParseError(
                400, "origin-form target needs a Host header"
            )
        target = f"http://{host}{target}"
    try:
        return Url.parse(target)
    except ValueError as exc:
        raise HttpParseError(400, f"bad request target: {exc}") from None


def _body_length(chunked: bool, declared: list[str], limits: Http11Limits) -> int:
    """From the ``Content-Length`` values and any ``Transfer-Encoding``."""
    if chunked:
        raise HttpParseError(
            501, "transfer codings are not implemented"
        )
    if not declared:
        return 0
    # RFC 9112 §6.3: ``1*DIGIT`` and duplicates that agree, or a peer
    # that reads the field strictly frames a different body.
    value = declared[0]
    if declared.count(value) != len(declared):
        raise HttpParseError(400, "conflicting Content-Length fields")
    try:
        if not (value.isascii() and value.isdigit()):
            raise ValueError(value)
        length = int(value)  # also refuses more digits than it will read
    except ValueError:
        raise HttpParseError(400, f"bad Content-Length: {value[:32]}") from None
    if length > limits.max_body_bytes:
        raise HttpParseError(413, "request body too large")
    return length


def _keep_alive(version: str, connection: list[str]) -> bool:
    """Persistence from the ``Connection`` values, in order."""
    tokens = {
        token.strip().lower()
        for value in connection
        for token in value.split(",")
    }
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


#: ``status -> "HTTP/1.1 <code> <reason>\r\n"``, bounded as
#: :func:`repro.http.message.error_response`'s heads are.
_STATUS_LINES: dict[int, str] = {}


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
    status = response.status
    line = _STATUS_LINES.get(status)
    if line is None:
        line = _STATUS_LINES[status] = f"HTTP/1.1 {describe_status(status)}\r\n"
    body = response.body
    parts = [line]
    for folded, (name, value) in response.headers.folded_items():
        if folded not in _NOT_RENDERED:
            parts.append(f"{name}: {value}\r\n")
    parts.append(f"Content-Length: {len(body)}\r\n"
                 f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n")
    wire = "".join(parts).encode("latin-1")
    return wire if head else wire + body


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
