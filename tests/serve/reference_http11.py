"""Line-by-line request framing: the reference the live framer is
tested against.

This is the shape ``repro.serve.http11.parse_request`` had before it
framed a head by splitting it once: one ``_line_end`` search per line,
one validated ``Headers.add`` per field, the method looked up through
``Method(...)``.  It lived in ``src/`` until the one-pass framer
replaced it, and stays here, with the same framing-header rules, so
``test_framer_differential.py`` can hold the two to the same outcome —
the same request and ``consumed``, or the same ``(status, message)`` —
for every stream.

The framing-header rules are restated here on their own, not imported:

* a field name with blanks around it is malformed (RFC 9112 §5.1 — no
  whitespace between a field name and its colon);
* ``Content-Length`` is ``1*DIGIT`` and repeated fields must agree
  (RFC 9112 §6.3);
* the target's host is the first ``Host`` field, and ``Connection``
  tokens decide persistence;
* ``X-Forwarded-For`` is handed over as ``forwarded`` — the first
  field's value — and, when that value is non-empty, every such field
  leaves the pipeline view (what the server's dispatch once did with
  ``get`` then ``remove``).
"""

from __future__ import annotations

import re
import time

from repro.http.headers import Headers
from repro.http.message import Method
from repro.serve.http11 import (
    _FRAMING_HEADERS,
    _SUPPORTED_VERSIONS,
    Http11Limits,
    HttpParseError,
    ParsedRequest,
)
from repro.http.uri import Url

_DIGITS = re.compile(r"[0-9]+")


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
    if not sep or not name or name != name.strip():
        raise HttpParseError(400, f"malformed header field: {line[:120]}")
    return name, value.strip()


def _resolve_target(
    target: str, headers: Headers, default_host: str | None
) -> Url:
    if target.startswith("/"):
        host = headers.get("Host") or default_host
        if not host:
            raise HttpParseError(400, "origin-form target needs a Host header")
        target = f"http://{host}{target}"
    try:
        return Url.parse(target)
    except ValueError as exc:
        raise HttpParseError(400, f"bad request target: {exc}") from None


def _keep_alive(version: str, headers: Headers) -> bool:
    tokens = {
        token.strip().lower()
        for value in headers.get_all("Connection")
        for token in value.split(",")
    }
    if version == "HTTP/1.0":
        return "keep-alive" in tokens
    return "close" not in tokens


def _body_length(headers: Headers, limits: Http11Limits) -> int:
    if "Transfer-Encoding" in headers:
        raise HttpParseError(501, "transfer codings are not implemented")
    declared = headers.get_all("Content-Length")
    if not declared:
        return 0
    if len(set(declared)) > 1:
        raise HttpParseError(400, "conflicting Content-Length fields")
    value = declared[0]
    if not _DIGITS.fullmatch(value):
        raise HttpParseError(400, f"bad Content-Length: {value[:32]}")
    try:
        length = int(value)
    except ValueError:
        raise HttpParseError(400, f"bad Content-Length: {value[:32]}") from None
    if length > limits.max_body_bytes:
        raise HttpParseError(413, "request body too large")
    return length


def parse_request(
    buffer: bytearray,
    default_host: str | None = None,
    limits: Http11Limits | None = None,
    eof: bool = False,
) -> tuple[ParsedRequest, int] | None:
    """Frame the request at the head of ``buffer``, one line at a time.

    Same contract as :func:`repro.serve.http11.parse_request`.
    """
    started = time.perf_counter()
    limits = limits or Http11Limits()
    stop = buffer.find(b"\r\n\r\n")
    text = (buffer[: stop + 4] if stop >= 0 else buffer).decode("latin-1")

    end = -1
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

    all_headers = Headers()
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
            raise HttpParseError(400, "folded header field")
        name, value = _split_field(header_line)
        all_headers.add(name, value)
        if name.lower() not in _FRAMING_HEADERS:
            headers.add(name, value)

    url = _resolve_target(target, all_headers, default_host)
    body_start = end + 1
    consumed = body_start + _body_length(all_headers, limits)
    if len(buffer) < consumed:
        if eof:
            raise HttpParseError(400, "truncated request body")
        return None

    forwarded = headers.get("X-Forwarded-For")
    if forwarded:
        headers.remove("X-Forwarded-For")
    parsed = ParsedRequest(
        method=method,
        url=url,
        headers=headers,
        version=version,
        keep_alive=_keep_alive(version, all_headers),
        body=bytes(buffer[body_start:consumed]),
        parse_seconds=time.perf_counter() - started,
        forwarded=forwarded,
    )
    return parsed, consumed
