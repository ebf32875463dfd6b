"""HTTP request and response messages.

``Request``/``Response`` are deliberately small immutable records: the
detector must scale to hundreds of thousands of sessions, so messages carry
only the fields the paper's techniques observe, plus a payload size for
bandwidth accounting (the §3.2 overhead numbers).
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

from repro.http.content import (
    ContentKind,
    classify_content_type,
    classify_path,
)
from repro.http.headers import Headers
from repro.http.status import StatusClass, describe_status, status_class
from repro.http.uri import Url


class Method(Enum):
    """Request methods the paper's feature set distinguishes (HEAD% vs GET)."""

    GET = "GET"
    HEAD = "HEAD"
    POST = "POST"


@dataclass(frozen=True)
class Request:
    """One HTTP request as seen by the proxy.

    ``client_ip`` identifies the TCP source; sessions are keyed by
    ``(client_ip, User-Agent header)`` per §3.
    """

    method: Method
    url: Url
    client_ip: str
    headers: Headers = field(default_factory=Headers)
    timestamp: float = 0.0

    _path_kind: ClassVar[ContentKind | None] = None

    def __post_init__(self) -> None:
        if not self.client_ip:
            raise ValueError("client_ip must be non-empty")

    @property
    def user_agent(self) -> str:
        """The User-Agent header, empty string when absent."""
        return self.headers.user_agent or ""

    @property
    def referer(self) -> str | None:
        """The Referer header if present."""
        return self.headers.referer

    @property
    def path_kind(self) -> ContentKind:
        """What kind of object the URL *requests* (pre-response).

        Kept once computed: it depends on ``url`` alone, which cannot
        change.  (Nothing read from ``headers`` may be kept this way —
        the front door and the response ladder edit them in place.)
        """
        kind = self._path_kind
        if kind is None:
            kind = classify_path(self.url)
            object.__setattr__(self, "_path_kind", kind)
        return kind

    def describe(self) -> str:
        """One-line log form: ``GET http://host/path``."""
        return f"{self.method.value} {self.url}"


@dataclass(frozen=True)
class Response:
    """One HTTP response paired with its request.

    ``body`` is bytes-like: ``bytes``, or a read-only ``memoryview`` of
    a buffer many responses share (an origin's static objects).  Read it
    with ``bytes()``, ``str(body, encoding)`` or ``len``; it has no
    ``decode``.
    """

    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes | memoryview = b""
    served_from_cache: bool = False

    def __post_init__(self) -> None:
        status_class(self.status)  # validates the code range

    def __getstate__(self) -> dict:
        # A view cannot pickle; its bytes can (``bytes`` of bytes is
        # the same object, not a copy).
        return {**self.__dict__, "body": bytes(self.body)}

    @property
    def status_class(self) -> StatusClass:
        """The response's 1xx..5xx class."""
        return status_class(self.status)

    @property
    def content_type(self) -> str | None:
        """Content-Type header value, if any."""
        return self.headers.content_type

    @property
    def content_kind(self) -> ContentKind:
        """Object kind per the Content-Type header."""
        return classify_content_type(self.content_type)

    @property
    def size(self) -> int:
        """Body size in bytes (for bandwidth accounting)."""
        return len(self.body)

    @property
    def text(self) -> str:
        """Body decoded as UTF-8 (replacement on errors)."""
        return str(self.body, "utf-8", "replace")

    def describe(self) -> str:
        """One-line log form: ``200 OK text/html (1234 bytes)``."""
        ctype = self.content_type or "-"
        return f"{describe_status(self.status)} {ctype} ({self.size} bytes)"


@dataclass(frozen=True)
class Exchange:
    """A request/response pair with the time it completed.

    This is the unit the detectors and the ML feature extractor consume.
    """

    request: Request
    response: Response

    @property
    def timestamp(self) -> float:
        """Completion time (the request's timestamp; latency is not modelled
        at the message level)."""
        return self.request.timestamp


def html_response(body: str, *, status: int = 200, uncacheable: bool = False) -> Response:
    """Convenience constructor for an HTML response."""
    headers = Headers([("Content-Type", "text/html")])
    if uncacheable:
        headers.set("Cache-Control", "no-cache, no-store")
    return Response(status=status, headers=headers, body=body.encode("utf-8"))


def error_response(status: int, message: str | None = None) -> Response:
    """An error response with a small HTML body.

    ``message`` may carry request-derived text (URLs, header values), so both
    interpolations are entity-encoded before they reach an HTML body.
    """
    text = html.escape(message or describe_status(status))
    heading = html.escape(describe_status(status))
    body = f"<html><body><h1>{heading}</h1><p>{text}</p></body></html>"
    return Response(
        status=status,
        headers=Headers([("Content-Type", "text/html")]),
        body=body.encode("utf-8"),
    )
