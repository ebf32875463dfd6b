"""HTTP status codes and status-class helpers.

The AdaBoost attributes in Table 2 include the fraction of responses in the
2xx, 3xx and 4xx classes, so status classification is part of the feature
pipeline, not just cosmetics.
"""

from __future__ import annotations

from enum import Enum

_REASONS: dict[int, str] = {
    200: "OK",
    204: "No Content",
    206: "Partial Content",
    301: "Moved Permanently",
    302: "Found",
    303: "See Other",
    304: "Not Modified",
    307: "Temporary Redirect",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
    505: "HTTP Version Not Supported",
}


class StatusClass(Enum):
    """Coarse status classes as used by the paper's feature set."""

    INFORMATIONAL = "1xx"
    SUCCESS = "2xx"
    REDIRECT = "3xx"
    CLIENT_ERROR = "4xx"
    SERVER_ERROR = "5xx"


# Read once (an ``Enum.MEMBER`` read is a class lookup), in definition order.
_INFORMATIONAL, _SUCCESS, _REDIRECT, _CLIENT_ERROR, _SERVER_ERROR = StatusClass


def status_class(code: int) -> StatusClass:
    """Map a status code to its class; raises on out-of-range codes."""
    if 200 <= code <= 299:
        return _SUCCESS
    if 300 <= code <= 399:
        return _REDIRECT
    if 400 <= code <= 499:
        return _CLIENT_ERROR
    if 500 <= code <= 599:
        return _SERVER_ERROR
    if 100 <= code <= 199:
        return _INFORMATIONAL
    raise ValueError(f"invalid HTTP status code: {code}")


def is_success(code: int) -> bool:
    """True for 2xx responses."""
    return 200 <= code <= 299


def is_redirect(code: int) -> bool:
    """True for 3xx responses."""
    return 300 <= code <= 399


def is_client_error(code: int) -> bool:
    """True for 4xx responses."""
    return 400 <= code <= 499


def is_server_error(code: int) -> bool:
    """True for 5xx responses."""
    return 500 <= code <= 599


def describe_status(code: int) -> str:
    """Return ``"404 Not Found"``-style text (generic reason if unknown)."""
    reason = _REASONS.get(code)
    if reason is None:
        reason = status_class(code).value.upper()
    return f"{code} {reason}"
