"""Static resources an origin site is made of."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class ResourceKind(Enum):
    """Kinds of origin resources."""

    PAGE = "page"
    STYLESHEET = "stylesheet"
    SCRIPT = "script"
    IMAGE = "image"
    AUDIO = "audio"
    FAVICON = "favicon"
    CGI = "cgi"
    ROBOTS_TXT = "robots_txt"


CONTENT_TYPES: dict[ResourceKind, str] = {
    ResourceKind.PAGE: "text/html",
    ResourceKind.STYLESHEET: "text/css",
    ResourceKind.SCRIPT: "application/javascript",
    ResourceKind.IMAGE: "image/jpeg",
    ResourceKind.AUDIO: "audio/wav",
    ResourceKind.FAVICON: "image/x-icon",
    ResourceKind.CGI: "text/html",
    ResourceKind.ROBOTS_TXT: "text/plain",
}

_JPEG = b"\xff\xd8\xff\xe0JFIF\x00" * 4
_FILLER_UNITS: dict[ResourceKind, bytes] = {
    ResourceKind.STYLESHEET: b"body { margin: 0; } .c { color: #336699; }\n",
    ResourceKind.SCRIPT: b"function noop() { return 0; }\n",
    ResourceKind.IMAGE: _JPEG,
    ResourceKind.FAVICON: _JPEG,
    ResourceKind.AUDIO: b"RIFF\x00\x00WAVE" * 4,
}
#: One filler buffer per kind, every synthetic body a view of it.  A
#: larger request replaces the buffer (at least doubling it) rather than
#: resizing it, so the views already handed out keep the one they hold.
_FILLERS: dict[ResourceKind, bytes] = {}


@dataclass(frozen=True)
class Resource:
    """One servable origin object.

    Either a literal ``payload`` (``robots.txt``) or ``filler`` bytes of
    its kind's :func:`synthetic_body` — the origin simulator stands in
    for servers whose content a proxy never holds, so a site of
    thousands of images stores their sizes, not their bytes, and pickles
    as such.  Pages are rendered on demand by the origin from their
    :class:`PageSpec` so that link structure and body stay consistent.
    """

    path: str
    kind: ResourceKind
    payload: bytes = b""
    filler: int = 0

    def __post_init__(self) -> None:
        if not self.path.startswith("/"):
            raise ValueError(f"resource path must start with '/': {self.path!r}")

    @property
    def content_type(self) -> str:
        """The Content-Type the origin serves this resource with."""
        return CONTENT_TYPES[self.kind]

    @property
    def size(self) -> int:
        """Body size in bytes."""
        return len(self.payload) or self.filler

    @property
    def body(self) -> bytes | memoryview:
        """The bytes served: the payload, or a view of the kind's filler."""
        return self.payload or synthetic_body(self.kind, self.filler)


def synthetic_body(kind: ResourceKind, size: int) -> memoryview:
    """Deterministic filler of ``size`` bytes for a kind.

    The kind's unit pattern repeated and cut at ``size``, as a read-only
    zero-copy view of the kind's one buffer.
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    filler = _FILLERS.get(kind, b"")
    if len(filler) < size:
        unit = _FILLER_UNITS.get(kind, b"0123456789abcdef")
        repeats = max(size, 2 * len(filler)) // len(unit) + 1
        filler = _FILLERS[kind] = unit * repeats
    return memoryview(filler)[:size]
