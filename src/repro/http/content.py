"""Content-type vocabulary and request classification.

Table 2's attributes need every request bucketed as HTML / image / CGI /
embedded object, and the browser-test detector needs to recognise CSS,
JavaScript and favicon fetches.  Classification works both from the response
Content-Type (authoritative) and from the URL path (what the client *asked*
for, available before any response).
"""

from __future__ import annotations

from enum import Enum

from repro.http.uri import Url


class ContentKind(Enum):
    """Coarse object kinds meaningful to the detectors."""

    HTML = "html"
    CSS = "css"
    JAVASCRIPT = "javascript"
    IMAGE = "image"
    AUDIO = "audio"
    CGI = "cgi"
    FAVICON = "favicon"
    ROBOTS_TXT = "robots_txt"
    OTHER = "other"

    @property
    def is_embedded_object(self) -> bool:
        """Objects a browser fetches as part of rendering a page."""
        return self in (
            ContentKind.CSS,
            ContentKind.JAVASCRIPT,
            ContentKind.IMAGE,
            ContentKind.AUDIO,
            ContentKind.FAVICON,
        )

    @property
    def is_presentation(self) -> bool:
        """Presentation-only objects that goal-oriented robots skip (§2.2)."""
        return self in (ContentKind.CSS, ContentKind.IMAGE, ContentKind.AUDIO)


# Read once: on CPython 3.11 an ``Enum.MEMBER`` read is a class lookup.
_HTML, _, _, _IMAGE, _AUDIO, _CGI, _FAVICON, _ROBOTS_TXT, _OTHER = ContentKind

_EXTENSION_KINDS: dict[str, ContentKind] = {
    "html": ContentKind.HTML,
    "htm": ContentKind.HTML,
    "php": ContentKind.HTML,
    "asp": ContentKind.HTML,
    "css": ContentKind.CSS,
    "js": ContentKind.JAVASCRIPT,
    "jpg": ContentKind.IMAGE,
    "jpeg": ContentKind.IMAGE,
    "png": ContentKind.IMAGE,
    "gif": ContentKind.IMAGE,
    "bmp": ContentKind.IMAGE,
    "ico": ContentKind.IMAGE,
    "wav": ContentKind.AUDIO,
    "mp3": ContentKind.AUDIO,
    "cgi": ContentKind.CGI,
    "pl": ContentKind.CGI,
    "py": ContentKind.CGI,
}

_MIME_KINDS: dict[str, ContentKind] = {
    "text/html": ContentKind.HTML,
    "application/xhtml+xml": ContentKind.HTML,
    "text/css": ContentKind.CSS,
    "text/javascript": ContentKind.JAVASCRIPT,
    "application/javascript": ContentKind.JAVASCRIPT,
    "application/x-javascript": ContentKind.JAVASCRIPT,
    "audio/wav": ContentKind.AUDIO,
    "audio/mpeg": ContentKind.AUDIO,
    "text/plain": ContentKind.OTHER,
}

_CONTENT_TYPES: dict[ContentKind, str] = {
    ContentKind.HTML: "text/html",
    ContentKind.CSS: "text/css",
    ContentKind.JAVASCRIPT: "application/javascript",
    ContentKind.IMAGE: "image/jpeg",
    ContentKind.AUDIO: "audio/wav",
    ContentKind.CGI: "text/html",
    ContentKind.FAVICON: "image/x-icon",
    ContentKind.ROBOTS_TXT: "text/plain",
    ContentKind.OTHER: "application/octet-stream",
}


def classify_path(url: Url) -> ContentKind:
    """Classify a request by URL alone (used before/without a response).

    CGI is recognised both by extension (.cgi/.pl) and by the conventional
    ``/cgi-bin/`` prefix or a query string on a script path, matching how
    the paper's operators counted "CGI request rate".  The path is
    lowered once; the extension follows the last dot of its last segment.
    """
    path = url.path.lower()
    if path == "/favicon.ico":
        return _FAVICON
    if path == "/robots.txt":
        return _ROBOTS_TXT
    if "/cgi-bin/" in path:
        return _CGI
    name = path.rpartition("/")[2]
    ext = name.rpartition(".")[2] if "." in name else ""
    kind = _EXTENSION_KINDS.get(ext)
    if kind is not None:
        return _CGI if kind is _HTML and url.query else kind
    if ext:
        return _OTHER
    # No extension: a script with a query, else a directory-style URL,
    # which servers answer with an HTML index.
    return _CGI if url.query else _HTML


def classify_content_type(content_type: str | None) -> ContentKind:
    """Classify a response Content-Type header value."""
    if content_type is None:
        return _OTHER
    mime = content_type.split(";", 1)[0].strip().lower()
    if mime.startswith("image/"):
        return _IMAGE
    if mime.startswith("audio/"):
        return _AUDIO
    return _MIME_KINDS.get(mime, _OTHER)


def content_type_for_path(url: Url) -> str:
    """The Content-Type an origin should attach when serving ``url``."""
    kind = classify_path(url)
    if kind is ContentKind.IMAGE and url.extension in ("png", "gif"):
        return f"image/{url.extension}"
    if kind is ContentKind.FAVICON:
        return "image/x-icon"
    return _CONTENT_TYPES[kind]
