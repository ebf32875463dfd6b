"""Tiny URL model: parse, join and resolve http URLs.

The instrumenter mints beacon URLs on the site's own host, agents resolve
relative links found in HTML, and the detector matches request paths against
registered beacons — all through this module, so URL normalisation rules
live in exactly one place.

A :class:`Url` is canonical by construction: everything that builds one
here — :meth:`Url.parse`, :func:`resolve_url`, :meth:`Url.with_path`,
:meth:`Url.sibling` — lowers scheme and host, normalises the path,
drops the fragment and refuses whitespace and control characters, so
``str(Url.parse(str(url))) == str(url)`` and the string *is* the
comparison form: the feature extractor keys on it without parsing it
again.  (Whitespace is refused rather than kept because the
string ends up in a request line and in the access log, where a tab or
a CR would pass for a field or line separator.)  The string is built
once per ``Url`` and kept.  Calling ``Url(...)`` directly skips all of
that; the parts are then the caller's to get right.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass
from typing import ClassVar

#: What no part of a URL may hold, as the inside of a character class.
_UNSAFE = r"\s\x00-\x1f\x7f"

_URL_RE = re.compile(
    r"^(?P<scheme>[a-zA-Z][a-zA-Z0-9+.-]*)://"
    rf"(?P<host>[^/:?#{_UNSAFE}]+)"
    r"(?::(?P<port>\d+))?"
    rf"(?P<path>/[^?#{_UNSAFE}]*)?"
    rf"(?:\?(?P<query>[^#{_UNSAFE}]*))?"
    r"(?:#(?P<fragment>.*))?$"
)
_UNSAFE_PATH_RE = re.compile(rf"[?#{_UNSAFE}]")
_UNSAFE_QUERY_RE = re.compile(rf"[#{_UNSAFE}]")

# A reference is absolute only when it *starts* with "scheme://".  A bare
# substring test would also fire on relative references whose query embeds
# an absolute URL ("/redirect?to=http://evil.example/").
_SCHEME_PREFIX_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://")


@dataclass(frozen=True)
class Url:
    """An absolute http(s) URL, normalised."""

    scheme: str
    host: str
    path: str = "/"
    query: str = ""
    port: int | None = None

    #: The string form once built; None (this class attribute) until
    #: then.  Not a field: __eq__, __hash__ and __repr__ do not see it.
    _text: ClassVar[str | None] = None

    def __post_init__(self) -> None:
        if self.scheme not in ("http", "https"):
            raise ValueError(f"unsupported scheme: {self.scheme!r}")
        if not self.host:
            raise ValueError("host must be non-empty")
        if not self.path.startswith("/"):
            raise ValueError(f"path must start with '/', got {self.path!r}")
        if self.port is not None and not 1 <= self.port <= 65535:
            raise ValueError(f"port out of range 1..65535: {self.port}")

    @classmethod
    def parse(cls, text: str) -> "Url":
        """Parse an absolute URL; raises ValueError on anything else."""
        match = _URL_RE.match(text.strip())
        if match is None:
            raise ValueError(f"unparseable absolute URL: {text!r}")
        scheme, host, port, path, query, _fragment = match.groups()
        return cls(
            scheme.lower(),
            host.lower(),
            _normalize_path(path) if path else "/",
            query or "",
            int(port) if port else None,
        )

    @property
    def origin(self) -> str:
        """``scheme://host[:port]`` with no trailing slash."""
        if self.port is None:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"

    @property
    def path_and_query(self) -> str:
        """Path plus ``?query`` when a query is present."""
        if self.query:
            return f"{self.path}?{self.query}"
        return self.path

    @property
    def filename(self) -> str:
        """Last path segment (may be empty for directory URLs)."""
        return self.path.rsplit("/", 1)[-1]

    @property
    def extension(self) -> str:
        """Lowercased filename extension without the dot, or ``""``."""
        name = self.filename
        if "." not in name:
            return ""
        return name.rsplit(".", 1)[-1].lower()

    def sibling(self, filename: str) -> "Url":
        """URL of ``filename`` in the same directory as this URL."""
        directory = self.path.rsplit("/", 1)[0]
        return self.with_path(f"{directory}/{filename}")

    def with_path(self, path: str, query: str = "") -> "Url":
        """Same origin, different path/query (held to what :meth:`parse`
        admits; raises ValueError otherwise)."""
        if _UNSAFE_PATH_RE.search(path) or _UNSAFE_QUERY_RE.search(query):
            raise ValueError(
                "path or query holds a character no URL may: "
                f"{path!r} {query!r}"
            )
        return Url(self.scheme, self.host, _normalize_path(path), query, self.port)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = f"{self.origin}{self.path_and_query}"
            object.__setattr__(self, "_text", text)
        return text

    def __getstate__(self) -> dict:
        # The fields alone: a pickled Url does not carry its string.
        state = self.__dict__.copy()
        state.pop("_text", None)
        return state


def _normalize_path(path: str) -> str:
    """Collapse ``.``/``..`` segments and duplicate slashes, keep leading slash."""
    if not path.startswith("/"):
        path = "/" + path
    if "//" not in path and "/." not in path and not path.endswith("/"):
        # No empty, dot or trailing segment: normpath would return it as is.
        return path
    normalized = posixpath.normpath(path)
    # normpath strips a trailing slash that is meaningful for directories;
    # the site model never relies on trailing slashes, so this is fine.
    if normalized == ".":
        return "/"
    return normalized


def resolve_url(base: Url, reference: str) -> Url:
    """Resolve an HTML link ``reference`` against the page URL ``base``.

    Handles absolute URLs, host-relative (``/a/b``), and document-relative
    (``img/x.jpg``, ``../y.css``) references.  Fragments are dropped because
    they never reach the server.
    """
    reference = reference.strip()
    if not reference:
        return base
    reference = reference.split("#", 1)[0]
    if not reference:
        return base
    if _SCHEME_PREFIX_RE.match(reference):
        return Url.parse(reference)
    if reference.startswith("//"):
        return Url.parse(f"{base.scheme}:{reference}")
    query = ""
    if "?" in reference:
        reference, query = reference.split("?", 1)
    if not reference:
        path = base.path
    elif reference.startswith("/"):
        path = reference
    else:
        directory = base.path.rsplit("/", 1)[0]
        path = f"{directory}/{reference}"
    return base.with_path(path, query)
