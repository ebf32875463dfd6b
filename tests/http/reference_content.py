"""The previous ``classify_path``, kept here — and only here — as the
oracle the one-pass version is held to.

It took the extension through ``Url.extension`` (the original-case last
segment split with ``rsplit``, then lowered) and tested the query in
three separate places.
"""

from __future__ import annotations

from repro.http.content import _EXTENSION_KINDS, ContentKind
from repro.http.uri import Url


def classify_path(url: Url) -> ContentKind:
    path = url.path.lower()
    if path == "/favicon.ico":
        return ContentKind.FAVICON
    if path == "/robots.txt":
        return ContentKind.ROBOTS_TXT
    if "/cgi-bin/" in path:
        return ContentKind.CGI
    ext = url.extension
    kind = _EXTENSION_KINDS.get(ext)
    if kind is ContentKind.HTML and url.query:
        return ContentKind.CGI
    if kind is not None:
        return kind
    if ext == "" and url.query:
        return ContentKind.CGI
    if ext == "":
        # Directory-style URL: servers answer with HTML indexes.
        return ContentKind.HTML
    return ContentKind.OTHER
