"""Origin HTTP server for a generated :class:`~repro.site.generator.Website`.

Serves pages (rendered from their specs), static resources, CGI endpoints
and errors.  Response behaviour is deterministic per request (hash-based),
so replaying a workload reproduces identical status streams:

* CGI queries answer with a 302 redirect to a results page about a third
  of the time, otherwise 200 — this is the main source of the 3xx
  responses that Table 2's ``RESPCODE_3XX%`` attribute keys on for humans.
* Unknown paths (vulnerability probes, stale deep links) answer 404.
* HEAD requests return status and headers with an empty body.
"""

from __future__ import annotations

import hashlib
from itertools import islice

from repro.http.headers import Headers
from repro.http.message import Method, Request, Response, error_response
from repro.site.generator import Website
from repro.site.page import PageSpec
from repro.site.resources import CONTENT_TYPES, Resource, ResourceKind

_REDIRECT_PERCENT = 35
_RESULTS_PREFIX = "/cgi-bin/results/"
#: The one header of a static response, built once per kind.
_CONTENT_TYPE_ENTRIES = {
    kind: [("Content-Type", content_type)]
    for kind, content_type in CONTENT_TYPES.items()
}


class OriginServer:
    """Serves one website; stateless between requests."""

    def __init__(self, website: Website) -> None:
        self._site = website

    @property
    def website(self) -> Website:
        """The site being served."""
        return self._site

    def handle(self, request: Request) -> Response:
        """Produce the origin's response to ``request``."""
        if request.url.host != self._site.host:
            return error_response(502, f"unknown origin host {request.url.host}")
        if request.method is Method.POST:
            return self._handle_cgi(request)

        path = request.url.path
        response = self._lookup(request, path)
        if request.method is Method.HEAD:
            return Response(
                status=response.status, headers=response.headers, body=b""
            )
        return response

    # -- internals --------------------------------------------------------

    def _lookup(self, request: Request, path: str) -> Response:
        page = self._site.page(path)
        if page is not None:
            return _page_response(page)

        resource = self._site.resource(path)
        if resource is not None:
            return _resource_response(resource)

        if path in self._site.cgi_paths or path.startswith("/cgi-bin/"):
            if path.startswith(_RESULTS_PREFIX):
                return _page_response(self._results_page(path))
            if path in self._site.cgi_paths:
                return self._handle_cgi(request)
            return error_response(404, f"no such CGI: {path}")

        return error_response(404, f"no such path: {path}")

    def _handle_cgi(self, request: Request) -> Response:
        query = request.url.query
        token = _stable_hash(f"{request.url.path}?{query}")
        # Only interactive search queries (the "q=term..." links pages
        # carry) redirect to result pages; machine-generated parameters
        # (ad clicks, probes) answer directly — matching the paper's
        # observation that robot requests rarely produce redirections.
        interactive = query.startswith("q=term")
        if interactive and token % 100 < _REDIRECT_PERCENT:
            target = f"{_RESULTS_PREFIX}r{token % 100000:05d}.html"
            headers = Headers(
                [
                    ("Content-Type", "text/html"),
                    ("Location", f"http://{self._site.host}{target}"),
                ]
            )
            return Response(status=302, headers=headers, body=b"")
        return _page_response(self._results_page(f"r{token % 100000:05d}"))

    def _results_page(self, token: str) -> PageSpec:
        """A synthetic search-results page linking back into the site."""
        seed = _stable_hash(token)
        paths = self._site.page_paths
        links = [paths[(seed + i * 7) % len(paths)] for i in range(5)]
        # De-duplicate while keeping order.
        links = list(dict.fromkeys(links))
        # The site's first stylesheet; the scan stops there (shared
        # stylesheets are generated first, ahead of thousands of images).
        stylesheets = (
            r.path
            for r in self._site.resources.values()
            if r.kind is ResourceKind.STYLESHEET
        )
        return PageSpec(
            path=f"{_RESULTS_PREFIX}{token.rsplit('/', 1)[-1]}",
            title="Search results",
            links=links,
            stylesheets=list(islice(stylesheets, 1)),
            images=[],
            paragraphs=1,
        )


def _page_response(page: PageSpec) -> Response:
    body = page.render().encode("utf-8")
    return Response(
        status=200,
        headers=Headers([("Content-Type", "text/html")]),
        body=body,
    )


def _resource_response(resource: Resource) -> Response:
    return Response(
        status=200,
        headers=Headers(_CONTENT_TYPE_ENTRIES[resource.kind]),
        body=resource.body,
    )


def _stable_hash(text: str) -> int:
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")
