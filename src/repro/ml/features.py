"""Table 2's 12 session attributes, computed incrementally.

| Attribute          | Explanation                                   |
|--------------------|-----------------------------------------------|
| HEAD %             | % of HEAD commands                            |
| HTML %             | % of HTML requests                            |
| IMAGE %            | % of image (content type = image/*) responses |
| CGI %              | % of CGI requests                             |
| REFERRER %         | % of requests carrying a Referer header       |
| UNSEEN REFERRER %  | % of requests whose Referer was never visited |
| EMBEDDED OBJ %     | % of requests for objects embedded in a       |
|                    | previously fetched page                       |
| LINK FOLLOWING %   | % of requests for links seen in a previously  |
|                    | fetched page                                  |
| RESPCODE 2XX %     | % of responses with a 2xx status              |
| RESPCODE 3XX %     | % of responses with a 3xx status              |
| RESPCODE 4XX %     | % of responses with a 4xx status              |
| FAVICON %          | % of favicon.ico requests                     |

The accumulator consumes (request, response) pairs in arrival order and
can be snapshotted at any request count, which is how the Figure 4
classifiers "built at multiples of 20 requests" get their inputs.  The
link/embedded-object attributes require remembering what each fetched
HTML page referenced — the memory cost §4.2 warns about — so the
reference sets are explicitly bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.html.links import extract_references
from repro.http.content import ContentKind
from repro.http.message import Method, Request, Response
from repro.http.status import StatusClass
from repro.http.uri import Url, resolve_url

ATTRIBUTE_NAMES: tuple[str, ...] = (
    "HEAD%",
    "HTML%",
    "IMAGE%",
    "CGI%",
    "REFERRER%",
    "UNSEEN_REFERRER%",
    "EMBEDDED_OBJ%",
    "LINK_FOLLOWING%",
    "RESPCODE_2XX%",
    "RESPCODE_3XX%",
    "RESPCODE_4XX%",
    "FAVICON%",
)

N_ATTRIBUTES = len(ATTRIBUTE_NAMES)

FeatureVector = np.ndarray


@dataclass
class FeatureAccumulator:
    """Streaming computation of the 12 attributes for one session."""

    max_tracked_urls: int = 20000

    total: int = 0
    head: int = 0
    html: int = 0
    image: int = 0
    cgi: int = 0
    with_referrer: int = 0
    unseen_referrer: int = 0
    embedded_obj: int = 0
    link_following: int = 0
    resp_2xx: int = 0
    resp_3xx: int = 0
    resp_4xx: int = 0
    favicon: int = 0

    _visited: set[str] = field(default_factory=set, repr=False)
    _known_embedded: set[str] = field(default_factory=set, repr=False)
    _known_links: set[str] = field(default_factory=set, repr=False)
    #: The last Referer seen and its comparison form: the objects of
    #: one page all name that page, so most requests repeat it.
    _last_referer: tuple[str, str] = field(
        default=("", ""), repr=False, compare=False
    )

    def observe(self, request: Request, response: Response) -> None:
        """Account one exchange (call in arrival order)."""
        self.total += 1
        kind = request.path_kind

        if request.method is Method.HEAD:
            self.head += 1
        # The paper's HTML% counts page requests; CGI responses are
        # HTML too but are broken out separately.
        if kind is ContentKind.HTML:
            self.html += 1
        if kind is ContentKind.CGI:
            self.cgi += 1
        if kind is ContentKind.FAVICON:
            self.favicon += 1
        if response.content_kind is ContentKind.IMAGE:
            self.image += 1

        referer = request.referer
        if referer:
            self.with_referrer += 1
            if referer != self._last_referer[0]:
                self._last_referer = (referer, _normalize(referer))
            if self._last_referer[1] not in self._visited:
                self.unseen_referrer += 1

        # A Url is canonical by construction (repro.http.uri), so its
        # string is already the comparison form.
        normalized = str(request.url)
        if normalized in self._known_embedded:
            self.embedded_obj += 1
        if normalized in self._known_links:
            self.link_following += 1

        klass = response.status_class
        if klass is StatusClass.SUCCESS:
            self.resp_2xx += 1
        elif klass is StatusClass.REDIRECT:
            self.resp_3xx += 1
        elif klass is StatusClass.CLIENT_ERROR:
            self.resp_4xx += 1

        self._remember(self._visited, normalized)

        if (
            response.status == 200
            and response.content_kind is ContentKind.HTML
            and response.body
        ):
            self._index_page(request.url, response)

    def vector(self) -> FeatureVector:
        """The 12 attributes as percentages (zeros before any request)."""
        if self.total == 0:
            return np.zeros(N_ATTRIBUTES)
        scale = 100.0 / self.total
        return np.array(
            [
                self.head * scale,
                self.html * scale,
                self.image * scale,
                self.cgi * scale,
                self.with_referrer * scale,
                self.unseen_referrer * scale,
                self.embedded_obj * scale,
                self.link_following * scale,
                self.resp_2xx * scale,
                self.resp_3xx * scale,
                self.resp_4xx * scale,
                self.favicon * scale,
            ]
        )

    # -- internals ----------------------------------------------------------

    def _index_page(self, page_url: Url, response: Response) -> None:
        """Remember what a fetched page links to / embeds."""
        refs = extract_references(response.text)
        for bucket, references in (
            (self._known_embedded, refs.embedded_objects),
            (self._known_links, refs.all_links),
        ):
            for reference in references:
                try:
                    target = resolve_url(page_url, reference)
                except ValueError:
                    # Not a URL the front door admits (a space, port 0):
                    # no request can name it, so there is nothing to match.
                    continue
                self._remember(bucket, str(target))

    def _remember(self, bucket: set[str], value: str) -> None:
        if len(bucket) < self.max_tracked_urls:
            bucket.add(value)


def _normalize(url_text: str) -> str:
    """Comparison form of a URL (scheme/host lowering, fragment removal)."""
    try:
        return str(Url.parse(url_text))
    except ValueError:
        return url_text.strip().lower()
