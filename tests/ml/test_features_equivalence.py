"""``FeatureAccumulator.observe`` against the one it replaced.

PR 19's ``observe`` takes the request ``Url``'s own string as its
comparison form (the old one rendered the ``Url`` and parsed the text
back), remembers the last Referer it normalised, and tests the path
kind once.  The old ``observe`` lives on here — and only here — as the
reference: after every exchange the two accumulators must hold
bit-equal vectors and equal URL sets.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.html.links import extract_references
from repro.http.content import ContentKind
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response, html_response
from repro.http.status import StatusClass
from repro.http.uri import Url, resolve_url
from repro.ml.features import FeatureAccumulator
from repro.proxy.network import ProxyNetwork
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE


def _old_normalize(url_text: str) -> str:
    try:
        return str(Url.parse(url_text))
    except ValueError:
        return url_text.strip().lower()


class ReferenceAccumulator(FeatureAccumulator):
    """The accumulator with ``observe`` and ``_index_page`` as they were."""

    def observe(self, request: Request, response: Response) -> None:
        self.total += 1
        url_text = str(request.url)
        kind = request.path_kind

        if request.method is Method.HEAD:
            self.head += 1
        if kind is ContentKind.HTML or kind is ContentKind.CGI:
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
            if _old_normalize(referer) not in self._visited:
                self.unseen_referrer += 1

        normalized = _old_normalize(url_text)
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
            refs = extract_references(response.text)
            for reference in refs.embedded_objects:
                self._remember(
                    self._known_embedded,
                    _old_normalize(str(resolve_url(request.url, reference))),
                )
            for reference in refs.all_links:
                self._remember(
                    self._known_links,
                    _old_normalize(str(resolve_url(request.url, reference))),
                )


def _assert_same(new: FeatureAccumulator, old: ReferenceAccumulator) -> None:
    assert new.vector().tobytes() == old.vector().tobytes()
    assert new._visited == old._visited
    assert new._known_embedded == old._known_embedded
    assert new._known_links == old._known_links


def test_identical_over_a_recorded_smoke_workload(small_site, small_origin):
    """Every session of a smoke run, pages parsed and links indexed."""
    network = ProxyNetwork(
        origins={small_site.host: small_origin},
        rng=RngStream(19, "net"),
        n_nodes=2,
    )
    sessions: dict = defaultdict(list)
    network.add_tap(
        lambda request, response: sessions[
            (request.client_ip, request.user_agent)
        ].append((request, response))
    )
    WorkloadEngine(
        network,
        SMOKE,
        f"http://{small_site.host}{small_site.home_path}",
        RngStream(19, "wl"),
        WorkloadConfig(n_sessions=40, captcha_enabled=False),
    ).run()

    exchanges = sum(len(session) for session in sessions.values())
    assert len(sessions) >= 30 and exchanges > 500
    followed = 0
    for session in sessions.values():
        new, old = FeatureAccumulator(), ReferenceAccumulator()
        for request, response in session:
            new.observe(request, response)
            old.observe(request, response)
            _assert_same(new, old)
        followed += new.link_following + new.embedded_obj
    assert followed > 0  # the run did exercise the indexed-page matching


# -- generated sequences ------------------------------------------------------

_PAGE = (
    '<html><head><link rel="stylesheet" href="/S.css"></head><body>'
    '<a href="p1.html">x</a><a href="/Dir/p2.html?q=1#top">y</a>'
    '<a href="../up.html">z</a><img src="i.png"><img src="HTTP://H.com/j.png">'
    "</body></html>"
)
_url_texts = st.sampled_from(
    [
        "http://h.com/",
        "http://h.com/p1.html",
        "http://H.COM/p1.html",
        "http://h.com/Dir/p2.html?q=1",
        "http://h.com/dir/../p1.html",
        "http://h.com//p1.html",
        "http://h.com/dir/",
        "http://h.com/up.html#frag",
        "http://h.com:80/i.png",
        "http://h.com/i.png",
        "http://h.com/j.png",
        "http://h.com/S.css",
        "http://h.com/favicon.ico",
        "http://h.com/cgi-bin/x.cgi?a=b?c",
        "https://h.com/p1.html",
    ]
)
_referers = st.one_of(
    st.none(),
    _url_texts,
    _url_texts.map(lambda text: "  " + text + " "),
    st.sampled_from(["", "-", "not a url", "HTTP://H.com/P1.html ", "http://h.com/a b"]),
)


@st.composite
def _exchanges(draw):
    headers = Headers()
    referer = draw(_referers)
    if referer is not None:
        headers.add("Referer", referer)
    request = Request(
        method=draw(st.sampled_from(list(Method))),
        url=Url.parse(draw(_url_texts)),
        client_ip="1.1.1.1",
        headers=headers,
    )
    response = draw(
        st.sampled_from(
            [
                html_response(_PAGE),
                html_response("<html></html>"),
                Response(200, Headers([("Content-Type", "image/png")]), b"x"),
                Response(304),
                Response(404, Headers([("Content-Type", "text/html")])),
                Response(502),
            ]
        )
    )
    return request, response


@settings(max_examples=300, deadline=None)
@given(st.lists(_exchanges(), max_size=25))
def test_identical_over_generated_sequences(sequence):
    new, old = FeatureAccumulator(), ReferenceAccumulator()
    for request, response in sequence:
        new.observe(request, response)
        old.observe(request, response)
        _assert_same(new, old)


def test_unresolvable_references_are_skipped_not_raised():
    """A page may link to what no request can name (a space in the
    path, port 0); the old ``observe`` raised on the second."""
    page = (
        '<html><body><a href="a b.html">x</a><a href="ok.html">y</a>'
        '<img src="http://h.com:0/i.png"><img src="fine.png"></body></html>'
    )
    request = Request(Method.GET, Url.parse("http://h.com/d/index.html"), "1.1.1.1")
    accumulator = FeatureAccumulator()
    accumulator.observe(request, html_response(page))
    assert accumulator._known_links == {"http://h.com/d/ok.html"}
    assert accumulator._known_embedded == {"http://h.com/d/fine.png"}
    assert np.all(np.isfinite(accumulator.vector()))
