"""Tests for the CSS beacon, hidden link and UA probe primitives.

The CSS link and the hidden anchor have one spelling, the rewriter's, so
they are read off rewritten pages.
"""

from __future__ import annotations

from repro.html.links import extract_references
from repro.http.uri import Url
from repro.instrument.hidden_link import TRAP_IMAGE_NAME
from repro.instrument.keys import BeaconKind, InstrumentationRegistry
from repro.instrument.rewriter import PageInstrumenter
from repro.instrument.ua_probe import (
    interpret_ua_probe,
    sanitize_user_agent,
    ua_probe_prefix,
    ua_probe_script,
)

# A page without links of its own: every anchor on it is the rewriter's.
PAGE = "<html><head><title>t</title></head><body><p>x</p></body></html>"
URL = Url.parse("http://h.com/p.html")


def _rewritten(rng, pages: int = 1):
    """``pages`` rewrites of ``PAGE`` for one client, in order."""
    instrumenter = PageInstrumenter(InstrumentationRegistry(), rng)
    return [
        instrumenter.instrument(PAGE, URL, "1.2.3.4", float(n))
        for n in range(pages)
    ]


def _path(page, kind: BeaconKind) -> str:
    return next(p.path for p in page.probes if p.kind is kind)


class TestCssBeacon:
    def test_path_shape(self, rng):
        (page,) = _rewritten(rng)
        path = _path(page, BeaconKind.CSS_BEACON)
        assert path.endswith(".css")
        assert path[1:-4].isdigit()
        assert len(path[1:-4]) == 10

    def test_link_element(self, rng):
        # The beacon is linked as a stylesheet, so rendering browsers fetch it.
        (page,) = _rewritten(rng)
        path = _path(page, BeaconKind.CSS_BEACON)
        refs = extract_references(page.html)
        assert refs.stylesheets == [f"http://h.com{path}"]

    def test_distinct_per_page(self, rng):
        pages = _rewritten(rng, 50)
        paths = {_path(page, BeaconKind.CSS_BEACON) for page in pages}
        assert len(paths) == 50


class TestHiddenLink:
    def test_paths(self, rng):
        (page,) = _rewritten(rng)
        assert _path(page, BeaconKind.TRAP_PAGE).startswith("/hidden_")
        assert _path(page, BeaconKind.TRAP_IMAGE) == f"/{TRAP_IMAGE_NAME}"

    def test_anchor_is_invisible(self, rng):
        (page,) = _rewritten(rng)
        refs = extract_references(page.html)
        trap = _path(page, BeaconKind.TRAP_PAGE)
        assert refs.hidden_links == [f"http://h.com{trap}"]
        assert refs.visible_links == []

    def test_trap_image_is_an_embedded_object(self, rng):
        # Rendering browsers fetch the transparent image like any <img>.
        (page,) = _rewritten(rng)
        refs = extract_references(page.html)
        image = _path(page, BeaconKind.TRAP_IMAGE)
        assert f"http://h.com{image}" in refs.images


class TestSanitizeUserAgent:
    def test_paper_transform(self):
        # Lowercase, spaces removed — the paper's getuseragnt().
        assert sanitize_user_agent("Mozilla Compatible") == "mozillacompatible"

    def test_slashes_mapped(self):
        out = sanitize_user_agent("Firefox/1.5 (X11; Linux)")
        assert "/" not in out
        assert out == "firefox_1.5(x11;linux)"

    def test_idempotent(self):
        once = sanitize_user_agent("Mozilla/4.0 (compatible; MSIE 6.0)")
        assert sanitize_user_agent(once) == once


class TestUaProbe:
    def test_interpret_roundtrip(self, rng):
        prefix = ua_probe_prefix(rng.randrange(10**10))
        source = ua_probe_script(f"http://h.com{prefix}")
        template = interpret_ua_probe(source)
        assert template is not None
        url = template.fetch_url("Mozilla/4.0 (compatible; MSIE 6.0)")
        assert url.startswith(f"http://h.com{prefix}")
        assert url.endswith(".css")
        assert sanitize_user_agent("Mozilla/4.0 (compatible; MSIE 6.0)") in url

    def test_interpret_rejects_other_scripts(self):
        assert interpret_ua_probe("var a = 1;") is None
        assert interpret_ua_probe("") is None

    def test_probe_script_references_navigator(self, rng):
        (page,) = _rewritten(rng)
        (source,) = extract_references(page.html).inline_scripts
        assert "navigator.userAgent" in source
        assert "document.write" in source
        prefix = _path(page, BeaconKind.UA_PROBE)
        assert interpret_ua_probe(source).url_prefix == f"http://h.com{prefix}"

    def test_distinct_prefixes(self, rng):
        pages = _rewritten(rng, 30)
        prefixes = {_path(page, BeaconKind.UA_PROBE) for page in pages}
        assert len(prefixes) == 30
