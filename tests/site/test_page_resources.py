"""Tests for repro.site.page and repro.site.resources."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.html.links import extract_references
from repro.site import resources
from repro.site.page import PageSpec
from repro.site.resources import Resource, ResourceKind, synthetic_body


class TestPageSpec:
    def test_render_links_extractable(self):
        page = PageSpec(
            path="/a.html",
            title="A",
            links=["/b.html", "/c.html"],
            stylesheets=["/s.css"],
            scripts=["/j.js"],
            images=["/i.jpg"],
            cgi_links=["/cgi-bin/s.cgi?q=term1"],
        )
        refs = extract_references(page.render())
        assert set(refs.visible_links) == {
            "/b.html", "/c.html", "/cgi-bin/s.cgi?q=term1"
        }
        assert refs.stylesheets == ["/s.css"]
        assert refs.scripts == ["/j.js"]
        assert refs.images == ["/i.jpg"]

    def test_embedded_objects(self):
        page = PageSpec(
            path="/a.html", title="A",
            stylesheets=["/s.css"], scripts=["/j.js"], images=["/i.jpg"],
        )
        assert page.embedded_objects == ["/s.css", "/j.js", "/i.jpg"]

    def test_paragraph_count(self):
        page = PageSpec(path="/a.html", title="A", paragraphs=3)
        assert page.render().count("<p>") == 3

    def test_invalid_path(self):
        with pytest.raises(ValueError):
            PageSpec(path="a.html", title="A")

    def test_negative_paragraphs(self):
        with pytest.raises(ValueError):
            PageSpec(path="/a.html", title="A", paragraphs=-1)


class TestResource:
    def test_content_types(self):
        assert Resource("/a.css", ResourceKind.STYLESHEET).content_type == (
            "text/css"
        )
        assert Resource("/a.js", ResourceKind.SCRIPT).content_type == (
            "application/javascript"
        )

    def test_size(self):
        r = Resource("/a.css", ResourceKind.STYLESHEET, b"abc")
        assert r.size == 3
        assert r.body == b"abc"

    def test_filler_is_a_view_of_the_kinds_synthetic_body(self):
        r = Resource("/a.jpg", ResourceKind.IMAGE, filler=3000)
        assert r.size == len(r.body) == 3000
        assert isinstance(r.body, memoryview)
        assert r.body == reference_body(ResourceKind.IMAGE, 3000)

    def test_pickles_as_its_size_not_its_bytes(self):
        r = Resource("/a.jpg", ResourceKind.IMAGE, filler=30000)
        wire = pickle.dumps(r)
        assert len(wire) < 300
        again = pickle.loads(wire)
        assert again == r
        assert again.body == r.body

    def test_invalid_path(self):
        with pytest.raises(ValueError):
            Resource("a.css", ResourceKind.STYLESHEET)


def reference_body(kind: ResourceKind, size: int) -> bytes:
    """``synthetic_body`` as it was when every body was its own copy.

    Kept here as the reference the shared-buffer version must equal,
    byte for byte: recorded scripts check every response's length and
    the site digest hashes every body.
    """
    if kind is ResourceKind.STYLESHEET:
        unit = b"body { margin: 0; } .c { color: #336699; }\n"
    elif kind is ResourceKind.SCRIPT:
        unit = b"function noop() { return 0; }\n"
    elif kind is ResourceKind.IMAGE or kind is ResourceKind.FAVICON:
        unit = b"\xff\xd8\xff\xe0JFIF\x00" * 4
    elif kind is ResourceKind.AUDIO:
        unit = b"RIFF\x00\x00WAVE" * 4
    else:
        unit = b"0123456789abcdef"
    if size == 0:
        return b""
    repeats = size // len(unit) + 1
    return (unit * repeats)[:size]


class TestSyntheticBody:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(ResourceKind),
                st.integers(min_value=0, max_value=200_000),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_equals_reference_in_any_order_of_sizes(self, asks):
        # A later, larger ask replaces the kind's buffer; the views
        # handed out before it must still read what they read.  Every
        # example starts from no buffer, so that growth is exercised.
        resources._FILLERS.clear()
        views = [synthetic_body(kind, size) for kind, size in asks]
        for view, (kind, size) in zip(views, asks):
            assert bytes(view) == reference_body(kind, size)
            assert len(view) == size
            assert view == reference_body(kind, size)

    def test_view_is_read_only(self):
        view = synthetic_body(ResourceKind.SCRIPT, 64)
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 0

    @pytest.mark.parametrize(
        "kind",
        [
            ResourceKind.STYLESHEET,
            ResourceKind.SCRIPT,
            ResourceKind.IMAGE,
            ResourceKind.AUDIO,
            ResourceKind.PAGE,
        ],
    )
    def test_size_respected(self, kind):
        body = synthetic_body(kind, 500)
        assert len(body) == 500

    def test_zero_size(self):
        assert synthetic_body(ResourceKind.IMAGE, 0) == b""

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            synthetic_body(ResourceKind.IMAGE, -1)
