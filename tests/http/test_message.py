"""Tests for repro.http.message."""

from __future__ import annotations

import html

import pytest

from repro.http.content import ContentKind
from repro.http.headers import Headers
from repro.http.message import (
    Method,
    Request,
    Response,
    error_response,
    html_response,
)
from repro.http.status import StatusClass, describe_status
from repro.http.uri import Url


def _request(path: str = "/a.html", **kwargs) -> Request:
    return Request(
        method=kwargs.pop("method", Method.GET),
        url=Url.parse(f"http://e.com{path}"),
        client_ip=kwargs.pop("client_ip", "10.0.0.1"),
        headers=kwargs.pop("headers", Headers([("User-Agent", "UA")])),
        timestamp=kwargs.pop("timestamp", 1.0),
    )


class TestRequest:
    def test_fields(self):
        req = _request()
        assert req.user_agent == "UA"
        assert req.referer is None
        assert req.path_kind is ContentKind.HTML

    def test_referer(self):
        req = _request(headers=Headers([("Referer", "http://x/")]))
        assert req.referer == "http://x/"
        assert req.user_agent == ""

    def test_empty_ip_rejected(self):
        with pytest.raises(ValueError):
            _request(client_ip="")

    def test_describe(self):
        assert _request().describe() == "GET http://e.com/a.html"


class TestResponse:
    def test_status_class(self):
        assert Response(status=302).status_class is StatusClass.REDIRECT

    def test_invalid_status_rejected(self):
        with pytest.raises(ValueError):
            Response(status=999)

    def test_content_kind(self):
        resp = Response(
            status=200,
            headers=Headers([("Content-Type", "image/gif")]),
            body=b"xx",
        )
        assert resp.content_kind is ContentKind.IMAGE
        assert resp.size == 2

    def test_text_decoding(self):
        resp = Response(status=200, body="héllo".encode("utf-8"))
        assert resp.text == "héllo"

    def test_describe(self):
        resp = html_response("<html></html>")
        assert "200 OK" in resp.describe()
        assert "text/html" in resp.describe()


class TestConstructors:
    def test_html_response(self):
        resp = html_response("<p>x</p>")
        assert resp.status == 200
        assert resp.content_kind is ContentKind.HTML
        assert not resp.headers.is_uncacheable()

    def test_html_response_uncacheable(self):
        resp = html_response("<p>x</p>", uncacheable=True)
        assert resp.headers.is_uncacheable()

    def test_error_response(self):
        resp = error_response(404)
        assert resp.status == 404
        assert b"Not Found" in resp.body

    def test_error_response_escapes_message(self):
        # The message may echo request-derived text; a live server must
        # never reflect it as markup.
        resp = error_response(400, "bad url <script>alert(1)</script>")
        assert b"<script>" not in resp.body
        assert b"&lt;script&gt;alert(1)&lt;/script&gt;" in resp.body

    def test_error_response_escapes_ampersand(self):
        resp = error_response(404, "no route to /a?b=1&c=2")
        assert b"b=1&amp;c=2" in resp.body

    @pytest.mark.parametrize(
        "message", [None, "", "no route to h.com", "<&>\"'", "é ☃ \x00"]
    )
    def test_error_response_is_what_it_was_made_from_scratch(self, message):
        """The heading and the start of the body are kept per status; the
        bytes are those of the page built afresh each time, as it was."""
        for status in (400, 403, 404, 418, 502, 503, 599, 100, 200):
            for _ in range(2):  # first call for a status, then a reuse
                resp = error_response(status, message)
                heading = html.escape(describe_status(status))
                text = html.escape(message or describe_status(status))
                assert bytes(resp.body) == (
                    f"<html><body><h1>{heading}</h1><p>{text}</p></body></html>"
                ).encode("utf-8")
                assert list(resp.headers) == [("Content-Type", "text/html")]
                assert resp.content_type == "text/html"

    def test_error_responses_share_no_headers(self):
        """A refusal's headers are edited in place downstream (the ladder
        adds its stage), so each response gets its own."""
        first, second = error_response(502, "x"), error_response(502, "x")
        first.headers.set("x-robot-ladder", "block")
        assert second.headers.get("x-robot-ladder") is None

    def test_error_response_refuses_an_invalid_status(self):
        with pytest.raises(ValueError):
            error_response(600)
