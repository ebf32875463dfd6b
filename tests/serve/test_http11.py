"""Tests for repro.serve.http11: byte-level framing."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.headers import Headers
from repro.http.message import Method, Response, error_response, html_response
from repro.http.uri import Url
from repro.serve.http11 import (
    _FRAMING_HEADERS,
    Http11Limits,
    HttpParseError,
    parse_request,
    read_request,
    read_response,
    render_response,
)
from repro.serve.swarm import render_request


def parse(data: bytes, **kwargs):
    """The whole stream at once, then EOF: a request, or None."""
    framed = parse_request(bytearray(data), eof=True, **kwargs)
    return framed[0] if framed is not None else None


def refuse(data: bytes, **kwargs) -> HttpParseError:
    with pytest.raises(HttpParseError) as excinfo:
        parse(data, **kwargs)
    return excinfo.value


class TestRequestLine:
    def test_origin_form_with_host(self):
        parsed = parse(
            b"GET /a.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n"
        )
        assert parsed.method is Method.GET
        assert parsed.url.host == "www.example.com"
        assert parsed.url.path == "/a.html"
        assert parsed.keep_alive

    def test_absolute_form(self):
        parsed = parse(
            b"GET http://www.example.com/x?a=1 HTTP/1.1\r\n\r\n"
        )
        assert parsed.url.host == "www.example.com"
        assert parsed.url.path == "/x"
        assert parsed.url.query == "a=1"

    def test_origin_form_with_default_host(self):
        parsed = parse(
            b"GET / HTTP/1.1\r\n\r\n", default_host="fallback.example"
        )
        assert parsed.url.host == "fallback.example"

    def test_origin_form_without_any_host_is_400(self):
        exc = refuse(b"GET / HTTP/1.1\r\n\r\n")
        assert exc.status == 400

    def test_query_embedded_absolute_url_routes_by_host_header(self):
        # The wire-level face of the resolve_url substring bug: an
        # origin-form target whose query embeds an absolute URL must
        # stay on the request's own host.
        parsed = parse(
            b"GET /redirect?to=http://evil.example/ HTTP/1.1\r\n"
            b"Host: www.example.com\r\n\r\n"
        )
        assert parsed.url.host == "www.example.com"
        assert parsed.url.path == "/redirect"
        assert parsed.url.query == "to=http://evil.example/"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_stray_blank_line_between_requests_tolerated(self):
        parsed = parse(
            b"\r\nGET /a HTTP/1.1\r\nHost: h.example\r\n\r\n"
        )
        assert parsed.url.path == "/a"

    def test_malformed_request_line_is_400(self):
        assert refuse(b"garbage\r\n\r\n").status == 400

    def test_two_part_request_line_is_400(self):
        assert refuse(b"GET /a\r\n\r\n").status == 400

    def test_unknown_method_is_501(self):
        exc = refuse(b"DELETE /a HTTP/1.1\r\nHost: h\r\n\r\n")
        assert exc.status == 501

    def test_unsupported_version_is_505(self):
        exc = refuse(b"GET /a HTTP/9.9\r\nHost: h\r\n\r\n")
        assert exc.status == 505

    def test_oversized_request_line_is_431(self):
        line = b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n"
        assert refuse(line).status == 431

    def test_bad_target_is_400(self):
        exc = refuse(b"GET <script>x</script> HTTP/1.1\r\nHost: h\r\n\r\n")
        assert exc.status == 400

    def test_partial_request_line_at_eof_is_400(self):
        assert refuse(b"GET /a HT").status == 400


class TestHeaders:
    def test_header_values_parsed(self):
        parsed = parse(
            b"GET /a HTTP/1.1\r\nHost: h.example\r\n"
            b"User-Agent: UA/1.0\r\nReferer: http://h.example/\r\n\r\n"
        )
        assert parsed.headers.get("User-Agent") == "UA/1.0"
        assert parsed.headers.get("Referer") == "http://h.example/"

    def test_parsed_headers_equal_added_headers(self):
        parsed = parse(
            b"GET /a HTTP/1.1\r\nHost: h.example\r\nUSER-agent: UA\r\n"
            b"Connection: close\r\nx-a: 1\r\nX-A: 2\r\n\r\n"
        )
        assert parsed.headers == Headers(list(parsed.headers))
        assert parsed.headers.get("User-Agent") == "UA"
        assert parsed.headers.get_all("x-A") == ["1", "2"]

    def test_framing_headers_stripped_from_pipeline_view(self):
        parsed = parse(
            b"GET /a HTTP/1.1\r\nHost: h.example\r\n"
            b"Connection: keep-alive\r\nUser-Agent: UA\r\n\r\n"
        )
        assert "Host" not in parsed.headers
        assert "Connection" not in parsed.headers

    def test_too_many_headers_is_431(self):
        fields = b"".join(
            b"X-F%d: v\r\n" % index for index in range(200)
        )
        exc = refuse(b"GET /a HTTP/1.1\r\nHost: h\r\n" + fields + b"\r\n")
        assert exc.status == 431

    def test_oversized_header_block_is_431(self):
        fields = b"".join(
            b"X-F%d: %s\r\n" % (index, b"v" * 1000)
            for index in range(40)
        )
        exc = refuse(b"GET /a HTTP/1.1\r\nHost: h\r\n" + fields + b"\r\n")
        assert exc.status == 431

    def test_folded_header_is_400(self):
        exc = refuse(
            b"GET /a HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n folded\r\n\r\n"
        )
        assert exc.status == 400

    def test_header_without_colon_is_400(self):
        exc = refuse(b"GET /a HTTP/1.1\r\nHost: h\r\nnocolon\r\n\r\n")
        assert exc.status == 400

    def test_eof_inside_headers_is_400(self):
        assert refuse(b"GET /a HTTP/1.1\r\nHost: h\r\n").status == 400


class TestKeepAlive:
    def test_http11_default_on(self):
        assert parse(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n").keep_alive

    def test_http11_connection_close(self):
        parsed = parse(
            b"GET /a HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
        )
        assert not parsed.keep_alive

    def test_http10_default_off(self):
        assert not parse(b"GET /a HTTP/1.0\r\nHost: h\r\n\r\n").keep_alive

    def test_http10_opt_in(self):
        parsed = parse(
            b"GET /a HTTP/1.0\r\nHost: h\r\nConnection: Keep-Alive\r\n\r\n"
        )
        assert parsed.keep_alive


class TestBody:
    def test_content_length_body(self):
        parsed = parse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert parsed.body == b"abcd"
        assert "Content-Length" not in parsed.headers

    def test_truncated_body_is_400(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nab"
        )
        assert exc.status == 400

    def test_bad_content_length_is_400(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: nan\r\n\r\n"
        )
        assert exc.status == 400

    def test_negative_content_length_is_400(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: -5\r\n\r\n"
        )
        assert exc.status == 400

    def test_oversized_body_is_413(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 99\r\n\r\n",
            limits=Http11Limits(max_body_bytes=10),
        )
        assert exc.status == 413

    def test_transfer_encoding_is_501(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        assert exc.status == 501


#: Framing fields a strict peer would read differently: each is a 400
#: (RFC 9112 §5.1 for blanks before the colon, §6.3 for Content-Length).
SMUGGLING = [
    b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 1_0\r\n\r\n0123456789",
    b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: +3\r\n\r\nabc",
    b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n"
    b"Content-Length: 5\r\n\r\nabcde",
    b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length : 3\r\n\r\nabc",
    b"GET /a HTTP/1.1\r\nHost : evil.example\r\n\r\n",
    b"GET /a HTTP/1.1\r\nHost: h\r\nUser-Agent\t: UA\r\n\r\n",
    b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: \xb3\r\n\r\nabc",
]


class TestFramingHeaderRules:
    @pytest.mark.parametrize(
        "data", SMUGGLING, ids=[str(i) for i in range(len(SMUGGLING))]
    )
    def test_ambiguous_framing_is_400(self, data):
        assert refuse(data).status == 400
        assert outcome([bytes([b]) for b in data]) == [400]

    def test_agreeing_duplicate_content_length_frames_once(self):
        parsed = parse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n"
            b"Content-Length: 3\r\n\r\nabc"
        )
        assert parsed.body == b"abc"

    def test_blanks_after_the_colon_are_optional_whitespace(self):
        parsed = parse(
            b"POST /a HTTP/1.1\r\nHost:h\r\nContent-Length: \t2 \r\n\r\nab"
        )
        assert parsed.url.host == "h"
        assert parsed.body == b"ab"


class TestLimitsValidation:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Http11Limits(max_headers=0)


class TestRenderResponse:
    def test_status_line_and_framing(self):
        wire = render_response(error_response(404), keep_alive=True)
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"Connection: keep-alive" in head
        assert b"Content-Length: %d" % len(body) in head

    def test_close_marker(self):
        wire = render_response(error_response(400), keep_alive=False)
        assert b"Connection: close" in wire

    def test_head_omits_body_keeps_length(self):
        response = html_response("<p>hello</p>")
        wire = render_response(response, head=True)
        header, _, body = wire.partition(b"\r\n\r\n")
        assert body == b""
        assert b"Content-Length: %d" % len(response.body) in header

    def test_hop_by_hop_response_headers_dropped(self):
        response = Response(
            status=200,
            headers=Headers(
                [("Connection", "weird"), ("X-Kept", "yes")]
            ),
            body=b"x",
        )
        wire = render_response(response)
        assert b"weird" not in wire
        assert b"X-Kept: yes" in wire


class TestReadResponse:
    def round_trip(self, response, head=False, keep_alive=True):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(
                render_response(response, head=head, keep_alive=keep_alive)
            )
            reader.feed_eof()
            return await read_response(reader, head=head)

        return asyncio.run(go())

    def test_round_trip(self):
        status, headers, body, keep_alive = self.round_trip(
            html_response("<p>x</p>")
        )
        assert status == 200
        assert body == b"<p>x</p>"
        assert keep_alive

    def test_close_round_trip(self):
        status, _, _, keep_alive = self.round_trip(
            error_response(403), keep_alive=False
        )
        assert status == 403
        assert not keep_alive

    def test_head_round_trip(self):
        status, headers, body, _ = self.round_trip(
            html_response("<p>body</p>"), head=True
        )
        assert status == 200
        assert body == b""
        assert int(headers.get("Content-Length")) > 0

    def test_malformed_status_line(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(b"NOT HTTP\r\n\r\n")
            reader.feed_eof()
            return await read_response(reader)

        with pytest.raises(HttpParseError):
            asyncio.run(go())


# -- chunking never matters ---------------------------------------------------


class Scripted:
    """A connection whose bytes arrive in the given chunks, then EOF."""

    def __init__(self, chunks) -> None:
        self.buffer = bytearray()
        self.eof = False
        self._chunks = list(chunks)

    async def more(self) -> bool:
        if self._chunks:
            self.buffer += self._chunks.pop(0)
        else:
            self.eof = True
        return True


def step(coroutine):
    """Run a coroutine that never suspends (``Scripted.more`` does not)."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    raise AssertionError("read_request suspended")


def outcome(chunks, **kwargs):
    """What ``read_request`` makes of a chunked stream: the fields of
    every request up to EOF, then ``None`` or the refusal status."""
    connection = Scripted(chunks)
    seen = []
    while True:
        try:
            parsed = step(read_request(connection, **kwargs))
        except HttpParseError as exc:
            seen.append(exc.status)
            return seen
        if parsed is None:
            seen.append(None)
            return seen
        seen.append(
            (
                parsed.method,
                str(parsed.url),
                list(parsed.headers),
                parsed.version,
                parsed.keep_alive,
                parsed.body,
            )
        )


TIGHT = Http11Limits(
    max_request_line=48, max_header_bytes=96, max_headers=4, max_body_bytes=8
)

#: (bytes, parser arguments): every kind of stream the parser accepts.
VALID = [
    (b"GET /a.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n", {}),
    (b"GET http://www.example.com/x?a=1 HTTP/1.1\r\n\r\n", {}),
    (b"GET / HTTP/1.1\r\n\r\n", {"default_host": "fallback.example"}),
    (b"\r\nGET /a HTTP/1.1\r\nHost: h.example\r\n\r\n", {}),
    (b"GET /a HTTP/1.0\nHost: h.example\nUser-Agent: bare LF\n\n", {}),
    (b"HEAD /a HTTP/1.0\r\nHost: h\r\nConnection: Keep-Alive\r\n\r\n", {}),
    (
        b"GET /a HTTP/1.1\r\nHost: h.example\r\nConnection: close\r\n"
        b"User-Agent: UA/1.0\r\nReferer: http://h.example/\r\n\r\n",
        {},
    ),
    (b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd", {}),
    (
        b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 8\r\n\r\n12345678",
        {"limits": TIGHT},
    ),
    # Pipelined, with a stray CRLF in between.
    (
        b"GET /1 HTTP/1.1\r\nHost: h\r\n\r\n\r\n"
        b"POST /2 HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\nab"
        b"GET /3 HTTP/1.1\r\nHost: h\r\n\r\n",
        {},
    ),
    (b"", {}),
    (b"\r\n", {}),
]

#: (bytes, parser arguments, status): every refusal.
MALFORMED = [
    (b"garbage\r\n\r\n", {}, 400),
    (b"GET /a\r\n\r\n", {}, 400),
    (b"\r\n\r\nGET /a HTTP/1.1\r\nHost: h\r\n\r\n", {}, 400),
    (b"GET / HTTP/1.1\r\n\r\n", {}, 400),
    (b"GET <script>x</script> HTTP/1.1\r\nHost: h\r\n\r\n", {}, 400),
    (b"GET /a HT", {}, 400),
    (b"GET /a HTTP/1.1\r\nHost: h\r\n", {}, 400),
    (b"GET /a HTTP/1.1\r\nHost: h\r\nUser-Agent: cut sho", {}, 400),
    (b"GET /a HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n folded\r\n\r\n", {}, 400),
    (b"GET /a HTTP/1.1\r\nHost: h\r\nnocolon\r\n\r\n", {}, 400),
    (b"GET /a HTTP/1.1\r\nHost: h\r\n: no name\r\n\r\n", {}, 400),
    (b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nab", {}, 400),
    (b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: nan\r\n\r\n", {}, 400),
    (b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: -5\r\n\r\n", {}, 400),
    (
        b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 9\r\n\r\n123456789",
        {"limits": TIGHT},
        413,
    ),
    (b"GET /" + b"a" * 60 + b" HTTP/1.1\r\n\r\n", {"limits": TIGHT}, 431),
    (b"GET /" + b"a" * 60, {"limits": TIGHT}, 431),
    (
        b"GET /a HTTP/1.1\r\nHost: h\r\nX-Big: " + b"v" * 100 + b"\r\n\r\n",
        {"limits": TIGHT},
        431,
    ),
    (
        b"GET /a HTTP/1.1\r\nHost: h\r\n"
        + b"".join(b"X-F%d: %s\r\n" % (i, b"v" * 30) for i in range(3))
        + b"\r\n",
        {"limits": TIGHT},
        431,
    ),
    (
        b"GET /a HTTP/1.1\r\nHost: h\r\n"
        + b"".join(b"X-F%d: v\r\n" % i for i in range(6))
        + b"\r\n",
        {"limits": TIGHT},
        431,
    ),
    (b"DELETE /a HTTP/1.1\r\nHost: h\r\n\r\n", {}, 501),
    (
        b"POST /a HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n",
        {},
        501,
    ),
    (b"GET /a HTTP/9.9\r\nHost: h\r\n\r\n", {}, 505),
    # The first error in stream order wins, however the bytes arrive.
    (b"GET /a HTTP/9.9\r\nHost: h\r\n folded\r\nnocolon\r\n", {}, 505),
]


class TestSplitAnywhere:
    """The outcome depends on the bytes alone, never on their chunking:
    no early refusal of a valid prefix, no different status for a
    malformed stream."""

    @pytest.mark.parametrize(
        "data, kwargs", VALID, ids=[str(i) for i in range(len(VALID))]
    )
    def test_valid_stream_frames_the_same_request(self, data, kwargs):
        whole = outcome([data], **kwargs)
        assert whole[-1] is None
        for cut in range(len(data) + 1):
            assert outcome([data[:cut], data[cut:]], **kwargs) == whole, cut
        assert outcome([bytes([b]) for b in data], **kwargs) == whole

    @pytest.mark.parametrize(
        "data, kwargs, status",
        MALFORMED,
        ids=[f"{i}-{case[2]}" for i, case in enumerate(MALFORMED)],
    )
    def test_malformed_stream_is_refused_the_same(self, data, kwargs, status):
        assert outcome([data], **kwargs) == [status]
        for cut in range(len(data) + 1):
            assert outcome([data[:cut], data[cut:]], **kwargs) == [status], cut
        assert outcome([bytes([b]) for b in data], **kwargs) == [status]

    def test_refusal_does_not_wait_for_the_rest_of_the_request(self):
        # No EOF, no blank line: the bad request line is enough.
        with pytest.raises(HttpParseError) as excinfo:
            parse_request(bytearray(b"garbage\r\nHost: h\r\n"))
        assert excinfo.value.status == 400

    def test_incomplete_request_asks_for_more(self):
        data = b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd"
        for cut in range(len(data)):
            assert parse_request(bytearray(data[:cut])) is None, cut
        parsed, consumed = parse_request(bytearray(data + b"GET"))
        assert consumed == len(data)
        assert parsed.body == b"abcd"
        assert parsed.parse_seconds > 0


class TestTrickledHead:
    """``read_request`` runs the framer again only when what arrived can
    change its answer, so a head trickled in small chunks costs one
    framing per line, not one per chunk."""

    @staticmethod
    def _trickle(data: bytes, size: int, monkeypatch, **kwargs):
        """Frame ``data`` fed ``size`` bytes a wake-up: (outcome, framer
        calls, bytes fed when it answered)."""
        import repro.serve.http11 as http11

        calls = []
        framer = http11.parse_request

        def counted(buffer, *args):
            calls.append(len(buffer))
            return framer(buffer, *args)

        monkeypatch.setattr(http11, "parse_request", counted)
        connection = Scripted(
            data[i : i + size] for i in range(0, len(data), size)
        )
        try:
            result = step(read_request(connection, **kwargs))
        except HttpParseError as exc:
            result = exc.status
        return result, calls, len(connection.buffer)

    def test_a_long_head_is_framed_once_per_line(self, monkeypatch):
        fields = [b"Host: h.example\r\n"] + [
            b"X-Field-%02d: %s\r\n" % (i, b"v" * 283) for i in range(93)
        ]
        head = b"GET /a HTTP/1.1\r\n" + b"".join(fields)
        head += b"X-Pad: " + b"p" * (28449 - len(head) - 9) + b"\r\n\r\n"
        fields.append(b"X-Pad")
        assert len(head) == 28451 and len(fields) == 95
        parsed, calls, _ = self._trickle(head, 16, monkeypatch)
        assert len(parsed.headers) == 94  # Host is picked up, not kept
        assert len(calls) <= len(fields) + 3
        whole = parse(head)
        assert (parsed.url, list(parsed.headers)) == (whole.url, list(whole.headers))

    def test_an_over_long_line_is_refused_as_the_limit_is_crossed(
        self, monkeypatch
    ):
        limit = Http11Limits().max_request_line
        status, calls, fed = self._trickle(b"GET /" + b"a" * 3 * limit, 16, monkeypatch)
        assert status == 431
        assert limit <= fed < limit + 16
        assert len(calls) == 2  # the first bytes, then the crossing

        head = b"GET /a HTTP/1.1\r\nX-Long: "
        block = Http11Limits().max_header_bytes
        status, calls, fed = self._trickle(head + b"v" * 2 * block, 16, monkeypatch)
        assert status == 431
        assert block <= fed - len(b"GET /a HTTP/1.1\r\n") < block + 16
        # The first bytes, the request line's LF, the request-line limit
        # (passed by this header line), the header-line limit.
        assert len(calls) == 4

    def test_a_trickled_body_still_completes(self, monkeypatch):
        data = b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 40\r\n\r\n" + b"b" * 40
        parsed, _, _ = self._trickle(data, 3, monkeypatch)
        assert parsed.body == b"b" * 40


_REFUSALS = {400, 413, 431, 501, 505}
_TOKEN = st.text(
    alphabet=st.sampled_from(
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-"
    ),
    min_size=1,
    max_size=12,
)
# X-Forwarded-For is handed over as ``forwarded``, not kept in the view.
_HEADER_NAME = _TOKEN.filter(
    lambda name: name.lower() not in _FRAMING_HEADERS | {"x-forwarded-for"}
)
# Visible Latin-1, no CR/LF, no surrounding blanks (the parser strips them).
_HEADER_VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF,
                           blacklist_characters="\x7f"),
    max_size=40,
).map(str.strip)
_SEGMENT = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789_~"),
    min_size=1,
    max_size=8,
)


class TestFuzz:
    @given(
        data=st.one_of(
            st.binary(max_size=300),
            # Bytes that look like HTTP get further into the parser.
            st.lists(
                st.sampled_from(
                    [
                        b"GET ", b"POST ", b"/a ", b"http://h/x ", b"HTTP/1.1",
                        b"HTTP/1.0", b"\r\n", b"\n", b"\r", b" ", b":",
                        b"Host: h", b"Content-Length: ", b"3", b"-1", b"abc",
                        b"Transfer-Encoding: chunked", b"Connection: close",
                        b"\t", b"\x00", b"\xff",
                    ]
                ),
                max_size=24,
            ).map(b"".join),
        ),
        eof=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_frame_or_refuse(self, data, eof):
        buffer = bytearray(data)
        try:
            framed = parse_request(buffer, eof=eof)
        except HttpParseError as exc:
            assert exc.status in _REFUSALS
            return
        assert bytes(buffer) == data  # the parser never edits the buffer
        if framed is not None:
            parsed, consumed = framed
            assert 0 < consumed <= len(data)
            assert len(parsed.body) <= consumed

    @given(
        method=st.sampled_from(list(Method)),
        host=st.lists(_SEGMENT, min_size=1, max_size=3).map(".".join),
        path=st.lists(_SEGMENT, max_size=3).map(lambda s: "/" + "/".join(s)),
        query=st.lists(_SEGMENT, max_size=2).map("&".join),
        fields=st.lists(st.tuples(_HEADER_NAME, _HEADER_VALUE), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_rendered_request_round_trips(
        self, method, host, path, query, fields
    ):
        url = Url(scheme="http", host=host, path=path, query=query)
        wire = render_request(method, url, Headers(fields))
        parsed, consumed = parse_request(bytearray(wire))
        assert consumed == len(wire)
        assert parsed.method is method
        assert parsed.url == url
        assert list(parsed.headers) == fields
        assert parsed.keep_alive
        assert parsed.body == b""
