"""The one-pass framer against the line-by-line reference.

``repro.serve.http11.parse_request`` splits a head once on LF;
``reference_http11.parse_request`` searches for each line's end in
turn.  Fed the same stream in the same chunks, the two must return the
same request and ``consumed`` at every step — or refuse with the same
``(status, message)``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_http11
from repro.serve.http11 import Http11Limits, HttpParseError, parse_request

TIGHT = Http11Limits(
    max_request_line=48, max_header_bytes=96, max_headers=4, max_body_bytes=8
)

_REQUEST_LINES = st.sampled_from(
    [
        "GET /a HTTP/1.1",
        "get /a HTTP/1.1",
        "HEAD http://h.example/x?q=1 HTTP/1.0",
        "POST /form HTTP/1.1",
        "GET / HTTP/1.1",
        "garbage",
        "GET /a",
        "GET  /a HTTP/1.1",
        "DELETE /a HTTP/1.1",
        "GET /a HTTP/9.9",
        "GET <script> HTTP/1.1",
        "",
    ]
)
#: Request lines within a few bytes of ``TIGHT.max_request_line``.
_LONG_REQUEST_LINES = st.integers(30, 40).map(
    lambda n: "GET /" + "a" * n + " HTTP/1.1"
)
_FIELD_LINES = [
    "Host: h.example",
    "host:h",
    "Host : evil.example",
    "User-Agent: UA/1.0",
    "user-agent:  spaced  ",
    "Referer: http://h.example/",
    "Connection: close",
    "Connection: keep-alive",
    "Connection: Keep-Alive, Upgrade",
    "Content-Length: 0",
    "Content-Length: 2",
    "Content-Length: 3",
    "Content-Length: 03",
    "Content-Length: 99",
    "Content-Length: 1_0",
    "Content-Length: +3",
    "Content-Length: -1",
    "Content-Length: 3, 3",
    "Content-Length:",
    "Content-Length : 3",
    "Transfer-Encoding: chunked",
    "X-Forwarded-For: 10.0.0.9",
    "x-forwarded-for: 10.0.0.9, 10.0.0.8",
    "X-Forwarded-For:",
    "X-\xc4: \xff\xfe",
    " folded",
    "\tfolded",
    "nocolon",
    ": no name",
    "\x0bX-A: 1",
    "X-A\x0b: 1",
]
_FIELDS = st.sampled_from(_FIELD_LINES)
#: Fields within a few bytes of ``TIGHT.max_header_bytes``.
_LONG_FIELDS = st.integers(80, 96).map(lambda n: "X-Long: " + "v" * (n - 8))
_TERMINATOR_LIST = ["\r\n", "\n", "\r\r\n"]
_TERMINATORS = st.sampled_from(["\r\n", *_TERMINATOR_LIST])


@st.composite
def _request(draw, long_lines: bool) -> bytes:
    parts = []
    if draw(st.integers(0, 5)) == 0:
        parts.append(draw(st.sampled_from(["\r\n", "\n"])))
    request_lines = (
        st.one_of(_REQUEST_LINES, _LONG_REQUEST_LINES)
        if long_lines
        else _REQUEST_LINES
    )
    parts.append(draw(request_lines) + draw(_TERMINATORS))
    fields = st.one_of(_FIELDS, _LONG_FIELDS) if long_lines else _FIELDS
    for field in draw(st.lists(fields, max_size=7)):
        parts.append(field + draw(_TERMINATORS))
    parts.append(draw(_TERMINATORS))
    head = "".join(parts).encode("latin-1")
    return head + draw(st.binary(max_size=6))


@st.composite
def _stream(draw):
    limits = draw(st.sampled_from([None, TIGHT]))
    data = b"".join(
        draw(st.lists(_request(limits is TIGHT), min_size=1, max_size=3))
    )
    mangle = draw(st.sampled_from(["none", "none", "truncate", "garbage"]))
    if mangle == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif mangle == "garbage":
        data += draw(st.binary(max_size=20))
    cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=4)))
    return data, cuts, draw(st.booleans()), limits


def _fields(parsed, consumed):
    return (
        parsed.method,
        str(parsed.url),
        parsed.url,
        list(parsed.headers),
        parsed.headers,
        parsed.version,
        parsed.keep_alive,
        parsed.body,
        parsed.forwarded,
        consumed,
    )


def _steps(parse, data, cuts, eof, limits):
    """Every outcome ``parse`` gives as the chunks arrive: a request's
    fields, ``None`` for "needs more", or the refusal that ends it."""
    chunks = [data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)])]
    buffer = bytearray()
    seen = []
    for number, chunk in enumerate(chunks, 1):
        buffer += chunk
        at_eof = eof and number == len(chunks)
        while True:
            try:
                framed = parse(
                    buffer, default_host="fallback.example",
                    limits=limits, eof=at_eof,
                )
            except HttpParseError as exc:
                seen.append((exc.status, exc.message))
                return seen
            if framed is None:
                seen.append(None)
                break
            parsed, consumed = framed
            seen.append(_fields(parsed, consumed))
            del buffer[:consumed]
    return seen


class TestAgainstReference:
    @given(case=_stream())
    @settings(max_examples=400, deadline=None)
    def test_same_outcome_at_every_step(self, case):
        data, cuts, eof, limits = case
        assert _steps(parse_request, data, cuts, eof, limits) == _steps(
            reference_http11.parse_request, data, cuts, eof, limits
        )

    @given(
        stray=st.booleans(),
        fields=st.integers(3, 6),
        terminator=_TERMINATORS,
        eof=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_field_count_at_and_over_the_limit(
        self, stray, fields, terminator, eof
    ):
        data = (
            ("\r\n" if stray else "")
            + "GET /a HTTP/1.1" + terminator
            + "".join(f"X-{i}: v{terminator}" for i in range(fields))
            + terminator
        ).encode()
        for cut in range(len(data) + 1):
            cuts = [cut]
            assert _steps(parse_request, data, cuts, eof, TIGHT) == _steps(
                reference_http11.parse_request, data, cuts, eof, TIGHT
            )


#: Fields that matter only next to one another: the order of the
#: X-Forwarded-For fields that stay in the view, and the first ``Host``.
_FIELD_RUNS = [
    ("X-Forwarded-For:", "User-Agent: UA/1.0", "X-Forwarded-For: 10.0.0.9"),
    ("X-Forwarded-For: 10.0.0.9", "User-Agent: UA/1.0", "X-Forwarded-For:"),
    ("User-Agent: UA/1.0", "X-Forwarded-For:", "X-A: 1", "X-Forwarded-For:"),
    ("Host: first.example", "Host: second.example"),
    ("Connection: keep-alive", "Connection: close"),
    ("Content-Length: 2", "Content-Length: 2"),
    ("Content-Length: 2", "Content-Length: 3"),
]


class TestEveryField:
    """Each field and terminator in one well-formed request, on every run.

    The random streams above reach a well-formed request carrying a given
    field only by chance; here each one is framed whole, cut at every
    byte, and at EOF, beside the reference.
    """

    @pytest.mark.parametrize("terminator", _TERMINATOR_LIST, ids=repr)
    @pytest.mark.parametrize(
        "fields",
        [(line,) for line in _FIELD_LINES] + _FIELD_RUNS,
        ids=repr,
    )
    @pytest.mark.parametrize("target", ["/a", "http://h.example/x?q=1"])
    def test_same_request(self, fields, terminator, target):
        data = (
            f"GET {target} HTTP/1.1{terminator}"
            + "".join(field + terminator for field in fields)
            + terminator
        ).encode("latin-1") + b"abc"
        for cut in range(len(data) + 1):
            for eof in (False, True):
                assert _steps(parse_request, data, [cut], eof, None) == _steps(
                    reference_http11.parse_request, data, [cut], eof, None
                )
