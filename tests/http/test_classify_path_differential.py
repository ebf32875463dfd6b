"""``classify_path`` against the version it replaced.

The one-pass classifier lowers the path once and takes the last
segment and its extension with ``rpartition``; the oracle
(``reference_content``) read ``Url.extension``.  Generated URLs mix
case, dots (dotted directories, trailing and doubled dots, names that
are only an extension), empty segments, ``/cgi-bin/`` and queries.
"""

from __future__ import annotations

import reference_content
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.content import classify_path
from repro.http.uri import Url

_PIECES = st.sampled_from(
    [
        "a", "B", "index", "Page", "cgi-bin", "CGI-BIN", "img", "x.y",
        "html", "HTM", "php", "Asp", "css", "js", "JPG", "jpeg", "png",
        "gif", "bmp", "ico", "wav", "mp3", "cgi", "pl", "PY", "txt",
        "favicon", "robots", "İ", "K", "Σ",
        ".", "..", "", "-", "_",
    ]
)
_SEGMENTS = st.lists(_PIECES, max_size=4).map("".join)
_SEPARATED = st.lists(
    st.tuples(_SEGMENTS, st.sampled_from([".", "", "..", "."])).map("".join),
    min_size=1, max_size=3,
).map("".join)
_PATHS = st.lists(_SEPARATED | _SEGMENTS, max_size=4).map(
    lambda segments: "/" + "/".join(segments)
)
_QUERIES = st.sampled_from(["", "q=term1", "r=944145", "a=1&b=.html", "x"])

_FIXED = [
    "/", "/favicon.ico", "/FAVICON.ICO", "/robots.txt", "/Robots.TXT",
    "/cgi-bin/search", "/CGI-BIN/x.jpg", "/a.b/c", "/dir.d/", "/a.",
    "/a..", "/.htaccess", "/x.HTML", "/x.tar.gz", "/img/p000_2.jpg",
    "/page.php", "/search.pl", "/s.py", "/run.cgi", "/a.b.css",
]


def _url(path: str, query: str) -> Url:
    return Url("http", "h.example", path, query)


@settings(max_examples=1500, deadline=None)
@given(_PATHS, _QUERIES)
def test_one_pass_matches_the_oracle_on_generated_urls(path, query):
    url = _url(path, query)
    assert classify_path(url) is reference_content.classify_path(url)


def test_one_pass_matches_the_oracle_on_the_edge_cases():
    for path in _FIXED:
        for query in ("", "q=1"):
            url = _url(path, query)
            assert classify_path(url) is reference_content.classify_path(url), url
