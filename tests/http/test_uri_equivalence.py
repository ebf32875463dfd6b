"""``Url.parse`` against the one it replaced, and the canonical-form
property the feature extractor relies on.

PR 19 made ``Url.parse`` read its groups positionally and skip
``normpath`` for paths that are already normal, made a ``Url`` keep its
string, and made ``FeatureAccumulator.observe`` use that string as the
URL's comparison form instead of parsing it a second time.  The last
step is licensed by one property: ``str(Url.parse(str(u))) == str(u)``
for every ``Url`` the module's own constructors can return.  The
previous ``parse`` and ``_normalize_path`` are kept here — and only
here — as oracles.  ``parse`` has since stopped going through the
constructor (it adopts the parts its pattern proved); the old parse,
which does, is also the oracle for that.
"""

from __future__ import annotations

import copy
import pickle
import posixpath
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.http.uri import _URL_RE, Url, _normalize_path, resolve_url

# -- the oracles --------------------------------------------------------------

_OLD_URL_RE = re.compile(
    r"^(?P<scheme>[a-zA-Z][a-zA-Z0-9+.-]*)://"
    r"(?P<host>[^/:?#]+)"
    r"(?::(?P<port>\d+))?"
    r"(?P<path>/[^?#]*)?"
    r"(?:\?(?P<query>[^#]*))?"
    r"(?:#(?P<fragment>.*))?$"
)
#: What the parser now refuses anywhere in a URL (the access-log fix).
_REFUSED = re.compile(r"[\s\x00-\x1f\x7f]")


def _old_normalize_path(path: str) -> str:
    if not path.startswith("/"):
        path = "/" + path
    normalized = posixpath.normpath(path)
    return "/" if normalized == "." else normalized


def _old_parse(text: str) -> Url:
    match = _OLD_URL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"unparseable absolute URL: {text!r}")
    parts = match.groupdict()
    return Url(
        scheme=parts["scheme"].lower(),
        host=parts["host"].lower(),
        path=_old_normalize_path(parts["path"] or "/"),
        query=parts["query"] or "",
        port=int(parts["port"]) if parts["port"] else None,
    )


# -- strategies ---------------------------------------------------------------

_segment = st.one_of(
    st.sampled_from(["", ".", "..", "a", "B", ".hidden", "a.b", "c..", "~x", "%20"]),
    st.text(alphabet=st.sampled_from(list("abXY01._-~%")), max_size=5),
)
_paths = st.lists(_segment, max_size=6).map(lambda parts: "/" + "/".join(parts))
_queries = st.one_of(
    st.just(""),
    st.text(alphabet=st.sampled_from(list("ab=&?/.%+")), max_size=8).map(
        lambda q: "?" + q
    ),
)
_hosts = st.sampled_from(
    ["example.com", "WWW.Example.COM", "h", "10.0.0.1", "xn--bcher-kva.de", "İ.example"]
)
_ports = st.sampled_from(["", ":80", ":8080", ":0080", ":65535", ":0", ":70000"])
_schemes = st.sampled_from(["http", "https", "HTTP", "HttpS", "ftp"])
_fragments = st.sampled_from(["", "#", "#frag", "#a?b#c"])


@st.composite
def _url_texts(draw) -> str:
    """Absolute URLs in every shape the parser distinguishes."""
    return (
        draw(st.sampled_from(["", " ", "\t"]))
        + draw(_schemes) + "://" + draw(_hosts) + draw(_ports)
        + draw(st.one_of(st.just(""), _paths)) + draw(_queries)
        + draw(_fragments)
        + draw(st.sampled_from(["", " ", "\n"]))
    )


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as error:
        return str(error)


# -- (ii) parse and the path normaliser ---------------------------------------


@settings(max_examples=800, deadline=None)
@given(_url_texts())
def test_parse_returns_what_the_old_parse_did(text):
    assert _outcome(Url.parse, text) == _outcome(_old_parse, text)


@settings(max_examples=600, deadline=None)
@given(st.text(max_size=40))
def test_parse_agrees_on_arbitrary_text(text):
    """Equal ``Url`` or equal ``ValueError`` — except that text holding
    whitespace or a control character inside the URL is now refused."""
    new, old = _outcome(Url.parse, text), _outcome(_old_parse, text)
    if isinstance(old, Url) and _REFUSED.search(text.strip()):
        assert new in (old, f"unparseable absolute URL: {text!r}")
    else:
        assert new == old


def _constructor_parse(text: str) -> Url:
    """``parse`` as it was before it adopted its parts: the same pattern,
    then the constructor and every one of its checks."""
    match = _URL_RE.match(text.strip())
    if match is None:
        raise ValueError(f"unparseable absolute URL: {text!r}")
    scheme, host, port, path, query, _fragment = match.groups()
    return Url(
        scheme.lower(),
        host.lower(),
        _normalize_path(path) if path else "/",
        query or "",
        int(port) if port else None,
    )


@settings(max_examples=800, deadline=None)
@given(st.one_of(_url_texts(), st.text(max_size=40)))
def test_parse_adopts_what_the_constructor_would_build(text):
    """``parse`` builds its ``Url`` without the constructor.  It refuses
    what the constructor round trip refused, with the same message, and
    what it builds is that round trip's ``Url`` in every way that can be
    observed: fields (in order), string, equality, hash and pickle."""
    parsed = _outcome(Url.parse, text)
    built = _outcome(_constructor_parse, text)
    assert type(parsed) is type(built)
    if not isinstance(parsed, Url):
        assert parsed == built
        return
    assert list(vars(parsed).items()) == list(vars(built).items())
    assert str(parsed) == str(built) and repr(parsed) == repr(built)
    assert parsed == built and hash(parsed) == hash(built)
    assert pickle.dumps(parsed) == pickle.dumps(built)
    assert pickle.loads(pickle.dumps(parsed)) == built


@settings(max_examples=600, deadline=None)
@given(st.one_of(_paths, _paths.map(lambda p: p.lstrip("/")), st.text(max_size=12)))
def test_normalize_path_returns_what_normpath_did(path):
    assert _normalize_path(path) == _old_normalize_path(path)


@pytest.mark.parametrize(
    "text",
    [
        "http://www.example.com evil/",
        "http://www.example.com/a\tb",
        "http://www.example.com/a b",
        "http://www.example.com/a?x=\r1",
        "http://www.example.com/a\x00b",
        "http://www.example.com/a?q=\x7f",
        "http://www.exa\x0bmple.com/",
        "http://www.example.com/a\xa0b",
        "http://www.example.com/a\x85b",
    ],
)
def test_whitespace_and_controls_are_refused(text):
    assert isinstance(_outcome(_old_parse, text), Url)  # the hole that was
    with pytest.raises(ValueError, match="unparseable absolute URL"):
        Url.parse(text)


# -- the fixed point ----------------------------------------------------------


def _assert_canonical(url: Url) -> None:
    text = str(url)
    again = Url.parse(text)
    assert str(again) == text
    assert again == Url.parse(str(again))


@settings(max_examples=800, deadline=None)
@given(_url_texts())
def test_parsed_urls_are_fixed_points(text):
    parsed = _outcome(Url.parse, text)
    assume(isinstance(parsed, Url))
    _assert_canonical(parsed)
    assert Url.parse(str(parsed)) == parsed


_references = st.one_of(
    st.builds(lambda p, q, f: p + q + f, _paths, _queries, _fragments),
    st.builds(lambda p, q: p.lstrip("/") + q, _paths, _queries),
    st.builds(lambda h, p: f"//{h}{p}", _hosts, _paths),
    _url_texts(),
    st.text(alphabet=st.sampled_from(list("ab/.?#: \t%")), max_size=10),
)


@settings(max_examples=800, deadline=None)
@given(_url_texts(), _references)
def test_resolved_urls_are_fixed_points(base_text, reference):
    base = _outcome(Url.parse, base_text)
    assume(isinstance(base, Url))
    resolved = _outcome(lambda ref: resolve_url(base, ref), reference)
    assume(isinstance(resolved, Url))
    _assert_canonical(resolved)


@settings(max_examples=600, deadline=None)
@given(
    _url_texts(),
    st.one_of(_paths, st.text(max_size=10)),
    st.one_of(_queries.map(lambda q: q[1:]), st.text(max_size=6)),
)
def test_with_path_and_sibling_return_fixed_points(base_text, path, query):
    base = _outcome(Url.parse, base_text)
    assume(isinstance(base, Url))
    for build in (
        lambda: base.with_path(path, query),
        lambda: base.sibling(path),
    ):
        url = _outcome(lambda _: build(), None)
        if isinstance(url, Url):
            _assert_canonical(url)


def test_constructors_refuse_what_parse_refuses():
    base = Url.parse("http://e.com/dir/page.html")
    for bad in ("a b", "a\tb", "a\rb", "x?y", "x#y", "\x00"):
        with pytest.raises(ValueError):
            base.with_path("/" + bad)
        with pytest.raises(ValueError):
            base.sibling(bad)
    for bad in ("a b", "x#y", "\x7f"):
        with pytest.raises(ValueError):
            base.with_path("/ok", bad)
    with pytest.raises(ValueError):
        resolve_url(base, "a b.html")
    assert base.with_path("/ok", "a?b").query == "a?b"


# -- the kept string ----------------------------------------------------------


class TestKeptString:
    def test_built_once(self):
        url = Url.parse("http://e.com/a?b=1")
        assert str(url) is str(url)

    def test_equality_hash_and_repr_do_not_see_it(self):
        one, other = Url.parse("http://e.com/a"), Url.parse("http://e.com/a")
        before = (hash(one), repr(one))
        str(one)
        assert one == other and hash(one) == hash(other)
        assert (hash(one), repr(one)) == before

    def test_pickle_and_copy_do_not_carry_it(self):
        url = Url.parse("http://e.com:8080/a?b=1")
        plain = pickle.dumps(url)
        str(url)
        assert pickle.dumps(url) == plain
        for clone in (pickle.loads(pickle.dumps(url)), copy.copy(url), copy.deepcopy(url)):
            assert clone == url
            assert "_text" not in vars(clone)
            assert str(clone) == "http://e.com:8080/a?b=1"
