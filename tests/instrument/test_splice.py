"""The one-pass splice against the three-``replace`` splice it replaced.

``PageInstrumenter._inject`` locates ``</head>``, the body tag and
``</body>`` once and joins the page once around them.  Until PR 22 the
fast path was ``in`` + ``search``, then ``replace`` + ``sub`` + ``replace``
— five scans and three whole-document copies; it is kept below as the
reference, with the two things PR 22 changed on purpose:

* the body tag must be ``<body`` followed by whitespace, ``/`` or ``>``
  (the old pattern took ``<bodyguard>`` and ``<body-x>`` for it and put
  the handler on the wrong element);
* a ``</head>`` or ``</body>`` *inside* the body tag — possible only in an
  attribute value, ``<body title="</head>">`` — sends the page through
  the parser (the old splice put the head fragment inside the tag).

Everywhere else the two must return the same string, and fall back to
the tree path on the same pages.
"""

from __future__ import annotations

import re

from hypothesis import given, settings, strategies as st

from repro.html.links import extract_references
from repro.html.parser import parse_html
from repro.http.uri import Url
from repro.instrument.keys import InstrumentationRegistry
from repro.instrument.rewriter import PageInstrumenter
from repro.util.rng import RngStream

_BODY_TAG_RE = re.compile(r"<body(?=[\s/>])([^>]*)>", re.IGNORECASE)

TREE = object()


def reference_inject(html: str, plan: tuple):
    """The old ``_inject`` + ``_inject_fast``; ``TREE`` for the parser path.

    ``plan`` is ``(head fragment, onmousemove handler or None, tail
    fragment)``, as ``_inject`` takes them.
    """
    head_fragment, body_attribute, tail_fragment = plan
    tag = _BODY_TAG_RE.search(html)
    if "</head>" not in html or "</body>" not in html or tag is None:
        return TREE
    if any(
        tag.start() < html.find(closing) < tag.end()
        for closing in ("</head>", "</body>")
    ):
        return TREE
    if head_fragment:
        html = html.replace("</head>", head_fragment + "</head>", 1)
    if body_attribute is not None:
        html = _BODY_TAG_RE.sub(
            lambda m: f'<body{m.group(1)} onmousemove="{body_attribute}">',
            html,
            count=1,
        )
    if tail_fragment:
        html = html.replace("</body>", tail_fragment + "</body>", 1)
    return html


def one_pass_inject(html: str, plan: tuple):
    """The splice under test; ``TREE`` where it goes through the parser."""
    instrumenter = PageInstrumenter(InstrumentationRegistry(), RngStream(1))
    instrumenter._inject_tree = lambda html, *plan: TREE
    return instrumenter._inject(html, *plan)


# The shapes a page instrumented with every probe, some and none carries.
_PLANS = (
    (
        '<link rel="stylesheet" type="text/css" '
        'href="http://h.com/0123456789.css">'
        '<script language="javascript" src="./p_0123456789.js"></script>',
        "return _0xabcdef();",
        "<script>document.write('x');</script>"
        '<a href="http://h.com/hidden_1.html"><img src="/t.jpg"></a>',
    ),
    ("", "return f_012345();", ""),
    ("<link href='/1.css'>", None, "<a></a>"),
    ("", None, ""),
)

# Pages are random sequences of these: every tag the splice looks for, in
# both cases, with and without attributes, look-alikes it must not take
# for them, and text — non-ASCII included — in between.
_PIECES = st.sampled_from(
    [
        "<html>", "</html>", "<head>", "</head>", "</HEAD>", "<HEAD>",
        "<body>", "<BODY>", "<Body class=x>", '<body id="b" >', "<body/>",
        "<body\nlang=de>", "</body>", "</BODY>",
        "<bodyguard>", "<body-x a=1>", "</body-x>", "<bodybody>", "<body",
        '<body title="</head>">', '<body title="</body>">', ">",
        "<title>t</title>", "<p>", "</p>", "<!-- </head> -->",
    ]
) | st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12
)
_PAGES = st.lists(_PIECES, max_size=14).map("".join)


@settings(max_examples=600, deadline=None)
@given(html=_PAGES, plan=st.sampled_from(_PLANS))
def test_one_pass_splice_equals_the_three_replace_splice(html, plan):
    assert one_pass_inject(html, plan) == reference_inject(html, plan)


def test_the_pages_drawn_cover_both_paths_and_every_tag_order():
    plan = _PLANS[0]
    for html, fast in (
        ("<html><head></head><body><p>ü</p></body></html>", True),
        ("</body><BODY a=b></head>", True),
        ("</head></body><body>", True),
        ("<body></head></body>", True),
        ("</head><body></body></head><body></body>", True),
        ("<head></head><p>no body tag</p></body>", False),
        ("<head></HEAD><body></body>", False),
        ("<head></head><body></BODY>", False),
        ('<head></head><body title="</head>">x</body>', True),
        ('<head><body title="</head>">x</body>', False),
        ('</head><body title="</body>">x', False),
    ):
        spliced = one_pass_inject(html, plan)
        assert (spliced is not TREE) == fast, html
        assert spliced == reference_inject(html, plan), html


def test_upper_case_body_tag_is_respelt_only_when_it_gets_a_handler():
    html = "<HTML><head></head><BODY CLASS=x>ß</body></HTML>"
    with_handler = one_pass_inject(html, _PLANS[1])
    assert with_handler == (
        '<HTML><head></head><body CLASS=x onmousemove="return f_012345();">'
        "ß</body></HTML>"
    )
    assert one_pass_inject(html, _PLANS[3]) == html


def test_custom_element_named_like_body_is_not_the_body_tag():
    """``<body-x>`` used to match ``<body([^>]*)>``: the page took the fast
    path and the custom element got the ``onmousemove`` handler."""
    html = (
        "<html><head><title>t</title></head>"
        "<body-x mode=a><p>hello</p></body-x></body></html>"
    )
    taken = []
    instrumenter = PageInstrumenter(InstrumentationRegistry(), RngStream(3))
    inject_tree = instrumenter._inject_tree
    instrumenter._inject_tree = lambda html, *plan: (
        taken.append(html) or inject_tree(html, *plan)
    )
    result = instrumenter.instrument(
        html, Url.parse("http://h.com/p.html"), "1.2.3.4", 0.0
    )
    assert taken == [html]
    root = parse_html(result.html)
    handler = root.find("body").get("onmousemove")
    assert handler == result.beacon_script.handler_expression
    assert root.find("body-x").get("onmousemove") is None
    assert root.find("body-x").get("mode") == "a"
    assert extract_references(result.html).body_event_handlers == {
        "onmousemove": handler
    }
