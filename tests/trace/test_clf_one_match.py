"""The one-match CLF parser against the two-pattern one it replaced.

``parse_clf_line`` reads a line's stamp with the same match that splits
the line, and keeps the day offset of the last ``dd/Mon/yyyy`` it saw.
Neither may show: over generated streams of lines (dates that repeat
and change from line to line, so the memo both hits and misses) every
line must parse to the record ``reference_clf`` makes of it, timestamp
bit for bit, or be refused by both.  Hand-seeded mutants of the memo and
of the zone arithmetic must fail that comparison.
"""

from __future__ import annotations

import __future__
import inspect
import textwrap

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

import reference_clf
from repro.trace import clf
from repro.trace.clf import TraceParseError, parse_clf_line, parse_clf_time


def _mostly(good, bad):
    """Values that parse four times as often as values that do not, so
    that a stream holds enough parsed lines for the memo to matter."""
    return st.sampled_from(good * 4 + bad)


#: Dates that parse and dates that do not, with pairs that share a day
#: and month (a memo keyed on less than the whole date mixes them up).
_dates = _mostly(
    ("06/Feb/2006", "6/Feb/2006", "07/feb/2006", "06/Feb/2007",
     "05/Feb/2006", "29/Feb/2008", "31/Dec/2099"),
    ("30/Feb/2008", "06/Foo/2006", "01/Jan/1999"),
)
_hours = _mostly(("00", "05", "12", "23"), ("24", "99"))
_minutes = _mostly(("00", "30", "59"), ("60",))
_seconds = _mostly(("00", "07", "59", "60"), ("61",))
_fractions = st.integers(0, 6).flatmap(
    lambda n: st.just("") if n == 0
    else st.text("0123456789", min_size=n, max_size=n).map(".".__add__)
)
_zones = st.one_of(
    st.just(""),
    st.tuples(
        st.sampled_from(" \t"), st.sampled_from("+-"),
        _mostly(("00", "01", "05", "12", "23"), ("24", "99")),
        _mostly(("00", "30", "59"), ("60", "99")),
    ).map("".join),
)
_pads = st.sampled_from(("", " ", "\t"))

#: Quoted-field text as a log holds it: escaped quotes and backslashes,
#: ``\\xHH`` escapes of printable and control characters, a lone dash.
_escaped = st.lists(
    st.sampled_from(
        ("a", "Mozilla/5.0", " ", "-", '\\"', "\\\\", "\\x41", "\\x0a", "\\x2d")
    ),
    max_size=5,
).map("".join)
_targets = _mostly(
    ("http://h.com/a.html", "http://H.com/p?q=1", "/x/y.gif", "/",
     "/a\\\"b", "http://h.com/a\\x41b"),
    ("ftp:/x", "x"),
)


@st.composite
def _stamps(draw) -> str:
    clock = ":".join((draw(_hours), draw(_minutes), draw(_seconds)))
    return draw(_dates) + ":" + clock + draw(_fractions) + draw(_zones)


@st.composite
def _lines(draw) -> str:
    method = draw(_mostly(("GET", "get", "HEAD", "POST"), ("PUT",)))
    protocol = draw(_mostly((" HTTP/1.1", ""), (" HTTP/1.0 x",)))
    parts = [
        draw(st.sampled_from(("10.0.0.1", "1.2.3.4", "h"))),
        draw(st.sampled_from(("-", "crawler"))),
        draw(st.sampled_from(("-", "robot"))),
        "[" + draw(_pads) + draw(_stamps()) + draw(_pads) + "]",
        f'"{method} {draw(_targets)}{protocol}"',
        draw(_mostly(("200", "404"), ("20",))),
        draw(st.sampled_from(("0", "5120", "-"))),
    ]
    if draw(st.booleans()):  # combined format; otherwise the common one
        parts += [f'"{draw(_escaped)}"', f'"{draw(_escaped)}"']
    trailer = draw(_mostly(("", " ", "\r"), (" junk", ' "x"')))
    return " ".join(parts) + trailer


def _outcome(parse, line: str, default_host: str | None):
    try:
        record = parse(line, default_host)
    except TraceParseError:
        return "refused"
    return record._replace(timestamp=record.timestamp.hex())


def _fresh_memo() -> None:
    """Forget the last date, in whichever module the parser's stamp
    arithmetic was compiled (a mutant's is a copy)."""
    clf._stamp_seconds.__globals__["_last_date"] = ("", 0.0)


def _check_stream(lines, default_host) -> None:
    _fresh_memo()
    for line in lines:
        assert _outcome(parse_clf_line, line, default_host) == _outcome(
            reference_clf.parse_clf_line, line, default_host
        ), line


_UNHURRIED = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
_streams = st.lists(_lines(), min_size=1, max_size=6)
_hosts = st.sampled_from((None, "h.com"))


@settings(max_examples=400, **_UNHURRIED)
@given(_streams, _hosts)
@example(
    [
        # the zone crosses the epoch both ways; the date changes, then repeats
        '1.2.3.4 - - [06/Feb/2006:00:30:00 +0100] "GET http://h.com/ HTTP/1.1" 200 1',
        '1.2.3.4 - - [05/Feb/2006:23:30:00 -0100] "GET http://h.com/ HTTP/1.1" 200 1',
        '1.2.3.4 - - [06/Feb/2007:12:00:00.5 +0000] "GET http://h.com/ HTTP/1.1" 200 1',
        '1.2.3.4 - - [06/Feb/2007:12:00:00.25 -2359] "GET /x HTTP/1.1" 200 1 "-" "a"',
    ],
    "h.com",
)
def test_one_match_parses_as_the_two_pattern_parser_did(lines, default_host):
    _check_stream(lines, default_host)


@settings(max_examples=300, **_UNHURRIED)
@given(_pads, _stamps(), _pads)
def test_stamps_parse_as_before(before, stamp, after):
    _fresh_memo()
    text = before + stamp + after
    outcomes = []
    for parse in (parse_clf_time, reference_clf.parse_clf_time):
        try:
            outcomes.append(parse(text).hex())
        except TraceParseError:
            outcomes.append("refused")
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize(
    "stamp",
    ["07/Feb/2006:12:00:00 +0099", "10/Feb/2006:12:00:00 +9959",
     "10/Feb/2006:12:00:00 -9999", "10/Feb/2006:12:00:00 +2400",
     "10/Feb/2006:12:00:00 -0060"],
)
def test_an_offset_no_clock_uses_is_refused(stamp):
    """Each used to parse (``+0099`` as 99 minutes east), so a corrupt
    line was replayed at a made-up time instead of counted malformed."""
    with pytest.raises(TraceParseError, match="UTC offset"):
        parse_clf_time(stamp)
    line = f'1.2.3.4 - - [{stamp}] "GET http://h/ HTTP/1.1" 200 1 "-" "-"'
    stats = clf.ParseStats()
    assert list(clf.read_trace([line], stats=stats)) == []
    assert stats.malformed == 1


def test_the_last_offset_a_clock_uses_still_parses():
    assert parse_clf_time("07/Feb/2006:12:00:00 +2359") == 43_260.0
    assert parse_clf_time("06/Feb/2006:00:00:00 -2359") == 86_340.0


# -- mutants ------------------------------------------------------------------

_MUTANTS = {
    "memo never refreshed": (
        "if date_text != known:", "if not known:",
    ),
    "memo keyed on day and month, not the year": (
        "if date_text != known:", "if date_text[:-5] != known[:-5]:",
    ),
    "zone sign flipped": ('if sign == "+":', 'if sign == "-":'),
    "zone minutes unchecked": (
        "if zh > 23 or zm > 59:", "if zh > 23:",
    ),
}


def _mutated(line: str, mutated: str):
    """``_stamp_seconds`` with one line changed, compiled in a copy of
    its module's namespace."""
    source = textwrap.dedent(inspect.getsource(clf._stamp_seconds))
    assert source.count(line) == 1, f"_stamp_seconds no longer holds {line!r}"
    namespace = dict(vars(clf))
    exec(
        compile(
            source.replace(line, mutated), "<mutant>", "exec",
            flags=__future__.annotations.compiler_flag, dont_inherit=True,
        ),
        namespace,
    )
    return namespace["_stamp_seconds"]


@pytest.mark.parametrize("name", list(_MUTANTS))
def test_the_differential_kills_the_mutant(name, monkeypatch):
    monkeypatch.setattr(clf, "_stamp_seconds", _mutated(*_MUTANTS[name]))

    # No shrinking: the first failing stream is all this needs.
    @settings(
        max_examples=400, derandomize=True, database=None,
        phases=[Phase.generate], **_UNHURRIED,
    )
    @given(_streams, _hosts)
    def hunt(lines, default_host):
        _check_stream(lines, default_host)

    with pytest.raises(AssertionError):
        hunt()
