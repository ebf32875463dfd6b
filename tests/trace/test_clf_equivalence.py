"""The CLF parser against the one it replaced, and the log's round trip.

PR 19 swapped the quoted-field pattern for its unrolled form, the
hand-rolled calendar for :class:`datetime.date`, and the frozen
dataclass for a named tuple.  Every one of those is meant to be
invisible, so the previous implementations live on here — and only
here — as oracles: same groups or same refusal on generated lines, same
date strings and day counts, and ``parse(format(record)) == record``
over records whose header values hold quotes, backslashes and control
characters.
"""

from __future__ import annotations

import copy
import pickle
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.message import Method
from repro.http.uri import Url
from repro.trace.clf import (
    _LINE_RE,
    _TIME_RE,
    TraceParseError,
    TraceRecord,
    format_clf_line,
    format_clf_time,
    parse_clf_line,
    parse_clf_time,
)

# -- the oracles --------------------------------------------------------------

#: The quoted field as it was: one alternation step per character.
_OLD_QUOTED = r'"((?:[^"\\]|\\.)*)"'
_OLD_LINE_RE = re.compile(
    r"^(?P<ip>\S+)\s+(?P<ident>\S+)\s+(?P<user>\S+)\s+"
    r"\[(?P<time>[^\]]+)\]\s+"
    rf"(?P<request>{_OLD_QUOTED})\s+"
    r"(?P<status>\d{3})\s+(?P<size>\d+|-)"
    rf"(?:\s+(?P<referer>{_OLD_QUOTED})\s+(?P<agent>{_OLD_QUOTED}))?\s*$"
)

_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_MONTH_DAYS = (0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def _days_in_month(year: int, month: int) -> int:
    return 29 if month == 2 and _is_leap(year) else _MONTH_DAYS[month]


def _old_days_since_epoch(year: int, month: int, day: int) -> int:
    """The calendar as it was: a walk from 2006, a year and a month at
    a time (only ever right from the epoch on)."""
    days = 0
    for y in range(2006, year):
        days += 366 if _is_leap(y) else 365
    for m in range(1, month):
        days += _days_in_month(year, m)
    return days + day - 1 - (_MONTH_DAYS[1] + 6 - 1)


def _old_format_date(whole_seconds: int) -> str:
    day, month, year = 6 - 1 + whole_seconds // 86_400, 2, 2006
    while day >= _days_in_month(year, month):
        day -= _days_in_month(year, month)
        month += 1
        if month > 12:
            month, year = 1, year + 1
    return f"{day + 1:02d}/{_MONTHS[month - 1]}/{year}"


# -- (i) the line pattern -----------------------------------------------------

#: Field content biased towards what the two patterns treat specially.
_field_text = st.text(
    alphabet=st.sampled_from(list('ab /:.-"\\x0d\t[]')), max_size=12
)
_token = st.text(alphabet=st.sampled_from(list("ab1.-_")), min_size=1, max_size=6)
_gap = st.sampled_from([" ", "  ", "\t"])


@st.composite
def _clf_lines(draw) -> str:
    """Lines near the CLF grammar: well-formed and slightly broken."""
    quoted = lambda: '"' + draw(_field_text) + '"'  # noqa: E731
    parts = [
        draw(_token), draw(_token), draw(_token),
        "[" + draw(st.sampled_from(["06/Feb/2006:00:00:01 +0000", "x", ""])) + "]",
        quoted(),
        draw(st.sampled_from(["200", "404", "20", "2000"])),
        draw(st.sampled_from(["0", "5120", "-", ""])),
    ]
    if draw(st.booleans()):  # combined format; otherwise the 7-field common one
        parts += [quoted(), quoted()]
    gap = draw(_gap)
    return gap.join(parts) + draw(st.sampled_from(["", " ", "\r"]))


@settings(max_examples=600, deadline=None)
@given(_clf_lines())
def test_unrolled_pattern_matches_what_the_old_one_did(line):
    """The line pattern now reads the stamp's fields too, so it matches
    where the old one did and the stamp is one :data:`_TIME_RE` reads,
    and splits the other fields the same way."""
    old, new = _OLD_LINE_RE.match(line), _LINE_RE.match(line)
    stamp_reads = old is not None and _TIME_RE.match(old["time"].strip())
    assert (new is not None) == bool(stamp_reads)
    if new is not None:
        fields = new.groups()
        assert fields[:3] + fields[14:] == (
            old["ip"], old["ident"], old["user"], old.group(6),
            old["status"], old["size"], old.group(10), old.group(12),
        )


@pytest.mark.parametrize(
    "field",
    [
        "x" * 100_000,
        "\\x" * 50_000,
        "a\\\\" * 33_000,
    ],
    ids=["plain", "escape-pairs", "mixed"],
)
def test_unterminated_quoted_field_is_refused_in_linear_time(field):
    """The guard against ``(?:[^"\\\\]+|\\\\.)*``: that form takes 2^n steps
    here, so with it this test does not fail — it hangs."""
    line = f'1.2.3.4 - - [06/Feb/2006:00:00:01 +0000] "GET {field}'
    started = time.perf_counter()
    with pytest.raises(TraceParseError):
        parse_clf_line(line)
    assert time.perf_counter() - started < 1.0


# -- the calendar -------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(st.integers(min_value=0, max_value=400 * 366 * 86_400))
def test_dates_render_as_the_hand_rolled_calendar_did(whole):
    assert format_clf_time(float(whole))[:11] == _old_format_date(whole)


@settings(max_examples=400, deadline=None)
@given(
    st.integers(min_value=2006, max_value=2400),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=31),
)
def test_dates_parse_as_the_hand_rolled_calendar_did(year, month, day):
    text = f"{day:02d}/{_MONTHS[month - 1]}/{year}:12:00:00 +0000"
    days = _old_days_since_epoch(year, month, day)
    if day > _days_in_month(year, month) or days < 0:
        with pytest.raises(TraceParseError):
            parse_clf_time(text)
    else:
        assert parse_clf_time(text) == days * 86_400.0 + 12 * 3600


# -- (v) the record type and the round trip -----------------------------------


def _record(**overrides) -> TraceRecord:
    fields = dict(
        client_ip="10.1.2.3",
        timestamp=742.318204,
        method=Method.GET,
        url=Url.parse("http://www.example.com/a/b.html?x=1"),
        status=200,
        size=5120,
    )
    fields.update(overrides)
    return TraceRecord(**fields)


class TestRecordType:
    def test_fields_order_and_defaults(self):
        assert TraceRecord._fields == (
            "client_ip", "timestamp", "method", "url", "status", "size",
            "user_agent", "referer", "agent_kind", "true_label",
        )
        record = _record()
        assert (record.user_agent, record.referer) == ("", None)
        assert (record.agent_kind, record.true_label) == ("", "")

    def test_immutable(self):
        with pytest.raises(AttributeError):
            _record().status = 404

    def test_equality_is_field_wise_and_hashable(self):
        assert _record() == _record()
        assert _record() != _record(status=404)
        assert len({_record(), _record(), _record(size=1)}) == 2

    def test_picklable_and_copyable(self):
        record = _record(user_agent="ua", referer="http://h/")
        str(record.url)  # a Url that has built its string still pickles small
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record

    def test_with_ground_truth_copies(self):
        record = _record()
        labelled = record.with_ground_truth("crawler", "robot")
        assert (labelled.agent_kind, labelled.true_label) == ("crawler", "robot")
        assert labelled._replace(agent_kind="", true_label="") == record
        assert record.agent_kind == ""


#: Header values as a client can send them: printable text, quotes,
#: backslashes, literal ``\x41`` look-alikes, C0 controls and DEL.
_header_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(list('ab -"\\x41d')),
        st.characters(min_codepoint=0, max_codepoint=0x7F),
        st.characters(min_codepoint=0x80, max_codepoint=0x2FF),
    ),
    max_size=16,
)
_url_segment = st.text(
    alphabet=st.sampled_from(list('abc123-_.~%"\\')), min_size=1, max_size=6
)


@st.composite
def _records(draw) -> TraceRecord:
    path = "/" + "/".join(draw(st.lists(_url_segment, max_size=3)))
    query = draw(st.one_of(st.just(""), _url_segment.map(lambda s: "?" + s)))
    whole = draw(st.integers(min_value=0, max_value=10**9))
    micros = draw(st.integers(min_value=0, max_value=999_999))
    return TraceRecord(
        client_ip=draw(_token),
        # The value a parser reads back from six decimals.
        timestamp=parse_clf_time(format_clf_time(whole + micros / 1e6)),
        method=draw(st.sampled_from(list(Method))),
        url=Url.parse(f"http://www.example.com{path}{query}"),
        status=draw(st.integers(min_value=100, max_value=599)),
        size=draw(st.integers(min_value=0, max_value=10**9)),
        user_agent=draw(_header_text),
        # An absent and an empty Referer are the same line: "-".
        referer=draw(st.one_of(st.none(), _header_text.filter(bool))),
        agent_kind=draw(st.one_of(st.just(""), _token.filter(lambda s: s != "-"))),
        true_label=draw(st.sampled_from(["", "human", "robot"])),
    )


@settings(max_examples=500, deadline=None)
@given(_records())
def test_write_then_parse_is_the_identity(record):
    line = format_clf_line(record)
    assert "\n" not in line and "\r" not in line
    assert parse_clf_line(line) == record


def test_literal_dash_and_hex_lookalikes_survive():
    for value in ("-", "\\x2d", "\\x41", "a\\", 'say "hi"', "tab\there", "\x7f"):
        record = _record(user_agent=value, referer=value)
        assert parse_clf_line(format_clf_line(record)) == record


def test_foreign_hex_escapes_are_decoded():
    """Apache writes non-printables (and quotes) as ``\\xHH``."""
    line = (
        '1.2.3.4 - - [06/Feb/2006:10:00:00 +0000] '
        '"GET http://h/ HTTP/1.1" 200 1 "-" "a\\x22b\\x0Ac\\\\x41"'
    )
    assert parse_clf_line(line).user_agent == 'a"b\nc\\x41'
