r"""The CLF line parser as it was before it matched a line once: the
reference ``test_clf_one_match.py`` holds the real one to.

One pattern splits the line and leaves the bracketed stamp as text; a
second pattern then reads the stamp, with no memo of the date.  The rule
that a UTC offset must be one a clock uses is restated here on its own,
as a bound on the offset in minutes, rather than copied from the code it
checks.
"""

from __future__ import annotations

import re
from datetime import date

from repro.http.message import Method
from repro.http.uri import Url
from repro.trace.clf import TraceParseError, TraceRecord

_EPOCH_ORDINAL = date(2006, 2, 6).toordinal()
_MONTHS = ("jan", "feb", "mar", "apr", "may", "jun",
           "jul", "aug", "sep", "oct", "nov", "dec")
_METHODS = {method.value: method for method in Method}

_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"'
_LINE_RE = re.compile(
    r"^(?P<ip>\S+)\s+(?P<ident>\S+)\s+(?P<user>\S+)\s+"
    r"\[(?P<time>[^\]]+)\]\s+"
    rf"(?P<request>{_QUOTED})\s+"
    r"(?P<status>\d{3})\s+(?P<size>\d+|-)"
    rf"(?:\s+(?P<referer>{_QUOTED})\s+(?P<agent>{_QUOTED}))?\s*$"
)
_TIME_RE = re.compile(
    r"^(?P<day>\d{1,2})/(?P<month>[A-Za-z]{3})/(?P<year>\d{4})"
    r":(?P<hour>\d{2}):(?P<minute>\d{2}):(?P<second>\d{2})"
    r"(?:\.(?P<fraction>\d{1,6}))?"
    r"(?:\s+(?P<sign>[+-])(?P<zh>\d{2})(?P<zm>\d{2}))?$"
)
_ESCAPE_RE = re.compile(r'\\(?:x([0-9a-fA-F]{2})|(["\\]))')


def _unquote(value: str) -> str:
    return _ESCAPE_RE.sub(
        lambda m: m.group(2) if m.group(1) is None else chr(int(m.group(1), 16)),
        value,
    )


def parse_clf_time(text: str) -> float:
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise TraceParseError(f"unparseable CLF timestamp: {text!r}")
    fields = match.groupdict()
    month_name = fields["month"].lower()
    if month_name not in _MONTHS:
        raise TraceParseError(f"unknown month in timestamp: {text!r}")
    try:
        day = date(int(fields["year"]), _MONTHS.index(month_name) + 1,
                   int(fields["day"]))
    except ValueError:
        raise TraceParseError(f"invalid date: {text!r}") from None
    hour, minute, second = (
        int(fields["hour"]), int(fields["minute"]), int(fields["second"])
    )
    if hour > 23 or minute > 59 or second > 60:
        raise TraceParseError(f"invalid time of day in timestamp: {text!r}")
    days = day.toordinal() - _EPOCH_ORDINAL
    seconds = days * 86_400.0 + hour * 3600 + minute * 60 + second
    if fields["fraction"]:
        seconds += int(fields["fraction"].ljust(6, "0")) / 1_000_000
    if fields["sign"]:
        hours, minutes = int(fields["zh"]), int(fields["zm"])
        # A clock's offset is under a day, in whole hours and minutes.
        if minutes not in range(60) or hours * 60 + minutes >= 24 * 60:
            raise TraceParseError(f"invalid UTC offset: {text!r}")
        offset = hours * 3600 + minutes * 60
        seconds = seconds - offset if fields["sign"] == "+" else seconds + offset
    if seconds < 0:
        raise TraceParseError(f"timestamp predates the trace epoch: {text!r}")
    return seconds


def parse_clf_line(line: str, default_host: str | None = None) -> TraceRecord:
    match = _LINE_RE.match(line)
    if match is None:
        raise TraceParseError(f"unparseable CLF line: {line!r}")
    (
        ip, ident, user, time_text, _, request_field, status, size_text,
        _, referer, _, agent,
    ) = match.groups()
    request_line = _unquote(request_field)
    parts = request_line.split()
    if len(parts) not in (2, 3):
        raise TraceParseError(f"unparseable request field: {request_line!r}")
    method = _METHODS.get(parts[0].upper())
    if method is None:
        raise TraceParseError(f"unsupported method: {parts[0]!r}")
    target = parts[1]
    if target.startswith("/"):
        if default_host is None:
            raise TraceParseError(f"origin-form target {target!r}")
        target = f"http://{default_host}{target}"
    try:
        url = Url.parse(target)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None
    return TraceRecord(
        ip,
        parse_clf_time(time_text),
        method,
        url,
        int(status),
        0 if size_text == "-" else int(size_text),
        "" if agent is None or agent == "-" else _unquote(agent),
        None if referer is None or referer == "-" else _unquote(referer),
        "" if ident == "-" else ident,
        "" if user == "-" else user,
    )
