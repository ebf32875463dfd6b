r"""Common/Combined Log Format traces: the interchange format of the
trace subsystem.

A :class:`TraceRecord` is one access-log line — exactly the fields a
CoDeeN node would log for one request/response pair.  The module reads
and writes NCSA Combined Log Format so that (a) any workload this
simulator runs can be exported as a standard access log, and (b) real
access logs can be replayed through the detection pipeline
(:mod:`repro.trace.replay`), the way BOTracle and BotGraph evaluate
their detectors.

Two deliberate extensions, both backward compatible with real logs:

* timestamps carry optional fractional seconds
  (``[06/Feb/2006:00:12:07.318204 +0000]``) so a replay preserves the
  simulator's sub-second event ordering; plain second-resolution stamps
  parse fine;
* the normally unused ``ident``/``authuser`` fields carry the synthetic
  ground truth (agent kind and "human"/"robot" label) when a trace is
  exported by the recorder — evaluation metadata the detectors never
  read.  Real logs have ``-`` there and simply replay unlabelled.

Reading is streaming (constant memory) and gzip-transparent; malformed
lines — a line holding a byte that is not UTF-8 included — are counted
and skipped rather than aborting a multi-gigabyte replay (set
``strict=True`` to raise instead).  :func:`read_records` is the one
reader; the access log and the probe journal
(:mod:`repro.trace.recorder`) differ only in the line parser they hand
it.

One pattern, :data:`_LINE_RE`, matches a whole line, and it must stay
linear on hostile input: access logs are written by the clients they
describe.  Its quoted fields are the unrolled loop
``[^"\\]*(?:\\.[^"\\]*)*`` — a run of plain characters, then any number
of (escape pair, run of plain characters).  The obvious
``(?:[^"\\]|\\.)*`` matches the same strings at one alternation step a
character (five times slower on a real line), and the tempting
``(?:[^"\\]+|\\.)*`` is exponential: a run of plain characters can be
split between iterations in 2^n ways, so a 30-character unterminated
field takes a minute to refuse.  (Possessive quantifiers would fix
that form, but need Python 3.11.)

The log is injective — every request the front door answers is exactly
one line that parses back to the record that was logged.  Quoted fields
escape ``"`` and ``\`` with a backslash and C0 controls and DEL as
``\xHH`` (what Apache writes), so a header value holding a bare CR
cannot split the line; files are read with ``newline="\n"`` so that
nothing but LF ends one.
"""

from __future__ import annotations

import gzip
import re
from dataclasses import dataclass, field
from datetime import date
from functools import partial
from typing import IO, Callable, Iterable, Iterator, NamedTuple, TypeVar

from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url

#: Virtual second 0 of every exported trace, rendered in CLF dates.
#: The paper's CoDeeN week was captured in Feb 2006; the exact anchor is
#: arbitrary because replays only use differences between timestamps.
TRACE_EPOCH = "06/Feb/2006:00:00:00"

_EPOCH_ORDINAL = date(2006, 2, 6).toordinal()

_MONTHS = (
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
)
_MONTH_INDEX = {name: i + 1 for i, name in enumerate(_MONTHS)}
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


class TraceParseError(ValueError):
    """A CLF line (or one of its fields) could not be parsed."""


@dataclass
class ParseStats:
    """Counters for one reading pass over a trace file."""

    lines: int = 0
    parsed: int = 0
    malformed: int = 0
    #: First few offending lines, for diagnostics.
    samples: list[str] = field(default_factory=list)

    _MAX_SAMPLES = 5

    def note_malformed(self, line: str) -> None:
        """Count one bad line, keeping a short sample for the report."""
        self.malformed += 1
        if len(self.samples) < self._MAX_SAMPLES:
            # An undecodable byte is a lone surrogate here, which no
            # output stream will print: show it as ``\xHH`` instead.
            self.samples.append(
                line.rstrip("\n")[:200]
                .encode("utf-8", "surrogateescape")
                .decode("utf-8", "backslashreplace")
            )


class TraceRecord(NamedTuple):
    """One access-log line: a request and what was answered.

    ``agent_kind``/``true_label`` round-trip through the CLF
    ``ident``/``authuser`` fields; empty strings render as ``-``.
    A named tuple because one is built for every line read and every
    exchange logged.
    """

    client_ip: str
    timestamp: float
    method: Method
    url: Url
    status: int
    size: int
    user_agent: str = ""
    referer: str | None = None
    agent_kind: str = ""
    true_label: str = ""

    @classmethod
    def from_exchange(
        cls, request: Request, response: Response
    ) -> "TraceRecord":
        """Capture one request/response pair flowing through a proxy."""
        return cls(
            request.client_ip,
            request.timestamp,
            request.method,
            request.url,
            response.status,
            response.size,
            request.user_agent,
            request.referer,
        )

    def to_request(self) -> Request:
        """Rebuild the proxy-side request this line describes."""
        entries = []
        if self.user_agent:
            entries.append(("User-Agent", self.user_agent))
        if self.referer:
            entries.append(("Referer", self.referer))
        return Request(
            method=self.method,
            url=self.url,
            client_ip=self.client_ip,
            headers=Headers(entries),
            timestamp=self.timestamp,
        )

    def with_ground_truth(self, kind: str, label: str) -> "TraceRecord":
        """Copy of this record annotated with synthetic ground truth."""
        return self._replace(agent_kind=kind, true_label=label)


# -- timestamp rendering ----------------------------------------------------


def format_clf_time(timestamp: float) -> str:
    """Virtual seconds -> ``06/Feb/2006:00:12:07.318204 +0000``.

    Fractional digits are emitted only when the timestamp has them, so a
    whole-second trace is byte-identical to standard CLF.
    """
    if timestamp < 0:
        raise ValueError(f"timestamp must be non-negative, got {timestamp}")
    whole = int(timestamp)
    micros = int(round((timestamp - whole) * 1_000_000))
    if micros == 1_000_000:  # rounding carried into the next second
        whole += 1
        micros = 0

    days, rem = divmod(whole, 86_400)
    day = date.fromordinal(_EPOCH_ORDINAL + days)
    hh, rem = divmod(rem, 3600)
    mm, ss = divmod(rem, 60)
    base = (
        f"{day.day:02d}/{_MONTHS[day.month - 1]}/{day.year}"
        f":{hh:02d}:{mm:02d}:{ss:02d}"
    )
    if micros:
        base += f".{micros:06d}"
    return base + " +0000"


def parse_clf_time(text: str) -> float:
    """``06/Feb/2006:00:12:07[.ffffff] [+zzzz]`` -> virtual seconds.

    Any absolute date parses; the result is seconds since
    :data:`TRACE_EPOCH` (UTC), so real logs land on the same virtual
    clock the simulator uses.  Dates before the epoch are rejected, and
    so is a time of day no clock shows (``23:59:60``, a leap second, is
    one a clock shows).
    """
    match = _TIME_RE.match(text.strip())
    if match is None:
        raise TraceParseError(f"unparseable CLF timestamp: {text!r}")
    (
        day, month_name, year, hour, minute, second, fraction, sign, zh, zm
    ) = match.groups()
    month = _MONTH_INDEX.get(month_name.title())
    if month is None:
        raise TraceParseError(f"unknown month in timestamp: {text!r}")
    try:
        days = date(int(year), month, int(day)).toordinal() - _EPOCH_ORDINAL
    except ValueError:
        raise TraceParseError(
            f"invalid date: {int(year)}-{month}-{int(day)}"
        ) from None
    hour, minute, second = int(hour), int(minute), int(second)
    if hour > 23 or minute > 59 or second > 60:
        raise TraceParseError(f"invalid time of day in timestamp: {text!r}")
    seconds = days * 86_400.0 + hour * 3600 + minute * 60 + second
    if fraction:
        seconds += int(fraction.ljust(6, "0")) / 1_000_000
    if sign:
        offset = int(zh) * 3600 + int(zm) * 60
        if sign == "+":
            seconds -= offset
        else:
            seconds += offset
    if seconds < 0:
        raise TraceParseError(
            f"timestamp predates the trace epoch ({TRACE_EPOCH}): {text!r}"
        )
    return seconds


# -- line rendering ---------------------------------------------------------


_CONTROL_RE = re.compile(r"[\x00-\x1f\x7f]")
_ESCAPE_RE = re.compile(r'\\(?:x([0-9a-fA-F]{2})|(["\\]))')


def _hex_escape(match: re.Match) -> str:
    return f"\\x{ord(match.group()):02x}"


def _unescape(match: re.Match) -> str:
    code, char = match.groups()
    return char if code is None else chr(int(code, 16))


def _quote(value: str) -> str:
    value = value.replace("\\", "\\\\").replace('"', '\\"')
    if not value.isprintable():
        value = _CONTROL_RE.sub(_hex_escape, value)
    return '"' + value + '"'


def _quote_optional(value: str | None) -> str:
    # ``"-"`` stands for an absent field, so a literal dash goes escaped.
    if not value:
        return '"-"'
    return '"\\x2d"' if value == "-" else _quote(value)


def _unquote(value: str) -> str:
    if "\\" not in value:
        return value
    # One left-to-right pass, so that an escaped backslash in front of
    # "x41" stays a backslash and "x41".
    return _ESCAPE_RE.sub(_unescape, value)


def format_clf_line(record: TraceRecord) -> str:
    """Render one record as a Combined Log Format line (no newline)."""
    ident = record.agent_kind or "-"
    user = record.true_label or "-"
    request = f"{record.method.value} {record.url} HTTP/1.1"
    return (
        f"{record.client_ip} {ident} {user} "
        f"[{format_clf_time(record.timestamp)}] "
        f"{_quote(request)} {record.status} {record.size} "
        f"{_quote_optional(record.referer)} "
        f"{_quote_optional(record.user_agent)}"
    )


def parse_clf_line(
    line: str, default_host: str | None = None
) -> TraceRecord:
    """Parse one access-log line; raises :class:`TraceParseError`.

    ``default_host`` resolves origin-form request targets (``GET /x``)
    as real servers log them; exported traces use absolute URLs and do
    not need it.
    """
    match = _LINE_RE.match(line)
    if match is None:
        raise TraceParseError(f"unparseable CLF line: {line!r}")
    (
        ip, ident, user, time_text, _, request_field, status, size_text,
        _, referer, _, agent,
    ) = match.groups()

    request_line = _unquote(request_field)
    parts = request_line.split()
    if len(parts) == 3:
        method_text, target, _protocol = parts
    elif len(parts) == 2:
        method_text, target = parts
    else:
        raise TraceParseError(f"unparseable request field: {request_line!r}")
    method = _METHODS.get(method_text.upper())
    if method is None:
        raise TraceParseError(f"unsupported method: {method_text!r}")

    if target.startswith("/"):
        if default_host is None:
            raise TraceParseError(
                f"origin-form target {target!r} needs a default_host"
            )
        target = f"http://{default_host}{target}"
    try:
        url = Url.parse(target)
    except ValueError as exc:
        raise TraceParseError(str(exc)) from None

    # Absent from the line (the common format) or ``"-"``: not sent.
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


# -- file I/O ---------------------------------------------------------------


def open_trace_file(path: str, mode: str = "rt") -> IO[str]:
    """Open a trace file for text I/O, transparently handling gzip.

    Reading sniffs the gzip magic; writing gzips when the path ends in
    ``.gz``.
    """
    if "r" in mode:
        with open(path, "rb") as probe:
            magic = probe.read(2)
        # Only LF ends a line: universal newlines would cut a record in
        # two at a CR or CRLF a foreign writer left inside a field.  A
        # byte that is not UTF-8 must not stop the decoder (it reads
        # ahead, so the error would take the good lines around it too):
        # it comes through as a lone surrogate for read_records to find.
        opener = gzip.open if magic == b"\x1f\x8b" else open
        return opener(
            path, "rt", encoding="utf-8", errors="surrogateescape",
            newline="\n",
        )
    if path.endswith(".gz"):
        return gzip.open(path, mode if "t" in mode else mode + "t",
                         encoding="utf-8")
    return open(path, mode.replace("t", ""), encoding="utf-8")


_Record = TypeVar("_Record")

#: What ``errors="surrogateescape"`` turns an undecodable byte into.
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")


def read_records(
    source: str | IO[str] | Iterable[str],
    parse: Callable[[str], _Record],
    stats: ParseStats | None = None,
    strict: bool = False,
) -> Iterator[_Record]:
    """Stream ``parse(line)`` over a file, path or line iterable.

    Blank lines and ``#`` comments are skipped; a line ``parse`` refuses
    with :class:`TraceParseError`, or one holding an undecodable byte,
    is skipped and counted in ``stats`` — with ``strict=True`` the first
    such line raises :class:`TraceParseError` instead.
    """
    stats = stats if stats is not None else ParseStats()
    close_after = False
    if isinstance(source, str):
        lines: Iterable[str] = open_trace_file(source)
        close_after = True
    else:
        lines = source
    try:
        for line in lines:
            stats.lines += 1
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            try:
                # isascii() reads a flag, so a clean line pays for no
                # scan; the decoder stays in C either way.
                if not stripped.isascii() and _UNDECODABLE_RE.search(
                    stripped
                ):
                    raise TraceParseError(
                        f"undecodable byte in line: {stripped!r}"
                    )
                record = parse(stripped)
            except TraceParseError:
                if strict:
                    raise
                stats.note_malformed(line)
                continue
            stats.parsed += 1
            yield record
    finally:
        if close_after:
            lines.close()  # type: ignore[union-attr]


def read_trace(
    source: str | IO[str] | Iterable[str],
    default_host: str | None = None,
    stats: ParseStats | None = None,
    strict: bool = False,
) -> Iterator[TraceRecord]:
    """Stream records from a trace file, path or line iterable.

    Malformed lines (and blank lines / ``#`` comments) are skipped and
    counted in ``stats``; with ``strict=True`` the first malformed line
    raises :class:`TraceParseError` instead.
    """
    parse = parse_clf_line
    if default_host is not None:
        parse = partial(parse, default_host=default_host)
    return read_records(source, parse, stats, strict)


def write_trace(path: str, records: Iterable[TraceRecord]) -> int:
    """Write records as CLF lines (gzipped for ``.gz``); returns count."""
    written = 0
    with open_trace_file(path, "wt") as handle:
        for record in records:
            handle.write(format_clf_line(record))
            handle.write("\n")
            written += 1
    return written
