"""The probe journal's line format and its reader, fuzzed.

The journal is tab-separated and unescaped; it is safe only because of
what its fields can hold — a ``Url`` host and path (no whitespace, no
control characters), a client IP (one whitespace-free token), a hex key
— so the round trip is pinned over exactly those alphabets, and the
reader over lines that are certainly not records.
"""

from __future__ import annotations

import gzip

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.instrument.keys import BeaconKind
from repro.trace.clf import ParseStats, TraceParseError
from repro.trace.recorder import (
    ProbeRecord,
    format_probe_line,
    parse_probe_line,
    read_probe_journal,
    write_probe_journal,
)

#: What ``Url.parse`` lets into a host or path, and the front door into
#: a client IP: anything but whitespace and control characters.
_token_chars = st.characters(
    blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")
)
_tokens = st.text(_token_chars, min_size=1, max_size=24)
_paths = st.builds("/".__add__, st.text(_token_chars, max_size=40))

probe_records = st.builds(
    ProbeRecord,
    # The journal's resolution: ProbeRecord.from_probe rounds to it.
    issued_at=st.integers(0, 10**15).map(lambda micros: micros / 1e6),
    kind=st.sampled_from([kind.value for kind in BeaconKind]),
    client_ip=_tokens,
    host=_tokens,
    path=_paths,
    page_path=st.one_of(st.just(""), _paths),
    key=st.one_of(
        st.none(), st.text("0123456789abcdef", min_size=1, max_size=32)
    ),
    is_real_key=st.booleans(),
)


def _not_a_record(line: str, how: int, junk: str) -> str:
    """Damage a journal line so that no parser may accept it."""
    fields = line.split("\t")
    if how == 0:
        del fields[len(junk) % len(fields)]
    elif how == 1:
        # Not an empty one: the reader strips a line's trailing
        # whitespace, tabs included, before it counts the fields.
        fields.append("x" + junk)
    elif how == 2:
        fields[0] = "t" + junk  # no float starts with a "t"
    elif how == 3:
        fields[1] = "kind-" + junk  # no BeaconKind has a dash
    else:
        fields[4] += "\udcff"  # an undecodable byte, as the reader sees it
    return "\t".join(fields)


junk_lines = st.builds(
    _not_a_record,
    probe_records.map(format_probe_line),
    st.integers(0, 4),
    st.text(_token_chars, max_size=8),
)


@given(probe_records)
def test_line_round_trip(record):
    assert parse_probe_line(format_probe_line(record)) == record


@given(st.lists(probe_records, max_size=8))
def test_reader_round_trip(records):
    lines = [format_probe_line(record) + "\n" for record in records]
    stats = ParseStats()
    assert list(read_probe_journal(lines, stats=stats, strict=True)) == records
    assert (stats.lines, stats.parsed, stats.malformed) == (
        len(records), len(records), 0,
    )


@given(st.lists(st.one_of(junk_lines, probe_records.map(format_probe_line))))
def test_junk_is_counted_line_by_line_and_never_raised(lines):
    good = [line for line in lines if "\udcff" not in line and _parses(line)]
    stats = ParseStats()
    records = list(read_probe_journal(lines, stats=stats))
    assert records == [parse_probe_line(line) for line in good]
    assert stats.lines == len(lines)
    assert stats.parsed == len(good)
    assert stats.malformed == len(lines) - len(good)
    assert len(stats.samples) == min(stats.malformed, 5)


@given(junk_lines)
def test_strict_raises_on_junk(line):
    assert not _parses(line) or "\udcff" in line
    with pytest.raises(TraceParseError):
        list(read_probe_journal([line], strict=True))


def _parses(line: str) -> bool:
    try:
        parse_probe_line(line)
    except TraceParseError:
        return False
    return True


@pytest.mark.parametrize(
    "opener", [open, gzip.open], ids=["plain", "gzip"]
)
def test_undecodable_byte_costs_one_line_not_the_journal(tmp_path, opener):
    path = str(tmp_path / "foreign.keys")
    record = ProbeRecord(
        1.5, "css_beacon", "10.0.0.1", "h.com", "/a.css", "/index.html"
    )
    good = format_probe_line(record).encode("utf-8")
    with opener(path, "wb") as handle:
        handle.write(
            good + b"\n" + good.replace(b"a.css", b"\xff.css") + b"\n"
            + good + b"\n"
        )
    stats = ParseStats()
    assert list(read_probe_journal(path, stats=stats)) == [record, record]
    assert (stats.lines, stats.parsed, stats.malformed) == (3, 2, 1)
    with pytest.raises(TraceParseError, match="undecodable"):
        list(read_probe_journal(path, strict=True))


def test_written_journal_reads_back(tmp_path):
    path = str(tmp_path / "t.keys.gz")
    records = [
        ProbeRecord(float(i), "mouse_image", "10.0.0.1", "h.com",
                    f"/k{i}.gif", "", key=f"{i:08x}", is_real_key=i == 2)
        for i in range(4)
    ]
    assert write_probe_journal(path, records) == 4
    assert list(read_probe_journal(path, strict=True)) == records
