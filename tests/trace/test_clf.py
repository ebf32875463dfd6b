"""Tests for repro.trace.clf."""

from __future__ import annotations

import gzip

import pytest

from repro.http.message import Method
from repro.http.uri import Url
from repro.trace.clf import (
    ParseStats,
    TraceParseError,
    TraceRecord,
    format_clf_line,
    format_clf_time,
    parse_clf_line,
    parse_clf_time,
    read_trace,
    write_trace,
)


def make_record(**overrides) -> TraceRecord:
    defaults = dict(
        client_ip="10.1.2.3",
        timestamp=742.318204,
        method=Method.GET,
        url=Url.parse("http://www.example.com/a/b.html?x=1"),
        status=200,
        size=5120,
        user_agent="Mozilla/4.0 (compatible; MSIE 6.0)",
        referer="http://www.example.com/",
        agent_kind="human_js",
        true_label="human",
    )
    defaults.update(overrides)
    return TraceRecord(**defaults)


class TestTime:
    def test_round_trip_microseconds(self):
        for t in (0.0, 0.5, 742.318204, 86_399.999999, 86_400.0, 604_800.25):
            assert parse_clf_time(format_clf_time(t)) == pytest.approx(
                t, abs=1e-6
            )

    def test_epoch_renders_as_feb_2006(self):
        assert format_clf_time(0.0) == "06/Feb/2006:00:00:00 +0000"

    def test_whole_seconds_have_no_fraction(self):
        assert "." not in format_clf_time(61.0)

    def test_accepts_plain_clf_stamp(self):
        assert parse_clf_time("06/Feb/2006:00:01:01 +0000") == 61.0

    def test_timezone_offset_applied(self):
        utc = parse_clf_time("06/Feb/2006:05:00:00 +0000")
        east = parse_clf_time("06/Feb/2006:06:00:00 +0100")
        assert utc == east

    def test_crosses_month_and_leap_year(self):
        # 2008 is a leap year; the date survives the round trip.
        text = format_clf_time(parse_clf_time("29/Feb/2008:12:00:00 +0000"))
        assert text.startswith("29/Feb/2008:12:00:00")

    def test_rejects_garbage(self):
        with pytest.raises(TraceParseError):
            parse_clf_time("yesterday at noon")
        with pytest.raises(TraceParseError):
            parse_clf_time("31/Feb/2006:00:00:00 +0000")
        with pytest.raises(TraceParseError):
            parse_clf_time("05/Feb/2006:00:00:00 +0000")  # pre-epoch

    @pytest.mark.parametrize(
        "clock", ["24:00:00", "99:00:00", "00:60:00", "00:99:00",
                  "00:00:61", "00:00:99", "99:99:99", "24:00:60"],
    )
    def test_rejects_a_time_no_clock_shows(self, clock):
        """Each used to parse (99:99:99 as 362439 s), so a corrupt line
        was replayed at a made-up time instead of counted malformed."""
        with pytest.raises(TraceParseError, match="time of day"):
            parse_clf_time(f"06/Feb/2006:{clock} +0000")
        line = (
            f'1.2.3.4 - - [06/Feb/2006:{clock} +0000] '
            '"GET http://h/ HTTP/1.1" 200 1 "-" "-"'
        )
        stats = ParseStats()
        assert list(read_trace([line], stats=stats)) == []
        assert stats.malformed == 1

    def test_accepts_the_last_second_and_a_leap_second(self):
        assert parse_clf_time("06/Feb/2006:23:59:59 +0000") == 86_399.0
        assert parse_clf_time("06/Feb/2006:23:59:60 +0000") == 86_400.0

    def test_rejects_dates_in_years_before_the_epoch(self):
        """The year-by-year walk never went backwards, so 10 Mar 1999
        used to parse as 10 Mar 2006."""
        for text in ("10/Mar/1999:00:00:00 +0000", "31/Dec/2005:23:59:59 +0000"):
            with pytest.raises(TraceParseError, match="predates"):
                parse_clf_time(text)
        with pytest.raises(TraceParseError):
            parse_clf_time("01/Jan/0000:00:00:00 +0000")


class TestLineRoundTrip:
    def test_full_record(self):
        record = make_record()
        assert parse_clf_line(format_clf_line(record)) == record

    def test_missing_optionals(self):
        record = make_record(
            referer=None, user_agent="", agent_kind="", true_label=""
        )
        line = format_clf_line(record)
        assert ' "-" "-"' in line
        assert parse_clf_line(line) == record

    def test_quotes_in_user_agent_escaped(self):
        record = make_record(user_agent='Weird "quoted" agent\\v1')
        assert parse_clf_line(format_clf_line(record)) == record

    def test_ground_truth_rides_ident_fields(self):
        line = format_clf_line(make_record())
        assert line.split(" ")[1] == "human_js"
        assert line.split(" ")[2] == "human"

    def test_real_log_line_without_combined_fields(self):
        line = (
            '66.249.66.1 - - [06/Feb/2006:10:00:00 +0000] '
            '"GET http://www.example.com/robots.txt HTTP/1.0" 404 209'
        )
        record = parse_clf_line(line)
        assert record.user_agent == ""
        assert record.status == 404

    def test_origin_form_target_needs_default_host(self):
        line = (
            '1.2.3.4 - - [06/Feb/2006:10:00:00 +0000] '
            '"GET /index.html HTTP/1.1" 200 99 "-" "curl/7.0"'
        )
        with pytest.raises(TraceParseError):
            parse_clf_line(line)
        record = parse_clf_line(line, default_host="www.example.com")
        assert str(record.url) == "http://www.example.com/index.html"

    def test_malformed_lines_raise(self):
        for bad in (
            "not a log line",
            '1.2.3.4 - - [bad time] "GET http://h/ HTTP/1.1" 200 1 "-" "-"',
            '1.2.3.4 - - [06/Feb/2006:10:00:00 +0000] "TRACE http://h/ '
            'HTTP/1.1" 200 1 "-" "-"',
        ):
            with pytest.raises(TraceParseError):
                parse_clf_line(bad)

    def test_to_request_rebuilds_headers(self):
        request = make_record().to_request()
        assert request.user_agent.startswith("Mozilla/4.0")
        assert request.referer == "http://www.example.com/"
        assert request.timestamp == pytest.approx(742.318204)


class TestFileIo:
    def test_write_read_plain(self, tmp_path):
        path = str(tmp_path / "trace.log")
        records = [make_record(timestamp=float(i)) for i in range(5)]
        assert write_trace(path, records) == 5
        assert list(read_trace(path)) == records

    def test_write_read_gzip(self, tmp_path):
        path = str(tmp_path / "trace.log.gz")
        records = [make_record(timestamp=float(i)) for i in range(5)]
        write_trace(path, records)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"
        assert list(read_trace(path)) == records

    def test_reads_gzip_without_suffix(self, tmp_path):
        path = str(tmp_path / "mystery.log")
        line = format_clf_line(make_record())
        with gzip.open(path, "wt") as handle:
            handle.write(line + "\n")
        assert len(list(read_trace(path))) == 1

    def test_malformed_lines_skipped_and_counted(self, tmp_path):
        path = str(tmp_path / "trace.log")
        good = format_clf_line(make_record())
        with open(path, "w") as handle:
            handle.write("# comment\n")
            handle.write(good + "\n")
            handle.write("garbage line\n")
            handle.write("\n")
            handle.write(good + "\n")
        stats = ParseStats()
        records = list(read_trace(path, stats=stats))
        assert len(records) == 2
        assert stats.malformed == 1
        assert stats.parsed == 2
        assert "garbage" in stats.samples[0]

    def test_strict_mode_raises(self, tmp_path):
        path = str(tmp_path / "trace.log")
        with open(path, "w") as handle:
            handle.write("garbage line\n")
        with pytest.raises(TraceParseError):
            list(read_trace(path, strict=True))

    @pytest.mark.parametrize(
        "opener", [open, gzip.open], ids=["plain", "gzip"]
    )
    def test_undecodable_byte_costs_one_line_not_the_file(
        self, tmp_path, opener
    ):
        """A foreign log need not be UTF-8.  The bad line is counted as
        malformed and the lines around it — before it too: the decoder
        reads ahead — still parse."""
        path = str(tmp_path / "foreign.log")
        good = format_clf_line(make_record()).encode("utf-8")
        bad = good.replace(b"MSIE", b"MS\xffIE")
        assert bad != good
        with opener(path, "wb") as handle:
            handle.write(good + b"\n" + bad + b"\n" + good + b"\n")
        stats = ParseStats()
        records = list(read_trace(path, stats=stats))
        assert records == [make_record(), make_record()]
        assert (stats.lines, stats.parsed, stats.malformed) == (3, 2, 1)
        # The sample shows the byte, in a form any stream can print.
        assert "MS\\xffIE" in stats.samples[0]
        stats.samples[0].encode("utf-8")
        with pytest.raises(TraceParseError, match="undecodable"):
            list(read_trace(path, strict=True))

    def test_valid_non_ascii_lines_still_parse(self, tmp_path):
        path = str(tmp_path / "trace.log")
        record = make_record(user_agent="Mozilla/5.0 (Nœud; ü)")
        write_trace(path, [record])
        assert list(read_trace(path, strict=True)) == [record]

    def test_reads_from_iterable(self):
        lines = [format_clf_line(make_record(timestamp=float(i)))
                 for i in range(3)]
        assert len(list(read_trace(lines))) == 3
