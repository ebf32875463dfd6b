"""Tests for repro.analysis: CDFs, tables, ASCII plots."""

from __future__ import annotations

import pytest

from repro.analysis.ascii_plot import bar_chart, line_chart
from repro.analysis.cdf import detection_cdfs
from repro.analysis.tables import format_table, render_table1
from repro.detection.session import DetectionLatency
from repro.detection.set_algebra import SetAlgebraSummary


def _latency(i, css=None, js=None, mouse=None):
    return DetectionLatency(
        session_id=f"s{i}", css_at=css, beacon_js_at=js, mouse_at=mouse
    )


class TestDetectionCdfs:
    def test_curves_built_from_present_signals(self):
        latencies = [
            _latency(0, css=3, js=4, mouse=10),
            _latency(1, css=5),
            _latency(2),
        ]
        cdfs = detection_cdfs(latencies)
        assert cdfs.css.n == 2
        assert cdfs.beacon_js.n == 1
        assert cdfs.mouse.n == 1

    def test_missing_curves_are_none(self):
        cdfs = detection_cdfs([_latency(0)])
        assert cdfs.css is None
        assert cdfs.mouse is None

    def test_series_shape(self):
        cdfs = detection_cdfs([_latency(0, css=3), _latency(1, css=9)])
        series = cdfs.series(max_requests=10, step=1)
        assert "CSS files" in series
        xs = [x for x, _ in series["CSS files"]]
        assert xs == list(range(11))
        values = [v for _, v in series["CSS files"]]
        assert values[0] == 0.0
        assert values[-1] == 1.0


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(
            ["Name", "Count"], [["a", "1"], ["bb", "22"]], align_right={1}
        )
        lines = out.splitlines()
        assert lines[0].startswith("Name")
        assert lines[2].endswith("1")

    def test_format_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["A"], [["1", "2"]])

    def test_render_table1_layout(self):
        summary = SetAlgebraSummary(
            total_sessions=1000,
            css_downloads=289,
            js_executions=271,
            mouse_movements=223,
            captcha_passes=91,
            hidden_link_follows=10,
            ua_mismatches=7,
            human_upper_count=242,
        )
        out = render_table1(summary)
        assert "Downloaded CSS" in out
        assert "28.9" in out
        assert "Total sessions" in out
        assert "max false positive rate" in out


class TestAsciiPlots:
    def test_line_chart_renders(self):
        chart = line_chart(
            {"a": [(0, 0.0), (10, 1.0)], "b": [(0, 1.0), (10, 0.0)]},
            width=40,
            height=10,
        )
        assert "*" in chart and "+" in chart
        assert "a" in chart and "b" in chart

    def test_line_chart_requires_data(self):
        with pytest.raises(ValueError):
            line_chart({})

    def test_bar_chart_renders(self):
        chart = bar_chart(
            ["Jan", "Feb"], {"Robot": [3, 9], "Human": [1, 0]}
        )
        assert "Jan" in chart and "Feb" in chart
        assert "Robot" in chart

    def test_bar_chart_length_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["Jan"], {"Robot": [1, 2]})

    def test_bar_chart_all_zero(self):
        chart = bar_chart(["Jan"], {"Robot": [0]})
        assert "Jan" in chart
