"""Edge-case tests across modules: validation paths and small utilities
not covered by the behavioural suites."""

from __future__ import annotations

import pytest

from repro.agents.base import FetchAction, SessionBudget
from repro.detection.set_algebra import SetAlgebraSummary
from repro.http.headers import Headers
from repro.http.message import Exchange, Method, Request, Response
from repro.http.uri import Url
from repro.proxy.node import NodeStats
from repro.workload.codeen import CaptchaCrossCheck, CodeenWeekConfig


class TestFetchActionAndBudget:
    def test_negative_think_time_rejected(self):
        with pytest.raises(ValueError):
            FetchAction("http://h.com/", think_time=-1.0)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SessionBudget(max_requests=0)
        with pytest.raises(ValueError):
            SessionBudget(max_duration=0.0)

    def test_defaults_sane(self):
        budget = SessionBudget()
        assert budget.max_requests >= 100
        assert budget.max_duration > 60


class TestExchange:
    def test_timestamp_from_request(self):
        request = Request(
            method=Method.GET,
            url=Url.parse("http://h.com/a"),
            client_ip="1.1.1.1",
            headers=Headers(),
            timestamp=42.0,
        )
        exchange = Exchange(request=request, response=Response(status=200))
        assert exchange.timestamp == 42.0


class TestStatsAggregation:
    def test_network_absorbs_node(self):
        node = NodeStats(
            requests=10,
            beacon_requests=2,
            bytes_served=1000,
            beacon_bytes_served=50,
            instrumentation_markup_bytes=30,
            pages_instrumented=3,
        )
        total = NodeStats()
        total.absorb(node)
        total.absorb(node)
        assert total.requests == 20
        assert total.beacon_bytes_served == 100
        assert total.beacon_bandwidth_fraction == pytest.approx(0.05)
        assert total.markup_bandwidth_fraction == pytest.approx(0.03)

    def test_empty_fractions_zero(self):
        assert NodeStats().beacon_bandwidth_fraction == 0.0
        assert NodeStats().markup_bandwidth_fraction == 0.0


class TestSetAlgebraEdgeValues:
    def test_zero_sessions(self):
        summary = SetAlgebraSummary(
            total_sessions=0, css_downloads=0, js_executions=0,
            mouse_movements=0, captcha_passes=0, hidden_link_follows=0,
            ua_mismatches=0, human_upper_count=0,
        )
        assert summary.lower_bound == 0.0
        assert summary.max_false_positive_rate == 0.0

    def test_all_mouse_sessions(self):
        summary = SetAlgebraSummary(
            total_sessions=10, css_downloads=10, js_executions=10,
            mouse_movements=10, captcha_passes=0, hidden_link_follows=0,
            ua_mismatches=0, human_upper_count=10,
        )
        # Denominator (1 - lower) collapses to zero: defined as 0 FPR.
        assert summary.max_false_positive_rate == 0.0


class TestCodeenConfig:
    def test_invalid_sessions(self):
        with pytest.raises(ValueError):
            CodeenWeekConfig(n_sessions=0)

    def test_cross_check_empty(self):
        check = CaptchaCrossCheck(
            passers=0, passers_with_js=0, passers_with_css=0
        )
        assert check.js_fraction == 0.0
        assert check.js_disabled_fraction == 0.0

    def test_cross_check_fractions(self):
        check = CaptchaCrossCheck(
            passers=100, passers_with_js=96, passers_with_css=99
        )
        assert check.js_fraction == pytest.approx(0.96)
        assert check.js_disabled_fraction == pytest.approx(0.03)
