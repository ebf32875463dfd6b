"""Tests for SessionState's verdicts and its §3.2 staging (``police``)."""

from __future__ import annotations

import pytest

from repro.detection.service import DetectionService
from repro.detection.session import (
    JS_NO_MOUSE_GRACE,
    DetectionLatency,
    PolicyConfig,
    SessionKey,
    SessionState,
)
from repro.detection.verdict import Label, Verdict
from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.util.timeutil import HOUR


def _state(**fields) -> SessionState:
    state = SessionState(
        session_id="s1", key=SessionKey("1.1.1.1", "UA"), started_at=0.0
    )
    for name, value in fields.items():
        setattr(state, name, value)
    return state


def _request(path="/a.html", t=0.0, method=Method.GET, ip="1.1.1.1"):
    return Request(
        method=method,
        url=Url.parse(f"http://h.com{path}"),
        client_ip=ip,
        headers=Headers([("User-Agent", "UA")]),
        timestamp=t,
    )


class TestOnlineDecisionOrder:
    def test_wrong_key_beats_everything(self):
        state = _state(
            wrong_key_fetches=1, mouse_event_at=3, request_count=5
        )
        verdict = state.verdict()
        assert verdict.label is Label.ROBOT
        assert verdict.definitive

    def test_hidden_link_is_robot(self):
        verdict = _state(hidden_link_at=2, request_count=3).verdict()
        assert verdict.label is Label.ROBOT
        assert verdict.definitive

    def test_ua_mismatch_is_robot(self):
        verdict = _state(ua_mismatch_at=2, request_count=3).verdict()
        assert verdict.label is Label.ROBOT

    def test_mouse_event_is_human(self):
        verdict = _state(mouse_event_at=4, request_count=6).verdict()
        assert verdict.label is Label.HUMAN
        assert verdict.definitive
        assert verdict.at_request == 4

    def test_captcha_pass_is_human(self):
        verdict = _state(captcha_passed_at=8, request_count=9).verdict()
        assert verdict.label is Label.HUMAN
        assert verdict.at_request == 8

    def test_js_no_mouse_needs_grace(self):
        # The grace is counted from the JS request, inclusive at its end.
        early = _state(
            js_executed_at=5, css_beacon_at=2,
            request_count=5 + JS_NO_MOUSE_GRACE - 1,
        )
        assert early.verdict().label is Label.HUMAN  # CSS wins
        late = _state(
            js_executed_at=5, css_beacon_at=2,
            request_count=5 + JS_NO_MOUSE_GRACE,
        )
        verdict = late.verdict()
        assert verdict.label is Label.ROBOT
        assert not verdict.definitive

    def test_css_only_is_tentative_human(self):
        verdict = _state(css_beacon_at=3, request_count=12).verdict()
        assert verdict.label is Label.HUMAN
        assert not verdict.definitive
        assert verdict.at_request == 3

    def test_nothing_after_min_requests_is_robot(self):
        assert _state(request_count=10).verdict().label is Label.ROBOT

    def test_undecided_early(self):
        assert _state(request_count=9).verdict().label is Label.UNDECIDED


class TestFinalClassification:
    def test_final_follows_set_algebra(self):
        human = _state(css_beacon_at=2, request_count=20)
        assert human.final_verdict().label is Label.HUMAN
        js_bot = _state(css_beacon_at=2, js_executed_at=3, request_count=20)
        assert js_bot.final_verdict().label is Label.ROBOT

    def test_final_hard_evidence_first(self):
        state = _state(css_beacon_at=2, hidden_link_at=5, request_count=20)
        verdict = state.final_verdict()
        assert verdict.label is Label.ROBOT
        assert verdict.definitive


class TestLatency:
    def test_from_state(self):
        state = _state(css_beacon_at=4, beacon_js_at=6, mouse_event_at=11)
        latency = DetectionLatency.from_state(state)
        assert latency.css_at == 4
        assert latency.beacon_js_at == 6
        assert latency.mouse_at == 11


ROBOT = Verdict(Label.ROBOT, "test", at_request=1)


class TestPolicy:
    def test_humans_always_allowed(self):
        state = _state()
        assert not state.police(
            _request(), Verdict(Label.HUMAN, "x"), PolicyConfig()
        )
        assert state.rates_at is None

    def test_undecided_allowed_by_default(self):
        state = _state()
        assert not state.police(
            _request(), Verdict(Label.UNDECIDED, "x"), PolicyConfig()
        )
        assert state.rates_at is None

    def test_robot_watched_until_threshold(self):
        state = _state()
        config = PolicyConfig(get_rate_limit=1000)
        assert not state.police(_request(t=3.0), ROBOT, config)
        assert (state.get_rate, state.rates_at) == (1.0, 3.0)

    def test_get_rate_trips_block(self):
        config = PolicyConfig(get_rate_limit=10)
        state = _state()
        blocked = [
            state.police(_request(t=i * 0.1), ROBOT, config)
            for i in range(30)
        ]
        assert blocked.index(True) == 10  # the 11th GET exceeds 10/min
        assert all(blocked[10:])
        assert "GET request rate" in state.block_reason

    def test_cgi_rate_trips_block(self):
        config = PolicyConfig(cgi_rate_limit=5)
        state = _state()
        for i in range(20):
            blocked = state.police(
                _request(path=f"/cgi-bin/s.cgi?q={i}", t=i * 0.2),
                ROBOT,
                config,
            )
        assert blocked
        assert "CGI" in state.block_reason

    def test_4xx_trips_block(self):
        state = _state(status_4xx=6)
        assert state.police(_request(), ROBOT, PolicyConfig(error_4xx_limit=5))
        assert state.block_reason == "4xx responses >= 5"

    def test_wrong_key_trips_immediately(self):
        state = _state(wrong_key_fetches=1)
        assert state.police(_request(), ROBOT, PolicyConfig())
        assert state.block_reason == "wrong-key beacon fetches >= 1"

    def test_blocked_stays_blocked(self):
        config = PolicyConfig(error_4xx_limit=1)
        state = _state(status_4xx=2)
        state.police(_request(), ROBOT, config)
        reason = state.block_reason
        for verdict in (ROBOT, Verdict(Label.UNDECIDED, "x"),
                        Verdict(Label.HUMAN, "x")):
            assert state.police(_request(t=9), verdict, config)
        assert state.block_reason == reason

    def test_rates_decay_over_time(self):
        config = PolicyConfig(get_rate_limit=10)
        state = _state()
        # Slow requests: one per minute never accumulates to the limit.
        for i in range(30):
            assert not state.police(_request(t=i * 60.0), ROBOT, config)
        assert state.get_rate < 2.0

    def test_rates_decay_after_a_watched_request_at_time_zero(self):
        # Virtual time starts at 0.0 (``SessionRunner.run(start_time=0.0)``):
        # a watched request then must not read as "never watched".
        state = _state()
        for _ in range(119):
            state.police(_request(t=0.0), ROBOT, PolicyConfig())
        assert state.get_rate == 119.0
        state.police(_request(t=1800.0), ROBOT, PolicyConfig())
        assert state.get_rate == pytest.approx(1.0)
        assert not state.block_reason

    def test_human_verdict_clears_watch(self):
        state = _state()
        state.police(_request(), ROBOT, PolicyConfig())
        assert state.get_rate == 1.0
        state.police(_request(t=1), Verdict(Label.HUMAN, "x"), PolicyConfig())
        assert (state.get_rate, state.rates_at) == (0.0, None)
        assert not state.block_reason

    def test_forget(self):
        # A block lasts until the session ends, and no longer: the
        # client's next session (after the idle hour) starts unwatched.
        service = DetectionService(InstrumentationRegistry())
        blocked = [
            service.handle_request(_request(f"/p{i}.html", t=i * 0.1)).blocked
            for i in range(200)
        ]
        assert blocked[-1]
        outcome = service.handle_request(_request(t=2 * HOUR))
        assert outcome.state.request_count == 1
        assert not outcome.blocked
        assert outcome.state.block_reason == ""

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PolicyConfig(cgi_rate_limit=0)
        with pytest.raises(ValueError):
            PolicyConfig(error_4xx_limit=0)


class TestPolicyThroughTheService:
    """Regressions, driven through ``DetectionService.handle_request``."""

    def test_a_block_outlasts_a_later_human_verdict(self):
        # A robot blocked for its GET rate used to lift its own block by
        # fetching the CSS beacon of its first page: the fetch turned its
        # verdict tentatively HUMAN, and the policy dropped the block.
        registry = InstrumentationRegistry()
        registry.register(
            RegisteredProbe(
                BeaconKind.CSS_BEACON, "9.9.9.9", "h.com", "/b.css",
                "/p.html", 0.0, "k",
            )
        )
        service = DetectionService(registry)
        t, outcome = 1.0, None
        while outcome is None or not outcome.blocked:
            t += 0.25
            outcome = service.handle_request(
                _request(f"/p{t}.html", t=t, ip="9.9.9.9")
            )
        assert outcome.state.block_reason.startswith("GET request rate")
        css = service.handle_request(_request("/b.css", t=t + 0.25, ip="9.9.9.9"))
        assert css.verdict.label is Label.HUMAN
        assert css.blocked
        after = service.handle_request(_request("/x.html", t=t + 9, ip="9.9.9.9"))
        assert after.blocked

    def test_a_watch_started_at_time_zero_decays(self):
        # 119 GETs at t=0 (the first nine undecided, so 110 watched) and
        # 11 half an hour later: the decayed rate is ~11/min.  Reading the
        # t=0 watch as "never updated" skipped the decay and summed to
        # 121/min, over the 120/min limit.
        service = DetectionService(InstrumentationRegistry())
        for i in range(119):
            assert not service.handle_request(_request(f"/a{i}", t=0.0)).blocked
        late = [
            service.handle_request(_request(f"/b{i}", t=1800.0))
            for i in range(11)
        ]
        assert not any(outcome.blocked for outcome in late)
        assert late[-1].state.get_rate == pytest.approx(11.0)
