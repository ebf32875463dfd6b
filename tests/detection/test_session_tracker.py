"""Tests for repro.detection.session and repro.detection.tracker."""

from __future__ import annotations

import pytest

from repro.detection.session import SessionKey, SessionState
from repro.detection.tracker import SessionTracker
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.instrument.keys import BeaconHit, BeaconKind, RegisteredProbe
from repro.util.timeutil import HOUR


def _request(ip="1.1.1.1", ua="UA", path="/a.html", t=0.0, method=Method.GET):
    return Request(
        method=method,
        url=Url.parse(f"http://h.com{path}"),
        client_ip=ip,
        headers=Headers([("User-Agent", ua)]),
        timestamp=t,
    )


def _state(**kw) -> SessionState:
    return SessionState(
        session_id=kw.pop("session_id", "s1"),
        key=SessionKey("1.1.1.1", "UA"),
        started_at=0.0,
        **kw,
    )


class TestSessionState:
    def test_note_request_counts(self):
        state = _state()
        assert state.note_request(_request(t=1.0)) == 1
        assert state.note_request(_request(t=2.0, method=Method.HEAD)) == 2
        assert state.get_requests == 1
        assert state.head_requests == 1
        assert state.last_request_at == 2.0

    def test_cgi_counted(self):
        state = _state()
        state.note_request(_request(path="/cgi-bin/s.cgi?q=1"))
        assert state.cgi_requests == 1

    def test_note_response_status_classes(self):
        state = _state()
        for status in (200, 302, 404, 503):
            state.note_response(Response(status=status, body=b"xy"))
        assert state.status_2xx == 1
        assert state.status_3xx == 1
        assert state.status_4xx == 1
        assert state.status_5xx == 1
        assert state.bytes_served == 8

    def test_beacon_bytes_tracked(self):
        state = _state()
        state.note_response(Response(status=200, body=b"abc"), from_beacon=True)
        assert state.beacon_bytes_served == 3

    def test_mark_first_only_once(self):
        state = _state()
        css = BeaconHit(
            RegisteredProbe(
                BeaconKind.CSS_BEACON, "1.1.1.1", "h.com", "/b.css",
                "/a.html", 0.0,
            )
        )
        state.observe_hit(css, 5)
        state.observe_hit(css, 9)
        assert state.css_beacon_at == 5

    def test_set_algebra_membership(self):
        human = _state()
        human.css_beacon_at = 3
        assert human.is_human_by_set_algebra

        js_no_mouse = _state()
        js_no_mouse.css_beacon_at = 3
        js_no_mouse.js_executed_at = 4
        assert not js_no_mouse.is_human_by_set_algebra

        mouse = _state()
        mouse.js_executed_at = 4
        mouse.mouse_event_at = 9
        assert mouse.is_human_by_set_algebra

        nothing = _state()
        assert not nothing.is_human_by_set_algebra


class TestTracker:
    def test_groups_by_ip_and_ua(self):
        tracker = SessionTracker()
        a, started_a = tracker.observe(_request(ip="1.1.1.1", ua="X"))
        b, started_b = tracker.observe(_request(ip="1.1.1.1", ua="Y"))
        c, __ = tracker.observe(_request(ip="1.1.1.1", ua="X"))
        assert started_a and started_b
        assert a is c
        assert a is not b
        assert tracker.live_count == 2

    def test_idle_rotation(self):
        tracker = SessionTracker(idle_timeout=HOUR)
        first, _ = tracker.observe(_request(t=0.0))
        first.note_request(_request(t=0.0))
        second, started = tracker.observe(_request(t=2 * HOUR))
        assert started
        assert second is not first
        assert first in tracker.completed

    def test_no_rotation_within_timeout(self):
        tracker = SessionTracker(idle_timeout=HOUR)
        first, _ = tracker.observe(_request(t=0.0))
        first.note_request(_request(t=0.0))
        again, started = tracker.observe(_request(t=HOUR - 1))
        assert not started
        assert again is first

    def test_expire_idle(self):
        tracker = SessionTracker(idle_timeout=HOUR)
        state, _ = tracker.observe(_request(t=0.0))
        state.note_request(_request(t=0.0))
        expired = tracker.expire_idle(3 * HOUR)
        assert expired == [state]
        assert tracker.live_count == 0

    def test_finalize_all(self):
        tracker = SessionTracker()
        tracker.observe(_request(ip="1.1.1.1"))
        tracker.observe(_request(ip="2.2.2.2"))
        done = tracker.finalize_all()
        assert len(done) == 2
        assert tracker.live_count == 0
        assert len(tracker.completed) == 2

    def test_analyzable_filters_noise(self):
        tracker = SessionTracker(min_requests=10)
        state, _ = tracker.observe(_request())
        for i in range(10):
            state.note_request(_request(t=float(i)))
        short, _ = tracker.observe(_request(ip="9.9.9.9"))
        short.note_request(_request(ip="9.9.9.9"))
        tracker.finalize_all()
        analyzable = tracker.analyzable()
        assert short not in analyzable
        assert state not in analyzable  # exactly 10 is not > 10
        state.request_count = 11
        assert state in tracker.analyzable()

    def test_total_started(self):
        tracker = SessionTracker()
        tracker.observe(_request(ip="1.1.1.1"))
        tracker.observe(_request(ip="2.2.2.2"))
        tracker.observe(_request(ip="1.1.1.1"))
        assert tracker.total_started == 2

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            SessionTracker(idle_timeout=0)
        with pytest.raises(ValueError):
            SessionTracker(min_requests=-1)
