"""Tests for repro.detection.service: the per-request pipeline."""

from __future__ import annotations

from repro.detection.events import EventKind
from repro.detection.service import DetectionService
from repro.detection.verdict import Label
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.instrument.keys import InstrumentationRegistry
from repro.instrument.rewriter import InstrumentConfig, PageInstrumenter
from repro.util.rng import RngStream


def _request(path, ip="1.2.3.4", ua="Mozilla/4.0 (compatible; MSIE 6.0)", t=0.0):
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://h.com{path}"),
        client_ip=ip,
        headers=Headers([("User-Agent", ua)]),
        timestamp=t,
    )


def _service_with_instrumented_page():
    registry = InstrumentationRegistry()
    service = DetectionService(registry)
    instrumenter = PageInstrumenter(
        registry, RngStream(12, "t"), InstrumentConfig()
    )
    page = instrumenter.instrument(
        "<html><head></head><body><p>x</p></body></html>",
        Url.parse("http://h.com/index.html"),
        "1.2.3.4",
        0.0,
    )
    return service, page


class TestPipeline:
    def test_session_started_event(self):
        service, _ = _service_with_instrumented_page()
        outcome = service.handle_request(_request("/index.html"))
        assert outcome.session_started
        assert outcome.events[0].kind is EventKind.SESSION_STARTED
        assert outcome.request_index == 1

    def test_css_beacon_fetch_produces_event_and_flag(self):
        service, page = _service_with_instrumented_page()
        css = next(p for p in page.probes if p.kind.value == "css_beacon")
        service.handle_request(_request("/index.html"))
        outcome = service.handle_request(_request(css.path, t=1.0))
        assert any(
            e.kind is EventKind.CSS_BEACON_FETCH for e in outcome.events
        )
        assert outcome.state.css_beacon_at == 2

    def test_valid_mouse_fetch_yields_human_verdict(self):
        service, page = _service_with_instrumented_page()
        real = next(
            p for p in page.probes
            if p.kind.value == "mouse_image" and p.is_real_key
        )
        service.handle_request(_request("/index.html"))
        outcome = service.handle_request(_request(real.path, t=1.0))
        assert outcome.verdict.label is Label.HUMAN
        assert outcome.verdict.definitive

    def test_decoy_fetch_yields_blocked_robot(self):
        service, page = _service_with_instrumented_page()
        decoy = next(
            p for p in page.probes
            if p.kind.value == "mouse_image" and not p.is_real_key
        )
        service.handle_request(_request("/index.html"))
        outcome = service.handle_request(_request(decoy.path, t=1.0))
        assert outcome.verdict.label is Label.ROBOT
        assert outcome.verdict.definitive
        # The wrong-key threshold blocks immediately.
        assert outcome.blocked

    def test_note_response_accounts_bytes(self):
        service, _ = _service_with_instrumented_page()
        outcome = service.handle_request(_request("/index.html"))
        service.note_response(
            outcome, Response(status=200, body=b"abcd")
        )
        assert outcome.state.bytes_served == 4
        assert outcome.state.status_2xx == 1

    def test_note_captcha(self):
        service, _ = _service_with_instrumented_page()
        outcome = service.handle_request(_request("/index.html"))
        event = service.note_captcha(outcome.state, True, 2.0)
        assert event.kind is EventKind.CAPTCHA_PASSED
        assert outcome.state.passed_captcha

    def test_finalize_and_reductions(self):
        service, page = _service_with_instrumented_page()
        css = next(p for p in page.probes if p.kind.value == "css_beacon")
        for i in range(12):
            service.handle_request(_request("/index.html", t=float(i)))
        service.handle_request(_request(css.path, t=20.0))
        finished = service.finalize()
        assert len(finished) == 1
        sets = service.session_sets()
        assert sets.summary().css_downloads == 1
        latencies = service.detection_latencies()
        assert latencies[0].css_at == 13

    def test_event_log_collects(self):
        service, _ = _service_with_instrumented_page()
        service.keep_event_log = True
        service.handle_request(_request("/index.html"))
        assert any(
            e.kind is EventKind.SESSION_STARTED for e in service.event_log
        )

    def test_default_service_retains_no_events(self):
        # The log is a debugging aid: left on it grows by one event per
        # session start and per probe hit for the life of the process.
        service, page = _service_with_instrumented_page()
        css = next(p for p in page.probes if p.kind.value == "css_beacon")
        seen = 0
        for i in range(1000):
            path = css.path if i == 500 else f"/p{i % 7}.html"
            outcome = service.handle_request(
                _request(path, ip=f"10.0.0.{i % 50}", t=float(i))
            )
            seen += len(outcome.events)
        assert seen >= 50  # the caller still gets every event
        assert service.event_log == []

    def test_separate_sessions_per_ua(self):
        service, _ = _service_with_instrumented_page()
        a = service.handle_request(_request("/index.html", ua="A"))
        b = service.handle_request(_request("/index.html", ua="B"))
        assert a.state is not b.state


class TestWatchTableFollowsLiveSessions:
    """A retired session's ``RobotPolicy`` watch entry goes with it.

    Session ids are never reissued, so an entry that outlives its
    session can never be consulted again — on a live server it only
    accumulates.
    """

    N_ROBOTS = 40

    def _robots(self, service, start, ips=range(N_ROBOTS)):
        # Twelve page fetches and no probe: the classifier calls the
        # session a robot, so the policy starts watching it.
        for i in ips:
            for k in range(12):
                service.handle_request(
                    _request(
                        f"/p{k}.html", ip=f"10.1.0.{i}", ua="bot", t=start + k
                    )
                )

    def test_idle_sweep_forgets_retired_sessions(self):
        service = DetectionService(InstrumentationRegistry())
        self._robots(service, start=0.0)
        assert len(service.policy._watch) == self.N_ROBOTS
        blocked = (
            service.policy.blocked_sessions,
            service.policy.blocked_requests,
        )
        service.tracker.expire_idle(now=12.0 + 4000.0)
        assert service.tracker.live_count == 0
        assert service.policy._watch == {}
        assert blocked == (
            service.policy.blocked_sessions,
            service.policy.blocked_requests,
        )

    def test_in_place_rotation_forgets_the_old_session(self):
        service = DetectionService(InstrumentationRegistry())
        self._robots(service, start=0.0)
        old_ids = set(service.policy._watch)
        # Five of the clients come back after the 1-hour idle rule: each
        # return rotates its session inside ``tracker.observe``.
        self._robots(service, start=5000.0, ips=range(5))
        live = {
            service.tracker.get(f"10.1.0.{i}", "bot").session_id
            for i in range(self.N_ROBOTS)
        }
        assert set(service.policy._watch) == live
        assert len(live & old_ids) == self.N_ROBOTS - 5
        assert service.tracker.live_count == self.N_ROBOTS
