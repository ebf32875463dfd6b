"""Tests for repro.detection.service: the per-request pipeline."""

from __future__ import annotations

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
        assert outcome.state.request_count == 1
        assert outcome.state.started_at == 0.0
        assert service.tracker.total_started == 1
        assert outcome.hit is None
        assert outcome.verdict.label is Label.UNDECIDED
        assert not outcome.blocked

    def test_css_beacon_fetch_produces_event_and_flag(self):
        service, page = _service_with_instrumented_page()
        css = next(p for p in page.probes if p.kind.value == "css_beacon")
        service.handle_request(_request("/index.html"))
        outcome = service.handle_request(_request(css.path, t=1.0))
        assert outcome.hit.probe == css
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
        assert outcome.state.block_reason == "wrong-key beacon fetches >= 1"

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
        outcome.state.note_captcha(False)
        assert not outcome.state.passed_captcha
        outcome.state.note_captcha(True)
        assert outcome.state.passed_captcha
        assert outcome.state.verdict().label is Label.HUMAN

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

    def test_default_service_retains_no_events(self):
        # Nothing per request outlives the call: the caller gets each
        # hit and verdict, and the service keeps only session states.
        service, page = _service_with_instrumented_page()
        css = next(p for p in page.probes if p.kind.value == "css_beacon")
        hits = 0
        for i in range(1000):
            path = css.path if i == 500 else f"/p{i % 7}.html"
            outcome = service.handle_request(
                _request(path, ip=f"10.0.0.{i % 50}", t=float(i))
            )
            hits += outcome.hit is not None
        assert hits == 0  # the page's probes were issued to 1.2.3.4
        assert service.tracker.live_count == 50
        assert service.tracker.completed == []
        assert set(vars(service)) == {"_registry", "tracker", "policy"}

    def test_separate_sessions_per_ua(self):
        service, _ = _service_with_instrumented_page()
        a = service.handle_request(_request("/index.html", ua="A"))
        b = service.handle_request(_request("/index.html", ua="B"))
        assert a.state is not b.state


class TestWatchTableFollowsLiveSessions:
    """A session's §3.2 watch lives and ends with the session.

    There is no table of watched sessions beside the tracker: a retired
    session takes its rates and block with it, and the client's next
    session starts unwatched.
    """

    N_ROBOTS = 40

    def _robots(self, service, start, ips=range(N_ROBOTS)):
        # Twelve page fetches and no probe: the session is labelled a
        # robot at its tenth request, so its staging starts watching it.
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
        watched = [
            service.tracker.get(f"10.1.0.{i}", "bot")
            for i in range(self.N_ROBOTS)
        ]
        assert all(state.rates_at == 11.0 for state in watched)
        service.tracker.expire_idle(now=12.0 + 4000.0)
        assert service.tracker.live_count == 0
        assert service.tracker.completed == watched
        self._robots(service, start=8000.0, ips=range(1))
        fresh = service.tracker.get("10.1.0.0", "bot")
        assert fresh is not watched[0]
        assert (fresh.request_count, fresh.rates_at) == (12, 8011.0)
        assert fresh.get_rate < 3.0  # its own three watched requests

    def test_in_place_rotation_forgets_the_old_session(self):
        service = DetectionService(InstrumentationRegistry())
        self._robots(service, start=0.0)
        old = {
            i: service.tracker.get(f"10.1.0.{i}", "bot")
            for i in range(self.N_ROBOTS)
        }
        # Five of the clients come back after the 1-hour idle rule: each
        # return rotates its session inside ``tracker.observe``.
        self._robots(service, start=5000.0, ips=range(5))
        for i in range(self.N_ROBOTS):
            state = service.tracker.get(f"10.1.0.{i}", "bot")
            assert (state is old[i]) == (i >= 5)
            # Three watched requests in the new session, not fifteen.
            assert state.get_rate < 3.0
        assert service.tracker.completed == [old[i] for i in range(5)]
        assert service.tracker.live_count == self.N_ROBOTS
