"""Tests for ``SessionState.observe_hit``: one dispatch on the probe kind."""

from __future__ import annotations

from repro.detection.session import SessionKey, SessionState
from repro.instrument.keys import BeaconHit, BeaconKind, RegisteredProbe
from repro.instrument.ua_probe import sanitize_user_agent

_EVIDENCE = (
    "css_beacon_at",
    "beacon_js_at",
    "js_executed_at",
    "mouse_event_at",
    "hidden_link_at",
    "ua_mismatch_at",
)


def _state(ua="Mozilla/4.0 (compatible; MSIE 6.0)"):
    return SessionState(
        session_id="s1", key=SessionKey("1.1.1.1", ua), started_at=0.0
    )


def _hit(kind, is_real_key=True, echoed=None, path="/p"):
    probe = RegisteredProbe(
        kind=kind,
        client_ip="1.1.1.1",
        host="h.com",
        path=path,
        page_path="/index.html",
        issued_at=0.0,
        key="deadbeef00",
        is_real_key=is_real_key,
    )
    return BeaconHit(probe=probe, echoed_user_agent=echoed)


def _evidence(state):
    """The evidence fields that are set, with their request indices."""
    found = {
        name: getattr(state, name)
        for name in _EVIDENCE
        if getattr(state, name) is not None
    }
    if state.wrong_key_fetches:
        found["wrong_key_fetches"] = state.wrong_key_fetches
    return found


class TestHumanActivity:
    def test_valid_mouse_event(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.MOUSE_IMAGE), 7)
        assert _evidence(state) == {"mouse_event_at": 7}

    def test_duplicate_mouse_event_not_reemitted(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.MOUSE_IMAGE), 7)
        state.observe_hit(_hit(BeaconKind.MOUSE_IMAGE), 9)
        assert _evidence(state) == {"mouse_event_at": 7}

    def test_wrong_key_is_robot_evidence(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.MOUSE_IMAGE, is_real_key=False), 4)
        assert _evidence(state) == {"wrong_key_fetches": 1}
        # Every decoy fetch counts, not only the first.
        state.observe_hit(_hit(BeaconKind.MOUSE_IMAGE, is_real_key=False), 5)
        assert state.wrong_key_fetches == 2
        assert state.mouse_event_at is None

    def test_beacon_js_fetch_recorded(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.BEACON_JS), 3)
        assert _evidence(state) == {"beacon_js_at": 3}

    def test_ignores_other_kinds(self):
        # A CSS fetch is standard-browser evidence, not human activity.
        state = _state()
        state.observe_hit(_hit(BeaconKind.CSS_BEACON), 3)
        assert "mouse_event_at" not in _evidence(state)
        assert state.wrong_key_fetches == 0


class TestBrowserTest:
    def test_css_fetch(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.CSS_BEACON), 2)
        state.observe_hit(_hit(BeaconKind.CSS_BEACON), 4)
        assert _evidence(state) == {"css_beacon_at": 2}

    def test_ua_probe_marks_js_executed(self):
        state = _state()
        echoed = sanitize_user_agent(state.key.user_agent)
        state.observe_hit(_hit(BeaconKind.UA_PROBE, echoed=echoed), 5)
        assert _evidence(state) == {"js_executed_at": 5}

    def test_ua_mismatch_detected(self):
        state = _state(ua="Wget/1.10.2")
        state.observe_hit(
            _hit(BeaconKind.UA_PROBE, echoed="mozilla_4.0(msie6.0)"), 5
        )
        state.observe_hit(_hit(BeaconKind.UA_PROBE, echoed="other"), 8)
        assert _evidence(state) == {"js_executed_at": 5, "ua_mismatch_at": 5}

    def test_empty_echo_is_not_mismatch(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.UA_PROBE, echoed=""), 5)
        state.observe_hit(_hit(BeaconKind.UA_PROBE, echoed=None), 6)
        assert _evidence(state) == {"js_executed_at": 5}


class TestHiddenTrap:
    def test_trap_page_fetch(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.TRAP_PAGE), 6)
        assert _evidence(state) == {"hidden_link_at": 6}

    def test_trap_image_is_neutral(self):
        # Browsers fetch every <img>: the transparent trap image is
        # ordinary rendering, not evidence of anything.
        state = _state()
        state.observe_hit(_hit(BeaconKind.TRAP_IMAGE), 6)
        assert _evidence(state) == {}

    def test_only_first_emission(self):
        state = _state()
        state.observe_hit(_hit(BeaconKind.TRAP_PAGE), 6)
        state.observe_hit(_hit(BeaconKind.TRAP_PAGE), 8)
        assert _evidence(state) == {"hidden_link_at": 6}
