"""Tests for repro.detection.verdict and what each kind of evidence proves."""

from __future__ import annotations

from repro.detection.session import SessionKey, SessionState
from repro.detection.verdict import Label, Verdict

#: One piece of evidence each, as the session fields it sets.
_HUMAN_EVIDENCE = {
    "mouse": {"mouse_event_at": 3},
    "captcha": {"captcha_passed_at": 3},
}
_ROBOT_EVIDENCE = {
    "wrong key": {"wrong_key_fetches": 1},
    "hidden link": {"hidden_link_at": 3},
    "UA mismatch": {"ua_mismatch_at": 3},
}


def _state(**fields) -> SessionState:
    state = SessionState(
        session_id="s1", key=SessionKey("1.1.1.1", "UA"), started_at=0.0,
        request_count=5,
    )
    for name, value in fields.items():
        setattr(state, name, value)
    return state


class TestEventKinds:
    """Which evidence is definitive, and for which label."""

    def test_human_evidence(self):
        for fields in _HUMAN_EVIDENCE.values():
            verdict = _state(**fields).verdict()
            assert (verdict.label, verdict.definitive) == (Label.HUMAN, True)
        # A CSS fetch only looks like a browser: tentative.
        verdict = _state(css_beacon_at=2).verdict()
        assert (verdict.label, verdict.definitive) == (Label.HUMAN, False)

    def test_robot_evidence(self):
        for fields in _ROBOT_EVIDENCE.values():
            for verdict in (
                _state(**fields).verdict(), _state(**fields).final_verdict()
            ):
                assert (verdict.label, verdict.definitive) == (
                    Label.ROBOT, True
                )
        # Executing JavaScript is no robot evidence by itself.
        assert _state(js_executed_at=2).verdict().label is Label.UNDECIDED

    def test_no_kind_is_both(self):
        # Hard robot evidence outranks every kind of human evidence.
        for robot in _ROBOT_EVIDENCE.values():
            for human in _HUMAN_EVIDENCE.values():
                verdict = _state(**robot, **human).verdict()
                assert verdict.label is Label.ROBOT


class TestVerdict:
    def test_str_definitive(self):
        verdict = Verdict(Label.HUMAN, "mouse", definitive=True)
        assert "human" in str(verdict)
        assert "definitive" in str(verdict)

    def test_str_tentative(self):
        verdict = Verdict(Label.ROBOT, "no evidence")
        assert "tentative" in str(verdict)

    def test_labels_distinct(self):
        assert Label.HUMAN is not Label.ROBOT
        assert {label.value for label in Label} == {
            "human", "robot", "undecided"
        }
