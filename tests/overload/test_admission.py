"""Unit tests for front-door admission, delay-budget control and per-IP
fairness."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro.overload.admission as admission_module
from repro.obs.registry import MetricsRegistry
from repro.overload.admission import (
    DELAY_CAP,
    AdaptiveConfig,
    Admission,
    DelayBudgetController,
    FairnessTracker,
    ShedPolicy,
)

FLOODER = "10.9.9.9"
LEGIT = "10.0.0.1"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delay_budget": 0.0},
            {"delay_budget": -1.0},
            {"resume_ratio": 0.0},
            {"resume_ratio": 1.0},
            {"fairness_half_life": 0.0},
            {"fairness_boost": 0.5},
            {"ramp_requests": 0},
            {"duty_cycle": 1},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            AdaptiveConfig(**kwargs)

    def test_defaults_are_valid(self):
        AdaptiveConfig()


class TestFairnessTracker:
    def test_shares_are_admitted_fractions(self):
        tracker = FairnessTracker(half_life=5.0)
        tracker.note(FLOODER, 0.0)
        tracker.note(FLOODER, 0.0)
        tracker.note(LEGIT, 0.0)
        assert tracker.share(FLOODER, 0.0) == pytest.approx(2 / 3)
        assert tracker.share(LEGIT, 0.0) == pytest.approx(1 / 3)
        assert tracker.fair_share() == pytest.approx(0.5)
        assert tracker.population == 2

    def test_empty_tracker_shares_nothing(self):
        tracker = FairnessTracker(half_life=5.0)
        assert tracker.share(LEGIT, 0.0) == 0.0
        assert tracker.fair_share() == 1.0

    def test_old_traffic_decays_out_of_the_share(self):
        tracker = FairnessTracker(half_life=5.0)
        for _ in range(100):
            tracker.note(FLOODER, 0.0)
        tracker.note(LEGIT, 50.0)  # ten half-lives later
        assert tracker.share(LEGIT, 50.0) > 0.9
        assert tracker.share(FLOODER, 50.0) < 0.1

    def test_renormalization_preserves_shares(self):
        # Half-life of 1ms: 1 second of elapsed time is 1000 doublings,
        # far past the renormalisation scale.
        tracker = FairnessTracker(half_life=0.001)
        tracker.note(FLOODER, 0.0)
        tracker.note(LEGIT, 1.0)
        tracker.note(LEGIT, 1.0)
        # The flooder's stale weight fell below the prune cutoff.
        assert tracker.share(LEGIT, 1.0) == pytest.approx(1.0)
        assert tracker.population == 1


def _controller(lanes=1, metrics=None, **overrides):
    kwargs = {
        "delay_budget": 1.0,
        "resume_ratio": 0.5,
        "fairness_half_life": 5.0,
        "fairness_boost": 2.0,
        "ramp_requests": 4,
        "duty_cycle": 2,
        **overrides,
    }
    return DelayBudgetController(
        AdaptiveConfig(**kwargs), lanes, metrics=metrics
    )


class TestHysteresis:
    def test_admits_under_budget(self):
        controller = _controller()
        assert controller.admit(0, LEGIT, 0.5, now=0.0)
        report = controller.report()
        assert report.admitted == 1 and report.shed == 0

    def test_enters_above_budget_exits_below_resume(self):
        controller = _controller()
        controller.admit(0, LEGIT, 1.5, now=0.0)  # enter
        assert controller.report().lanes[0].entered == 1
        # Between resume (0.5) and budget (1.0): still shedding — no
        # flapping around the threshold.
        controller.admit(0, LEGIT, 0.8, now=0.1)
        assert controller.report().lanes[0].exited == 0
        controller.admit(0, LEGIT, 0.4, now=0.2)  # exit
        lane = controller.report().lanes[0]
        assert lane.exited == 1

    def test_budget_itself_does_not_trigger(self):
        controller = _controller()
        assert controller.admit(0, LEGIT, 1.0, now=0.0)
        assert controller.report().lanes[0].entered == 0

    def test_lanes_are_independent(self):
        controller = _controller(lanes=2)
        controller.admit(0, LEGIT, 5.0, now=0.0)
        assert controller.admit(1, LEGIT, 0.0, now=0.0)
        lanes = controller.report().lanes
        assert lanes[0].entered == 1 and lanes[1].entered == 0


class TestFairnessShedding:
    def test_over_share_ip_sheds_first(self):
        controller = _controller()
        for _ in range(90):
            controller.admit(0, FLOODER, 0.0, now=0.0)
        for _ in range(10):
            controller.admit(0, LEGIT, 0.0, now=0.0)
        # Overload: the flooder holds 90% of the admitted share, the
        # fair share is 50% — it absorbs the drops while the
        # legitimate client keeps being admitted.
        assert not controller.admit(0, FLOODER, 2.0, now=0.0)
        assert controller.admit(0, LEGIT, 2.0, now=0.0)
        report = controller.report()
        assert report.reasons == {"fairness": 1}
        assert report.shed_fraction(FLOODER) > 0
        assert report.shed_fraction(LEGIT) == 0.0

    def test_multiple_tightens_as_pressure_ramps(self):
        # At episode start the multiple is boost * fair_share; a client
        # just over fair share only starts shedding once the episode
        # persists.
        controller = _controller(fairness_boost=2.0, ramp_requests=4)
        for _ in range(60):
            controller.admit(0, FLOODER, 0.0, now=0.0)
        for _ in range(40):
            controller.admit(0, LEGIT, 0.0, now=0.0)
        # share(FLOODER)=0.6, fair=0.5: under the boosted multiple at
        # first evaluation (0.5 * 1.75 = 0.875), over it at pressure 1.
        assert controller.admit(0, FLOODER, 2.0, now=0.0)
        for _ in range(3):
            controller.admit(0, LEGIT, 2.0, now=0.0)
        assert not controller.admit(0, FLOODER, 2.0, now=0.0)
        assert controller.report().reasons["fairness"] == 1


class TestDutyCycle:
    def test_saturated_pressure_admits_one_in_n(self):
        controller = _controller(ramp_requests=4, duty_cycle=2)
        decisions = [
            controller.admit(0, LEGIT, 2.0, now=0.0) for _ in range(12)
        ]
        # A single client is never over its own fair share, so only the
        # duty-cycle backstop sheds: nothing while the pressure ramps,
        # every other request once it saturates (on the 4th request).
        assert decisions[:3] == [True] * 3
        assert decisions[3:] == [False, True] * 4 + [False]
        assert controller.report().reasons == {"delay_budget": 5}

    def test_backstop_stands_down_under_budget(self):
        controller = _controller(ramp_requests=2, duty_cycle=2)
        for _ in range(4):
            controller.admit(0, LEGIT, 2.0, now=0.0)
        # Still shedding (hysteresis) but the prediction is back under
        # budget: the duty cycle no longer applies.
        assert controller.admit(0, LEGIT, 0.8, now=0.0)


class TestAccounting:
    def test_lane_shed_counts_match_report(self):
        controller = _controller(lanes=2, ramp_requests=1)
        for _ in range(6):
            controller.admit(0, LEGIT, 2.0, now=0.0)
        assert controller.admit(1, LEGIT, 0.0, now=0.0)
        report = controller.report()
        assert controller.lane_shed_counts() == [
            report.lanes[0].shed,
            report.lanes[1].shed,
        ]
        assert report.admitted + report.shed == 7
        by_ip = report.admitted_by_ip.get(LEGIT, 0) + report.shed_by_ip.get(
            LEGIT, 0
        )
        assert by_ip == 7

    def test_peak_pressure_is_reported(self):
        controller = _controller(ramp_requests=4)
        for _ in range(2):
            controller.admit(0, LEGIT, 2.0, now=0.0)
        assert controller.report().lanes[0].peak_pressure == pytest.approx(
            0.5
        )

    def test_shed_fraction_of_unseen_ip_is_zero(self):
        assert _controller().report().shed_fraction("10.255.0.1") == 0.0

    def test_wall_metrics_record_reasons_and_phases(self):
        registry = MetricsRegistry()
        controller = _controller(metrics=registry, ramp_requests=1)
        for _ in range(4):
            controller.admit(0, LEGIT, 2.0, now=0.0)
        controller.admit(0, LEGIT, 0.1, now=0.0)
        snap = registry.snapshot()
        assert snap.get(
            "repro_ingress_shed_reason_total",
            {"lane": "0", "reason": "delay_budget"},
        ).value > 0
        assert snap.get(
            "repro_ingress_adaptive_transitions_total",
            {"lane": "0", "phase": "enter"},
        ).value == 1
        assert snap.get(
            "repro_ingress_adaptive_transitions_total",
            {"lane": "0", "phase": "exit"},
        ).value == 1
        assert snap.get(
            "repro_ingress_adaptive_shedding", {"lane": "0"}
        ).value == 0.0
        # Nondeterministic wall-clock domain, never the deterministic
        # snapshot.
        assert not [
            p
            for p in snap.deterministic().points
            if p.name.startswith("repro_ingress_adaptive")
        ]


class TestOneAdmission:
    """The server and the pipeline feed one estimator two ways: a
    request's handle seconds each, or one sample's wall seconds over the
    events it saw delivered."""

    @staticmethod
    def _steps():
        """``(backlog, seconds served per event, events in the sample)``:
        a ramp into overload, a plateau, a drain."""
        steps = []
        for index in range(300):
            backlog = index // 3 if index < 150 else max(0, 300 - index)
            seconds = 0.002 + 0.001 * (index % 7)
            steps.append((backlog, seconds, 1 + index % 4))
        return steps

    def _drive(self, monkeypatch, feed):
        # The controller's fairness decays on the wall clock: give both
        # runs the same one.
        ticks = iter(range(10**6))
        monkeypatch.setattr(
            admission_module,
            "time",
            SimpleNamespace(monotonic=lambda: next(ticks) * 0.001),
        )
        admission = Admission(
            ShedPolicy.ADAPTIVE,
            1,
            adaptive=AdaptiveConfig(delay_budget=0.2, ramp_requests=8),
        )
        seen = []
        for index, (backlog, seconds, events) in enumerate(self._steps()):
            ip = "10.9.9.9" if index % 2 else f"10.0.0.{index % 5}"
            seen.append(
                (
                    admission.admit(0, ip, backlog),
                    admission.predict(0, backlog),
                )
            )
            feed(admission, seconds, events)
        return seen, admission.controller.report()

    def test_server_and_pipeline_feeds_decide_alike(self, monkeypatch):
        def server(admission, seconds, _events):
            admission.served(0, seconds)

        def pipeline(admission, seconds, events):
            # Part of the sample's wall time lands on a sample that saw
            # nothing delivered yet; it counts toward the next one.
            admission.served(0, seconds * events / 3, 0)
            admission.served(0, seconds * events * 2 / 3, events)

        served, served_report = self._drive(monkeypatch, server)
        sampled, sampled_report = self._drive(monkeypatch, pipeline)
        assert [d for d, _ in served] == [d for d, _ in sampled]
        assert [p for _, p in served] == pytest.approx(
            [p for _, p in sampled], rel=1e-12
        )
        assert served_report == sampled_report
        # The run was overloaded and then was not: both decisions occur.
        assert {decision for decision, _ in served} == {True, False}

    def test_block_admits_and_shed_refuses_past_the_cap(self):
        block = Admission(ShedPolicy.BLOCK, 1, cap=1)
        assert block.admit(0, LEGIT, 10**6)
        shed = Admission(ShedPolicy.SHED, 2, cap=2)
        assert [shed.admit(1, LEGIT, n) for n in (1, 2, 3)] == [
            True, True, False,
        ]
        # A process pipe is its own cap: it refuses whole chunks itself.
        assert Admission(ShedPolicy.SHED, 1).admit(0, LEGIT, 10**6)
        assert block.controller is None and shed.controller is None

    def test_prediction_is_backlog_times_service_and_capped(self):
        admission = Admission(ShedPolicy.BLOCK, 2)
        assert admission.predict(0, 0) == 0.0
        assert admission.predict(0, 10) == pytest.approx(0.05)  # the seed
        admission.served(0, 1.0, 10)
        assert admission.predict(0, 10) == pytest.approx(
            10 * (0.005 + 0.2 * (0.1 - 0.005))
        )
        assert admission.predict(1, 10) == pytest.approx(0.05)
        admission.served(1, 1e9)
        assert admission.predict(1, 10) == DELAY_CAP

    def test_adaptive_defaults_its_tuning(self):
        admission = Admission(ShedPolicy.ADAPTIVE, 1)
        assert admission.controller.config == AdaptiveConfig()
