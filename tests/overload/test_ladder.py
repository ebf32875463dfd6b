"""Unit tests for the graduated response ladder state machine."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.obs.registry import MetricsRegistry
from repro.overload.ladder import (
    LadderConfig,
    LadderStage,
    ResponseLadder,
    is_checkpoint,
    merge_ladder_states,
)

IP = "10.1.2.3"


def _ladder(**overrides) -> ResponseLadder:
    return ResponseLadder(LadderConfig(**overrides))


def _escalate(ladder: ResponseLadder, ip: str, verdicts: int, at=0.0):
    """Feed ``verdicts`` robot checkpoint verdicts for ``ip``."""
    for _ in range(verdicts):
        ladder.observe_verdict(ip, margin=-1.0, timestamp=at)


class TestCheckpoints:
    def test_powers_of_two_at_or_past_base(self):
        fires = [n for n in range(1, 70) if is_checkpoint(n, 4)]
        assert fires == [4, 8, 16, 32, 64]

    def test_base_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            LadderConfig(checkpoint_base=3)
        with pytest.raises(ValueError, match="power of two"):
            LadderConfig(checkpoint_base=1)


class TestConfigValidation:
    def test_threshold_order(self):
        with pytest.raises(ValueError, match="throttle <= captcha"):
            LadderConfig(throttle_points=3.0, captcha_points=2.0)
        with pytest.raises(ValueError, match="throttle <= captcha"):
            LadderConfig(captcha_points=5.0, block_points=4.0)

    def test_other_bounds(self):
        with pytest.raises(ValueError):
            LadderConfig(half_life=0.0)
        with pytest.raises(ValueError):
            LadderConfig(throttle_keep_one_in=1)
        with pytest.raises(ValueError):
            LadderConfig(challenge_patience=0)
        with pytest.raises(ValueError):
            LadderConfig(robot_weight=0.0)


class TestEvidence:
    def test_unknown_ip_allows(self):
        assert _ladder().gate(IP, 0.0) is LadderStage.ALLOW

    def test_human_verdicts_never_create_records(self):
        ladder = _ladder()
        for _ in range(50):
            ladder.observe_verdict(IP, margin=2.0, timestamp=0.0)
        assert ladder.export_state()["ips"] == {}

    def test_tie_margin_is_robot(self):
        # Matches the batch scorer's tie-to-robot rule.
        ladder = _ladder()
        ladder.observe_verdict(IP, margin=0.0, timestamp=0.0)
        assert ladder.export_state()["ips"][IP]["points"] == 1.0

    def test_stages_escalate_with_evidence(self):
        ladder = _ladder()  # thresholds 1 / 2 / 4
        _escalate(ladder, IP, 1)
        assert ladder.gate(IP, 0.0) is LadderStage.THROTTLE
        _escalate(ladder, IP, 1)
        assert ladder.gate(IP, 0.0) is LadderStage.CAPTCHA
        _escalate(ladder, IP, 2)
        assert ladder.gate(IP, 0.0) is LadderStage.BLOCK

    def test_stage_ranks_are_ordered(self):
        ranks = [
            LadderStage.ALLOW.rank,
            LadderStage.THROTTLE.rank,
            LadderStage.CAPTCHA.rank,
            LadderStage.BLOCK.rank,
        ]
        assert ranks == sorted(ranks) == [0, 1, 2, 3]


class TestDecay:
    def test_points_halve_per_whole_step(self):
        ladder = _ladder(half_life=100.0)
        _escalate(ladder, IP, 4, at=0.0)  # 4 points -> BLOCK
        assert ladder.gate(IP, 50.0) is LadderStage.BLOCK  # no step yet
        assert ladder.gate(IP, 150.0) is LadderStage.CAPTCHA  # 2.0
        assert ladder.gate(IP, 250.0) is LadderStage.THROTTLE  # 1.0

    def test_anchor_advances_in_whole_steps_only(self):
        ladder = _ladder(half_life=100.0)
        _escalate(ladder, IP, 4, at=0.0)
        ladder.gate(IP, 250.0)
        record = ladder.export_state()["ips"][IP]
        assert record["anchor"] == 200.0
        assert record["points"] == 1.0

    def test_fully_decayed_ip_allows_again(self):
        ladder = _ladder(half_life=10.0)
        _escalate(ladder, IP, 1, at=0.0)
        assert ladder.gate(IP, 1000.0) is LadderStage.ALLOW


class TestThrottle:
    def test_admits_one_in_n(self):
        ladder = _ladder(throttle_keep_one_in=4)
        _escalate(ladder, IP, 1)
        stages = [ladder.gate(IP, 0.0) for _ in range(8)]
        # The batcher must keep seeing evidence: every 4th request
        # passes through to detection.
        assert stages == [
            LadderStage.THROTTLE,
            LadderStage.THROTTLE,
            LadderStage.THROTTLE,
            LadderStage.ALLOW,
        ] * 2
        record = ladder.export_state()["ips"][IP]
        assert record["throttled"] == 6


class TestCaptcha:
    def test_pass_exonerates(self):
        ladder = _ladder()
        _escalate(ladder, IP, 2)
        assert ladder.gate(IP, 0.0) is LadderStage.CAPTCHA
        ladder.note_captcha_result(IP, passed=True, timestamp=1.0)
        assert ladder.gate(IP, 1.0) is LadderStage.ALLOW

    def test_fail_condemns(self):
        ladder = _ladder()
        _escalate(ladder, IP, 2)
        ladder.note_captcha_result(IP, passed=False, timestamp=1.0)
        assert ladder.gate(IP, 1.0) is LadderStage.BLOCK

    def test_result_for_unknown_ip_is_a_no_op(self):
        ladder = _ladder()
        ladder.note_captcha_result(IP, passed=False, timestamp=0.0)
        assert ladder.export_state()["ips"] == {}

    def test_unanswered_challenges_escalate_to_block(self):
        ladder = _ladder(challenge_patience=3)
        _escalate(ladder, IP, 2)
        stages = [ladder.gate(IP, float(i)) for i in range(6)]
        assert stages[:3] == [LadderStage.CAPTCHA] * 3
        # Hammering past the patience budget is evidence in itself.
        assert stages[3:] == [LadderStage.BLOCK] * 3

    def test_solving_resets_the_patience_streak(self):
        ladder = _ladder(challenge_patience=3)
        _escalate(ladder, IP, 2)
        for i in range(3):
            assert ladder.gate(IP, float(i)) is LadderStage.CAPTCHA
        ladder.note_captcha_result(IP, passed=False, timestamp=3.0)
        record = ladder.export_state()["ips"][IP]
        assert record["stage"] == "block"


class TestTransitionsAndExport:
    def test_transitions_record_each_stage_change(self):
        ladder = _ladder()
        _escalate(ladder, IP, 1, at=10.0)
        _escalate(ladder, IP, 1, at=20.0)
        _escalate(ladder, IP, 2, at=30.0)
        state = ladder.export_state()
        assert [t[2:] for t in state["transitions"]] == [
            ["allow", "throttle"],
            ["throttle", "captcha"],
            ["captcha", "block"],
        ]
        assert [t[:2] for t in state["transitions"]] == [
            [10.0, IP], [20.0, IP], [30.0, IP]
        ]

    def test_export_is_canonical_json(self):
        ladder = _ladder()
        _escalate(ladder, "10.0.0.2", 2)
        _escalate(ladder, "10.0.0.1", 1)
        state = ladder.export_state()
        assert list(state["ips"]) == sorted(state["ips"])
        json.dumps(state, sort_keys=True)  # round-trips

    def test_merge_unions_disjoint_partitions(self):
        a, b = _ladder(), _ladder()
        _escalate(a, "10.0.0.1", 1, at=5.0)
        _escalate(b, "10.0.0.2", 2, at=3.0)
        merged = merge_ladder_states([a.export_state(), b.export_state()])
        assert sorted(merged["ips"]) == ["10.0.0.1", "10.0.0.2"]
        # Transitions interleave on (timestamp, ip).
        assert [t[0] for t in merged["transitions"]] == sorted(
            t[0] for t in merged["transitions"]
        )

    def test_merge_order_does_not_matter(self):
        a, b = _ladder(), _ladder()
        _escalate(a, "10.0.0.1", 1, at=5.0)
        _escalate(b, "10.0.0.2", 2, at=3.0)
        one = merge_ladder_states([a.export_state(), b.export_state()])
        other = merge_ladder_states([b.export_state(), a.export_state()])
        assert json.dumps(one, sort_keys=True) == json.dumps(
            other, sort_keys=True
        )

    def test_merge_refuses_overlapping_partitions(self):
        a, b = _ladder(), _ladder()
        _escalate(a, IP, 1)
        _escalate(b, IP, 1)
        with pytest.raises(ValueError, match="overlap"):
            merge_ladder_states([a.export_state(), b.export_state()])


class TestMetricsAndPickling:
    def test_metric_families(self):
        registry = MetricsRegistry()
        ladder = _ladder(throttle_keep_one_in=2)
        ladder.attach_metrics(registry, {"node": "n0", "shard": "0"})
        ladder.observe_verdict(IP, margin=1.0, timestamp=0.0)
        _escalate(ladder, IP, 1)
        ladder.gate(IP, 0.0)
        snap = registry.snapshot()
        labels = {"node": "n0", "shard": "0"}
        assert snap.get(
            "repro_ladder_verdicts_total", {**labels, "verdict": "human"}
        ).value == 1
        assert snap.get(
            "repro_ladder_verdicts_total", {**labels, "verdict": "robot"}
        ).value == 1
        assert snap.get(
            "repro_ladder_transitions_total",
            {**labels, "src": "allow", "dst": "throttle"},
        ).value == 1
        assert snap.get(
            "repro_ladder_gated_total", {**labels, "stage": "throttle"}
        ).value == 1

    def test_ladder_pickles_with_its_registry(self):
        # NodeShard state crosses process boundaries; the ladder rides
        # along, so it must survive a pickle round-trip intact.
        ladder = _ladder()
        ladder.attach_metrics(MetricsRegistry(), {"node": "n0"})
        _escalate(ladder, IP, 2)
        clone = pickle.loads(pickle.dumps(ladder))
        assert clone.export_state() == ladder.export_state()
        assert clone.gate(IP, 0.0) is LadderStage.CAPTCHA

    def test_pickled_ladder_counts_into_its_own_registry(self):
        # A process lane receives a pickled copy of the shard — ladder and
        # registry together — and must count into that copy, even after
        # the original resolved its counter handles.
        registry = MetricsRegistry()
        ladder = _ladder()
        ladder.attach_metrics(registry, {"node": "n0"})
        _escalate(ladder, IP, 4)
        assert ladder.gate(IP, 0.0) is LadderStage.BLOCK
        clone_registry, clone = pickle.loads(pickle.dumps((registry, ladder)))
        clone.gate(IP, 0.0)
        clone.gate(IP, 0.0)
        labels = {"node": "n0", "stage": "block"}
        assert registry.snapshot().get(
            "repro_ladder_gated_total", labels
        ).value == 1
        assert clone_registry.snapshot().get(
            "repro_ladder_gated_total", labels
        ).value == 3
