"""Integration: the CoDeeN-week deployment reproduces §3.1's structure.

These tests run against the shared 400-session workload (see conftest).
Tolerances are wide — the assertions pin the *shape* the paper reports,
not exact percentages, which need the benchmark-scale runs.
"""

from __future__ import annotations

from repro.analysis.cdf import detection_cdfs
from repro.detection.verdict import Label


class TestTable1Census:
    def test_all_sessions_analyzable(self, codeen_result):
        assert codeen_result.summary.total_sessions > 300

    def test_census_fractions_near_paper(self, codeen_result):
        s = codeen_result.summary
        assert 0.22 <= s.fraction("css_downloads") <= 0.36     # paper 28.9%
        assert 0.20 <= s.fraction("js_executions") <= 0.34     # paper 27.1%
        assert 0.15 <= s.fraction("mouse_movements") <= 0.29   # paper 22.3%
        assert 0.05 <= s.fraction("captcha_passes") <= 0.14    # paper  9.1%
        assert 0.001 <= s.fraction("hidden_link_follows") <= 0.04   # 1.0%
        assert 0.0 <= s.fraction("ua_mismatches") <= 0.03      # paper  0.7%

    def test_set_ordering_matches_paper(self, codeen_result):
        """CSS ⊇-ish JS ⊇-ish mouse: the paper's ordering of Table 1 rows."""
        s = codeen_result.summary
        assert s.css_downloads >= s.js_executions >= s.mouse_movements

    def test_bounds_and_fpr(self, codeen_result):
        s = codeen_result.summary
        assert s.lower_bound <= s.upper_bound
        assert 0.005 <= s.bound_gap <= 0.05          # paper 1.9%
        assert s.max_false_positive_rate <= 0.06     # paper 2.4%

    def test_captcha_cross_check(self, codeen_result):
        """§3.1: 95.8% of passers ran JS, 99.2% fetched CSS."""
        check = codeen_result.captcha_check
        assert check.passers > 10
        assert check.js_fraction > 0.85
        assert check.css_fraction > 0.95
        assert check.js_disabled_fraction < 0.12    # paper 3.4%

    def test_ground_truth_agreement(self, codeen_result):
        """The set algebra agrees with ground truth for ~all sessions."""
        correct = 0
        total = 0
        for state in codeen_result.sessions:
            if not state.true_label:
                continue
            total += 1
            verdict = state.final_verdict()
            expected = (
                Label.HUMAN if state.true_label == "human" else Label.ROBOT
            )
            if verdict.label is expected:
                correct += 1
        assert total > 300
        assert correct / total > 0.93

    def test_mouse_evidence_never_on_true_robots(self, codeen_result):
        """No robot in the mix can forge the keyed mouse event."""
        for state in codeen_result.sessions:
            if state.true_label == "robot":
                assert not state.in_mouse_set, state.agent_kind


class TestFigure2Latencies:
    def test_curves_present(self, codeen_result):
        cdfs = detection_cdfs(codeen_result.latencies)
        assert cdfs.css is not None
        assert cdfs.beacon_js is not None
        assert cdfs.mouse is not None

    def test_css_faster_than_mouse(self, codeen_result):
        """§3.1: browser testing is quick, activity detection needs more
        requests."""
        cdfs = detection_cdfs(codeen_result.latencies)
        assert cdfs.css.quantile(0.95) <= cdfs.mouse.quantile(0.95)

    def test_mouse_cdf_anchors(self, codeen_result):
        cdfs = detection_cdfs(codeen_result.latencies)
        assert cdfs.mouse.fraction_at_or_below(20) > 0.6   # paper 80%
        assert cdfs.mouse.fraction_at_or_below(57) > 0.85  # paper 95%

    def test_css_cdf_anchors(self, codeen_result):
        cdfs = detection_cdfs(codeen_result.latencies)
        assert cdfs.css.fraction_at_or_below(19) > 0.85    # paper 95%
        assert cdfs.css.fraction_at_or_below(48) > 0.95    # paper 99%

    def test_js_tracks_css(self, codeen_result):
        """'The clients who downloaded JavaScript files show similar
        characteristics to the CSS file case.'"""
        cdfs = detection_cdfs(codeen_result.latencies)
        assert abs(
            cdfs.beacon_js.quantile(0.95) - cdfs.css.quantile(0.95)
        ) <= 12


class TestOverheadAccounting:
    def test_beacon_bandwidth_is_small(self, codeen_result):
        """§3.2: probe objects ≈ 0.3% of bandwidth (same order here)."""
        fraction = codeen_result.stats.beacon_bandwidth_fraction
        assert 0.0 < fraction < 0.03

    def test_instrumented_page_count(self, codeen_result):
        assert codeen_result.stats.pages_instrumented > 500

    def test_policy_blocked_some_robots(self, codeen_result):
        assert codeen_result.stats.policy_blocked > 0
