"""Micro-batcher: flush budgets, coalescing, and rotation handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.service import RequestOutcome
from repro.detection.session import SessionKey, SessionState
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.ingress.batcher import MicroBatchConfig, MicroBatcher
from repro.ml.adaboost import AdaBoostModel
from repro.ml.stump import DecisionStump


def tiny_model(rounds: int = 12) -> AdaBoostModel:
    rng = np.random.default_rng(17)
    model = AdaBoostModel(n_features=12)
    for _ in range(rounds):
        model.stumps.append(
            DecisionStump(
                feature=int(rng.integers(12)),
                threshold=float(rng.uniform(0, 20)),
                polarity=int(rng.choice((-1, 1))),
            )
        )
        model.alphas.append(float(rng.uniform(0.1, 1.0)))
    model.compile()
    return model


def exchange(session: SessionState, path: str, timestamp: float):
    request = Request(
        method=Method.GET,
        url=Url.parse(f"http://site.example{path}"),
        client_ip=session.key.client_ip,
        headers=Headers([("User-Agent", session.key.user_agent)]),
        timestamp=timestamp,
    )
    response = Response(status=200, body=b"x" * 100)
    outcome = RequestOutcome(
        state=session, hit=None, verdict=session.verdict(), blocked=False
    )
    return outcome, request, response


def session(ip: str, session_id: str = "s-1") -> SessionState:
    return SessionState(
        session_id=session_id,
        key=SessionKey(ip, "ua"),
        started_at=0.0,
    )


class TestFlushBudgets:
    def test_count_budget_triggers_flush(self):
        batcher = MicroBatcher(
            tiny_model(), MicroBatchConfig(max_batch=3, max_delay=1e9)
        )
        for index in range(3):
            state = session(f"10.0.0.{index}", f"s-{index}")
            batcher.observe(*exchange(state, "/a.html", float(index)))
        assert batcher.flushes == 1
        assert len(batcher.verdicts) == 3
        assert batcher.pending == 0

    def test_latency_budget_uses_virtual_time(self):
        batcher = MicroBatcher(
            tiny_model(), MicroBatchConfig(max_batch=1000, max_delay=60.0)
        )
        state = session("10.0.0.1")
        batcher.observe(*exchange(state, "/a.html", 10.0))
        batcher.observe(*exchange(state, "/b.html", 30.0))
        assert batcher.flushes == 0  # 20 virtual seconds elapsed
        batcher.observe(*exchange(state, "/c.html", 70.0))
        assert batcher.flushes == 1  # 60s budget reached

    def test_arrivals_coalesce_to_one_verdict_per_session(self):
        batcher = MicroBatcher(
            tiny_model(), MicroBatchConfig(max_batch=1000, max_delay=1e9)
        )
        state = session("10.0.0.1")
        for index in range(50):
            batcher.observe(*exchange(state, f"/p{index}.html", float(index)))
        batch = batcher.close()
        assert len(batch) == 1
        assert batch[0].session_id == "s-1"

    def test_rescored_across_flushes(self):
        batcher = MicroBatcher(
            tiny_model(), MicroBatchConfig(max_batch=1000, max_delay=1e9)
        )
        state = session("10.0.0.1")
        batcher.observe(*exchange(state, "/a.html", 0.0))
        batcher.flush()
        batcher.observe(*exchange(state, "/b.html", 1.0))
        batcher.flush()
        assert [v.session_id for v in batcher.verdicts] == ["s-1", "s-1"]

    def test_final_margin_independent_of_budgets(self):
        def run(config: MicroBatchConfig) -> dict[str, float]:
            batcher = MicroBatcher(tiny_model(), config)
            for index in range(40):
                state = session(f"10.0.0.{index % 4}", f"s-{index % 4}")
                batcher.observe(
                    *exchange(state, f"/p{index}.html", float(index))
                )
            batcher.close()
            return {v.session_id: v.margin for v in batcher.verdicts}

        small = run(MicroBatchConfig(max_batch=2, max_delay=5.0))
        large = run(MicroBatchConfig(max_batch=1000, max_delay=1e9))
        assert small == large


class TestLifecycle:
    def test_disabled_without_model(self):
        batcher = MicroBatcher(None)
        assert not batcher.enabled
        state = session("10.0.0.1")
        batcher.observe(*exchange(state, "/a.html", 0.0))
        assert batcher.close() == []
        assert batcher.verdicts == []

    def test_rotation_retires_accumulator_after_final_score(self):
        batcher = MicroBatcher(
            tiny_model(), MicroBatchConfig(max_batch=1000, max_delay=1e9)
        )
        first = session("10.0.0.1", "s-old")
        batcher.observe(*exchange(first, "/a.html", 0.0))
        replacement = session("10.0.0.1", "s-new")
        batcher.observe(*exchange(replacement, "/b.html", 4000.0))
        batcher.close()
        scored = {v.session_id for v in batcher.verdicts}
        assert scored == {"s-old", "s-new"}
        # The rotated session's accumulator is dropped after scoring.
        assert "s-old" not in batcher._accumulators

    def test_idle_sessions_evicted_after_final_score(self):
        """Memory stays bounded on million-session streams: a session
        idle past the timeout is dropped at the next flush (it already
        got its final score; the tracker would rotate it on return)."""
        batcher = MicroBatcher(
            tiny_model(),
            MicroBatchConfig(
                max_batch=1000, max_delay=50.0, idle_timeout=100.0
            ),
        )
        old = session("10.0.0.1", "s-old")
        batcher.observe(*exchange(old, "/a.html", 0.0))
        batcher.flush()
        assert "s-old" in batcher._accumulators
        # Another client keeps the stream moving past the idle horizon;
        # the latency budget trips a flush, which evicts the idler.
        other = session("10.0.0.2", "s-other")
        batcher.observe(*exchange(other, "/b.html", 120.0))
        batcher.observe(*exchange(other, "/c.html", 180.0))
        assert batcher.flushes == 2
        assert "s-old" not in batcher._accumulators
        assert "s-other" in batcher._accumulators
        # The evicted session was still scored exactly once.
        assert [v.session_id for v in batcher.verdicts].count("s-old") == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MicroBatchConfig(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchConfig(max_delay=0.0)
        with pytest.raises(ValueError):
            MicroBatchConfig(idle_timeout=0.0)
