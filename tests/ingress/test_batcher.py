"""Micro-batcher: flush budgets, coalescing, and rotation handling."""

from __future__ import annotations

import numpy as np

from repro.detection.service import DetectionService, RequestOutcome
from repro.detection.session import SessionKey, SessionState
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.ingress import batcher as batcher_module
from repro.ingress.batcher import MAX_BATCH, MAX_DELAY, MicroBatcher
from repro.instrument.keys import InstrumentationRegistry
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


def served(service: DetectionService, ip: str, path: str, timestamp: float):
    """One exchange routed through ``service``'s tracker, as a lane
    hands it to the batcher."""
    request = Request(
        method=Method.GET,
        url=Url.parse(f"http://site.example{path}"),
        client_ip=ip,
        headers=Headers([("User-Agent", "ua")]),
        timestamp=timestamp,
    )
    response = Response(status=200, body=b"x" * 100)
    outcome = service.handle_request(request)
    service.note_response(outcome, response)
    return outcome, request, response


def session(ip: str, session_id: str = "s-1") -> SessionState:
    return SessionState(
        session_id=session_id,
        key=SessionKey(ip, "ua"),
        started_at=0.0,
    )


class TestFlushBudgets:
    def test_count_budget_triggers_flush(self):
        batcher = MicroBatcher(tiny_model())
        for index in range(MAX_BATCH):
            assert batcher.flushes == 0
            state = session(f"10.0.{index // 256}.{index % 256}", f"s-{index}")
            batcher.observe(*exchange(state, "/a.html", index / MAX_BATCH))
        assert batcher.flushes == 1
        assert len(batcher.verdicts) == MAX_BATCH
        assert batcher.pending == 0

    def test_latency_budget_uses_virtual_time(self):
        batcher = MicroBatcher(tiny_model())
        state = session("10.0.0.1")
        batcher.observe(*exchange(state, "/a.html", 10.0))
        batcher.observe(*exchange(state, "/b.html", 10.0 + MAX_DELAY / 3))
        assert batcher.flushes == 0  # a third of the budget elapsed
        batcher.observe(*exchange(state, "/c.html", 10.0 + MAX_DELAY))
        assert batcher.flushes == 1  # budget reached

    def test_arrivals_coalesce_to_one_verdict_per_session(self):
        batcher = MicroBatcher(tiny_model())
        state = session("10.0.0.1")
        for index in range(50):
            batcher.observe(*exchange(state, f"/p{index}.html", index / 50))
        batch = batcher.close()
        assert len(batch) == 1
        assert batch[0].session_id == "s-1"

    def test_rescored_across_flushes(self):
        batcher = MicroBatcher(tiny_model())
        state = session("10.0.0.1")
        batcher.observe(*exchange(state, "/a.html", 0.0))
        batcher.flush()
        batcher.observe(*exchange(state, "/b.html", 1.0))
        batcher.flush()
        assert [v.session_id for v in batcher.verdicts] == ["s-1", "s-1"]

    def test_final_margin_independent_of_budgets(self, monkeypatch):
        def run() -> dict[str, float]:
            batcher = MicroBatcher(tiny_model())
            states = [session(f"10.0.0.{i}", f"s-{i}") for i in range(4)]
            for index in range(40):
                batcher.observe(
                    *exchange(states[index % 4], f"/p{index}.html", index)
                )
            batcher.close()
            return {v.session_id: v.margin for v in batcher.verdicts}

        large = run()
        monkeypatch.setattr(batcher_module, "MAX_BATCH", 2)
        monkeypatch.setattr(batcher_module, "MAX_DELAY", 5.0)
        small = run()
        assert small == large


class TestLifecycle:
    """The tracker owns a session's lifetime; the batcher only scores."""

    def test_disabled_without_model(self):
        batcher = MicroBatcher(None)
        assert not batcher.enabled
        state = session("10.0.0.1")
        batcher.observe(*exchange(state, "/a.html", 0.0))
        assert state.features is None
        assert batcher.close() == []
        assert batcher.verdicts == []

    def test_rotation_retires_accumulator_after_final_score(self):
        service = DetectionService(InstrumentationRegistry())
        batcher = MicroBatcher(tiny_model())
        exchanged = served(service, "10.0.0.1", "/a.html", 0.0)
        batcher.observe(*exchanged)
        first = exchanged[0].state
        assert first.features is not None and first.features.total == 1
        # Back after more than an hour: the tracker rotates the key to a
        # new session and drops the old one's attributes...
        replacement = served(service, "10.0.0.1", "/b.html", 4000.0)
        batcher.observe(*replacement)
        assert replacement[0].state is not first
        assert first.features is None
        # ...which the dirty map still holds for its final score.
        batcher.close()
        scored = [v.session_id for v in batcher.verdicts]
        assert sorted(scored) == sorted(
            [first.session_id, replacement[0].state.session_id]
        )

    def test_idle_sessions_evicted_after_final_score(self):
        """Memory stays bounded on million-session streams: a session the
        tracker expires (a housekeeping sweep) loses its attributes, and
        is still scored exactly once, at the next flush."""
        service = DetectionService(InstrumentationRegistry())
        batcher = MicroBatcher(tiny_model())
        scored_early = served(service, "10.0.0.1", "/a.html", 0.0)
        batcher.observe(*scored_early)
        batcher.flush()
        dirty = served(service, "10.0.0.2", "/b.html", 30.0)
        batcher.observe(*dirty)
        expired = service.tracker.expire_idle(5000.0)
        old, idler = scored_early[0].state, dirty[0].state
        assert expired == [old, idler]
        assert old.features is None and idler.features is None
        batcher.close()
        scored = [v.session_id for v in batcher.verdicts]
        assert scored.count(old.session_id) == 1
        assert scored.count(idler.session_id) == 1
        assert batcher.pending == 0
