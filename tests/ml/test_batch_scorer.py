"""Tests for vectorized AdaBoost scoring and batch (flush) scoring."""

from __future__ import annotations

import numpy as np
import pytest
from stump_reference import score_loop

from repro.detection.service import RequestOutcome
from repro.detection.session import SessionKey, SessionState
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.ingress.batcher import MicroBatcher
from repro.ml.adaboost import AdaBoostClassifier, AdaBoostModel
from repro.ml.batch import BatchVerdict
from repro.ml.stump import DecisionStump


def _synthetic_model(
    rounds: int = 50, n_features: int = 12, seed: int = 7
) -> AdaBoostModel:
    rng = np.random.default_rng(seed)
    model = AdaBoostModel(n_features=n_features)
    for _ in range(rounds):
        model.stumps.append(
            DecisionStump(
                feature=int(rng.integers(n_features)),
                threshold=float(rng.uniform(0, 100)),
                polarity=int(rng.choice((-1, 1))),
            )
        )
        model.alphas.append(float(rng.uniform(0.05, 1.5)))
    return model


def _trained_model(seed: int = 3) -> tuple[AdaBoostModel, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 100, size=(300, 12))
    y = np.where(x[:, 0] + 0.5 * x[:, 3] > 80.0, 1.0, -1.0)
    if len(np.unique(y)) < 2:  # pragma: no cover - seed guard
        y[0] = -y[0]
    model = AdaBoostClassifier(n_rounds=60).fit(x, y)
    return model, x


class TestVectorizedScoring:
    def test_matches_loop_on_synthetic_ensemble(self):
        model = _synthetic_model(rounds=200)
        x = np.random.default_rng(11).uniform(0, 100, size=(500, 12))
        np.testing.assert_allclose(
            model.score(x), score_loop(model, x), rtol=0, atol=1e-9
        )

    def test_matches_loop_on_trained_model(self):
        model, x = _trained_model()
        np.testing.assert_allclose(
            model.score(x), score_loop(model, x), rtol=0, atol=1e-9
        )

    def test_predictions_match_loop_sign(self):
        model, x = _trained_model()
        loop_margins = score_loop(model, x)
        # Avoid knife-edge comparisons: only assert where the loop
        # margin is clearly signed.
        decisive = np.abs(loop_margins) > 1e-9
        expected = np.where(loop_margins > 0.0, 1, -1)
        assert (model.predict(x)[decisive] == expected[decisive]).all()

    def test_staged_scores_match_loop_accumulation(self):
        model = _synthetic_model(rounds=40)
        x = np.random.default_rng(23).uniform(0, 100, size=(64, 12))
        staged = model.staged_scores(x)
        assert staged.shape == (40, 64)
        running = np.zeros(64)
        for t, (stump, alpha) in enumerate(zip(model.stumps, model.alphas)):
            running = running + alpha * stump.predict(x)
            np.testing.assert_allclose(staged[t], running, atol=1e-9)
        np.testing.assert_allclose(staged[-1], model.score(x), atol=1e-9)

    def test_zero_margin_tie_breaks_to_robot(self):
        # Two stumps with equal votes and opposite polarity cancel
        # exactly: margin == 0.0 for every sample, and a tie must be
        # classified robot (-1), the paper's safe default.
        model = AdaBoostModel(n_features=2)
        model.stumps = [
            DecisionStump(feature=0, threshold=5.0, polarity=1),
            DecisionStump(feature=0, threshold=5.0, polarity=-1),
        ]
        model.alphas = [0.75, 0.75]
        x = np.array([[1.0, 0.0], [9.0, 0.0]])
        np.testing.assert_array_equal(model.score(x), [0.0, 0.0])
        np.testing.assert_array_equal(score_loop(model, x), [0.0, 0.0])
        assert (model.predict(x) == -1).all()

    def test_empty_model_scores_zero_and_predicts_robot(self):
        model = AdaBoostModel(n_features=3)
        x = np.zeros((4, 3))
        np.testing.assert_array_equal(model.score(x), np.zeros(4))
        assert (model.predict(x) == -1).all()
        assert model.staged_scores(x).shape == (0, 4)

    def test_packed_cache_refreshes_after_fit_style_append(self):
        model = _synthetic_model(rounds=5)
        x = np.random.default_rng(2).uniform(0, 100, size=(16, 12))
        before = model.score(x)
        model.stumps.append(
            DecisionStump(feature=1, threshold=50.0, polarity=1)
        )
        model.alphas.append(2.0)
        after = model.score(x)
        assert model.compile().rounds == 6
        np.testing.assert_allclose(after, score_loop(model, x), atol=1e-9)
        assert not np.allclose(before, after)

    def test_shape_validation(self):
        model = _synthetic_model(rounds=3)
        with pytest.raises(ValueError):
            model.score(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            model.staged_scores(np.zeros((4, 5)))
        with pytest.raises(ValueError):
            score_loop(model, np.zeros(12))
        with pytest.raises(ValueError):
            model.score_row(np.zeros(5))


_PATHS = ("/", "/a.html", "/b.jpg", "/cgi-bin/q", "/favicon.ico", "/c.css")
_STATUSES = (200, 200, 304, 404)


def _observe_sessions(
    batcher: MicroBatcher, sessions: int
) -> list[SessionState]:
    """Drive ``sessions`` sessions (``sess-i``) through varied exchanges:
    methods, object kinds, Referers and status classes, so their Table 2
    rows spread over the whole range."""
    rng = np.random.default_rng(9)
    states = []
    for index in range(sessions):
        state = SessionState(
            session_id=f"sess-{index}",
            key=SessionKey(f"10.0.0.{index}", "ua"),
            started_at=0.0,
        )
        states.append(state)
        for step in range(int(rng.integers(1, 9))):
            headers = [("User-Agent", "ua")]
            if rng.random() < 0.5:
                headers.append(("Referer", "http://site.example/"))
            request = Request(
                method=Method.HEAD if rng.random() < 0.2 else Method.GET,
                url=Url.parse(
                    "http://site.example" + _PATHS[rng.integers(6)]
                ),
                client_ip=state.key.client_ip,
                headers=Headers(headers),
                timestamp=float(index + step / 10),
            )
            batcher.observe(
                RequestOutcome(
                    state=state, hit=None, verdict=None, blocked=False
                ),
                request,
                Response(status=int(rng.choice(_STATUSES)), body=b""),
            )
    return states


class TestBatchScorer:
    """Batch scoring as the micro-batcher flushes it: every dirty
    session's row through ``AdaBoostModel.score_row``."""

    def test_flush_matches_model_predict(self):
        model = _synthetic_model(rounds=200)
        batcher = MicroBatcher(model)
        states = _observe_sessions(batcher, 20)
        batch = batcher.flush()
        assert [v.session_id for v in batch] == [
            f"sess-{i}" for i in range(20)
        ]
        matrix = np.array([state.features.vector() for state in states])
        assert len({tuple(row) for row in matrix}) > 10
        margins = model.score(matrix)
        labels = model.predict(matrix)
        assert set(labels) == {-1, 1}
        for verdict, margin, label in zip(batch, margins, labels):
            assert verdict.margin == float(margin)
            assert verdict.label == int(label)

    def test_flush_empty_is_noop(self):
        batcher = MicroBatcher(_synthetic_model(rounds=2))
        assert batcher.flush() == []
        assert batcher.flushes == 0

    def test_zero_margin_is_robot(self):
        verdict = BatchVerdict(session_id="s", margin=0.0)
        assert verdict.label == -1
        assert verdict.is_robot

    def test_rejects_wrong_width(self):
        model = _synthetic_model(rounds=2)
        for row in ((0.0,) * 5, (0.0,) * 13, ()):
            with pytest.raises(ValueError, match="row of 12 values"):
                model.score_row(row)
