"""``AdaBoostModel.score_row`` against ``score``: the same bits, row by row.

The micro-batcher and the ladder checkpoint score one session at a time
with ``score_row`` (a ``bisect_left`` per feature over the compiled
tables); datasets are scored as a matrix with ``score`` (a uniform grid
with a ``searchsorted`` fallback).  A margin is compared with ``==``,
never approximately: a flipped last bit can flip a zero-margin tie, and
verdicts are part of the byte-identity contract.  The rows that matter
most are the ones that miss the grid's clean buckets: exactly on a
threshold, and below or above the whole threshold range (the first and
last buckets are always dirty).
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from stump_reference import score_loop

from repro.ml.adaboost import AdaBoostClassifier, AdaBoostModel, demo_ensemble
from repro.ml.features import N_ATTRIBUTES, FeatureAccumulator
from repro.ml.stump import DecisionStump

#: Quarter steps over the percentage range and a little past it: coarse
#: enough that drawn thresholds often tie, fine enough to spread.
_THRESHOLD = st.integers(-40, 440).map(lambda k: k / 4.0)


@st.composite
def ensembles(draw, max_rounds: int = 40) -> AdaBoostModel:
    """A random ensemble whose thresholds come from a small pool (ties)."""
    n_features = draw(st.integers(1, N_ATTRIBUTES))
    pool = draw(st.lists(_THRESHOLD, min_size=1, max_size=6))
    model = AdaBoostModel(n_features=n_features)
    for _ in range(draw(st.integers(0, max_rounds))):
        model.stumps.append(
            DecisionStump(
                feature=draw(st.integers(0, n_features - 1)),
                threshold=draw(st.sampled_from(pool)),
                polarity=draw(st.sampled_from((-1, 1))),
            )
        )
        model.alphas.append(
            draw(st.floats(0.01, 3.0, allow_nan=False))
        )
    return model


def _row(draw, model: AdaBoostModel) -> tuple[float, ...]:
    """A row whose values sit on, beside, inside and outside the range."""
    thresholds = [stump.threshold for stump in model.stumps] or [0.0]
    lo, hi = min(thresholds), max(thresholds)
    value = st.one_of(
        st.sampled_from(thresholds),
        st.sampled_from(thresholds).map(lambda t: np.nextafter(t, np.inf)),
        st.sampled_from(thresholds).map(lambda t: np.nextafter(t, -np.inf)),
        st.sampled_from((lo - 1.0, hi + 1.0, lo - 1e6, hi + 1e6, 0.0, 100.0)),
        st.floats(-20.0, 120.0, allow_nan=False),
    )
    return tuple(
        float(draw(value)) for _ in range(model.n_features)
    )


def _assert_row_equals_matrix(model: AdaBoostModel, rows) -> None:
    margins = model.score(np.array(rows, dtype=np.float64))
    for row, margin in zip(rows, margins):
        assert model.score_row(row) == float(margin), row


@st.composite
def ensembles_with_rows(draw) -> tuple[AdaBoostModel, list]:
    model = draw(ensembles())
    return model, [_row(draw, model) for _ in range(draw(st.integers(1, 8)))]


def _overflowing_grid() -> AdaBoostModel:
    """Two thresholds 5e-324 apart: the grid's scale would overflow to
    inf, so the feature must take the exact ``searchsorted`` path."""
    model = AdaBoostModel(n_features=1)
    for threshold in (0.0, 5e-324):
        model.stumps.append(
            DecisionStump(feature=0, threshold=threshold, polarity=1)
        )
        model.alphas.append(1.0)
    return model


@settings(max_examples=100, deadline=None)
@given(case=ensembles_with_rows())
@example(
    case=(_overflowing_grid(), [(0.0,), (5e-324,), (-1.0,), (1.0,), (1e-300,)])
)
def test_score_row_is_score_bit_for_bit(case):
    model, rows = case
    _assert_row_equals_matrix(model, rows)
    if model.rounds:
        np.testing.assert_allclose(
            [model.score_row(row) for row in rows],
            score_loop(model, rows),
            rtol=0,
            atol=1e-9,
        )


def test_a_paper_sized_ensemble_row_by_row():
    """200 rounds over the 12 attributes, as §4.2 trains: ~17 stumps a
    feature, so a different add order would round differently."""
    model = demo_ensemble(200, seed=3)
    rng = np.random.default_rng(4)
    rows = rng.uniform(0.0, 100.0, size=(2000, N_ATTRIBUTES))
    on_threshold = rows[:200].copy()
    for row, stump in zip(on_threshold, model.stumps):
        row[stump.feature] = stump.threshold
    _assert_row_equals_matrix(
        model, [tuple(row) for row in np.vstack([rows, on_threshold])]
    )


@settings(max_examples=50, deadline=None)
@given(
    threshold=_THRESHOLD,
    repeats=st.integers(1, 4),
    data=st.data(),
)
def test_single_threshold_feature(threshold, repeats, data):
    """A feature whose thresholds are all one value has grid scale 0:
    the matrix path maps every sample to one dirty bucket."""
    model = AdaBoostModel(n_features=3)
    for _ in range(repeats):
        model.stumps.append(
            DecisionStump(feature=1, threshold=threshold, polarity=1)
        )
        model.alphas.append(data.draw(st.floats(0.01, 3.0)))
    model.stumps.append(DecisionStump(feature=2, threshold=5.0, polarity=-1))
    model.alphas.append(0.5)
    assert model.compile().groups[0].grid_scale == 0.0
    rows = [_row(data.draw, model) for _ in range(6)]
    rows.append((0.0, threshold, 5.0))
    _assert_row_equals_matrix(model, rows)


def test_zero_round_model_scores_zero():
    model = AdaBoostModel(n_features=N_ATTRIBUTES)
    row = FeatureAccumulator().row()
    assert model.score_row(row) == 0.0 == float(model.score(np.array([row]))[0])


# A model fitted on [0, 1) scoring percentages: every live row lands
# above most features' threshold range, in the last (dirty) bucket.
# This is how the repository benchmark's offline workload scores.
_FITTED_ON_UNIT = AdaBoostClassifier(n_rounds=60).fit(
    np.random.default_rng(5).random((400, N_ATTRIBUTES)),
    np.where(np.random.default_rng(6).random(400) > 0.5, 1.0, -1.0),
)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            *[st.floats(0.0, 100.0, allow_nan=False)] * N_ATTRIBUTES
        ),
        min_size=1,
        max_size=6,
    )
)
def test_fitted_model_scoring_percentages(rows):
    _assert_row_equals_matrix(_FITTED_ON_UNIT, rows)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_row_tables_refresh_after_fit_style_append(data):
    model = data.draw(ensembles())
    rows = [_row(data.draw, model) for _ in range(4)]
    _assert_row_equals_matrix(model, rows)
    for _ in range(data.draw(st.integers(1, 3))):
        model.stumps.append(
            DecisionStump(
                feature=data.draw(st.integers(0, model.n_features - 1)),
                threshold=data.draw(_THRESHOLD),
                polarity=data.draw(st.sampled_from((-1, 1))),
            )
        )
        model.alphas.append(data.draw(st.floats(0.01, 3.0)))
    assert model.compile().rounds == model.rounds
    _assert_row_equals_matrix(model, rows)
    np.testing.assert_allclose(
        [model.score_row(row) for row in rows],
        score_loop(model, rows),
        rtol=0,
        atol=1e-9,
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pickle_round_trip(data):
    """Process lanes ship the model (and its compiled tables) pickled."""
    model = data.draw(ensembles())
    model.compile()
    shipped = pickle.loads(pickle.dumps(model))
    rows = [_row(data.draw, model) for _ in range(4)]
    for row in rows:
        assert shipped.score_row(row) == model.score_row(row)
    _assert_row_equals_matrix(shipped, rows)


def test_accumulator_row_is_its_vector():
    accumulator = FeatureAccumulator(total=7, head=1, html=3, resp_2xx=6)
    row = accumulator.row()
    assert isinstance(row, tuple) and len(row) == N_ATTRIBUTES
    assert np.array(row).tobytes() == accumulator.vector().tobytes()
    assert FeatureAccumulator().vector().tobytes() == np.zeros(
        N_ATTRIBUTES
    ).tobytes()


@pytest.mark.parametrize("width", [0, 1, N_ATTRIBUTES - 1, N_ATTRIBUTES + 1])
def test_wrong_width_is_refused(width):
    model = AdaBoostModel(n_features=N_ATTRIBUTES)
    model.stumps.append(DecisionStump(feature=0, threshold=1.0, polarity=1))
    model.alphas.append(1.0)
    with pytest.raises(ValueError, match=f"row of {N_ATTRIBUTES} values"):
        model.score_row((0.0,) * width)
