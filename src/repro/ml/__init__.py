"""Machine-learning detection (§4.2): Table 2 features + AdaBoost.

The paper's follow-up study: label sessions with CAPTCHA outcomes,
describe each session by 12 request-stream attributes computed over its
first N requests, and train AdaBoost (200 rounds of decision stumps) at
N = 20, 40, ..., 160.  scikit-learn is unavailable offline, so the
booster is implemented directly on numpy — which also makes the
per-attribute contribution analysis (the paper's "most contributing
attributes") exact rather than estimated.  A fitted model scores a
dataset as one matrix (``AdaBoostModel.score``) and a streaming session
as one row (``AdaBoostModel.score_row``, no numpy), to the same bits.
"""

from repro.ml.adaboost import AdaBoostClassifier, AdaBoostModel, PackedEnsemble
from repro.ml.batch import BatchVerdict
from repro.ml.dataset import Dataset, SessionExample, build_matrix
from repro.ml.evaluate import (
    EvaluationResult,
    accuracy,
    confusion,
    train_test_split,
)
from repro.ml.features import (
    ATTRIBUTE_NAMES,
    FeatureAccumulator,
    FeatureVector,
)
from repro.ml.importance import attribute_contributions
from repro.ml.stump import DecisionStump

__all__ = [
    "ATTRIBUTE_NAMES",
    "AdaBoostClassifier",
    "AdaBoostModel",
    "BatchVerdict",
    "Dataset",
    "PackedEnsemble",
    "DecisionStump",
    "EvaluationResult",
    "FeatureAccumulator",
    "FeatureVector",
    "SessionExample",
    "accuracy",
    "attribute_contributions",
    "build_matrix",
    "confusion",
    "train_test_split",
]
