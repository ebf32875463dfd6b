"""The per-stump reference scorer both compiled scorers are held to.

``score_loop`` is the definition of an AdaBoost margin, one stump at a
time: ``Σ_t alpha_t · h_t(x)``.  :meth:`AdaBoostModel.score` (matrix)
and :meth:`AdaBoostModel.score_row` (one row) regroup those adds by
feature through the compiled tables, so they agree with it to rounding,
and with each other bit for bit.
"""

from __future__ import annotations

import numpy as np


def score_loop(model, x) -> np.ndarray:
    """Margins of an ``(n, model.n_features)`` matrix, stump by stump."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.n_features:
        raise ValueError(
            f"expected (n, {model.n_features}) matrix, got {x.shape}"
        )
    total = np.zeros(x.shape[0])
    for stump, alpha in zip(model.stumps, model.alphas):
        total += alpha * stump.predict(x)
    return total
