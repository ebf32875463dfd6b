"""One session's scored outcome from the §4.2 ensemble.

The streaming micro-batcher (:class:`~repro.ingress.batcher.MicroBatcher`)
scores each dirty session's Table 2 row with
:meth:`~repro.ml.adaboost.AdaBoostModel.score_row` at every flush and
reports the margins as :class:`BatchVerdict`s, in first-touch order.
Whole datasets are scored as one matrix by
:meth:`~repro.ml.adaboost.AdaBoostModel.score` instead.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BatchVerdict:
    """One session's scored outcome from a flushed batch."""

    session_id: str
    margin: float

    @property
    def label(self) -> int:
        """±1 prediction; a zero margin ties to robot (-1)."""
        return 1 if self.margin > 0.0 else -1

    @property
    def is_robot(self) -> bool:
        """True when the ensemble calls the session a robot."""
        return self.label < 0
