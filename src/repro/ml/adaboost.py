"""AdaBoost (Schapire) over decision stumps — the paper's §4.2 learner.

"We used AdaBoost with 200 rounds."  Discrete AdaBoost on ±1 labels:
each round trains the best stump under the current sample weights, gets a
vote ``alpha = ½ ln((1−ε)/ε)``, and re-weights samples toward the
mistakes.  The feature-column argsorts are computed once and reused by
every round, so 200 rounds over tens of thousands of sessions train in
well under a second.

Scoring comes in two shapes over one compiled form.  The ensemble
compiles itself into packed arrays, so a 200-round model scores an
(n, d) matrix in a few vectorized passes instead of 200 per-stump Python
iterations.  A stump votes ``polarity`` when ``x[feature] > threshold``
and ``-polarity`` otherwise, so with ``v_t = alpha_t * polarity_t``::

    margin = Σ_t v_t · (2·[x_ft > θ_t] − 1) = 2·Σ_{t: θ_t < x_ft} v_t − Σ_t v_t

The compiled form groups stumps by feature, sorts each group's
thresholds, and prefix-sums its votes, so ``Σ_{θ < x} v`` is one lookup
per sample per feature.  For a matrix (:meth:`AdaBoostModel.score`) the
lookup is a uniform grid over the threshold range: every grid bucket
that contains no threshold ("clean") stores the exact prefix vote
outright, and only samples landing in the few buckets that do contain a
threshold fall back to a ``searchsorted`` over that feature's
thresholds.  The bucket map is monotone and is applied identically to
thresholds at compile time and samples at score time, so the result is
bit-exact with the stump-by-stump definition while costing O(d · n)
array work with no (n, rounds) intermediate.

A streaming session is one row, and numpy's per-call cost dwarfs one
row's work, so :meth:`AdaBoostModel.score_row` walks the same tables as
Python lists: one ``bisect_left`` per feature, the prefix votes added in
the same group order.  ``bisect_left`` is ``searchsorted(side="left")``,
so a row's margin is bit for bit the one :meth:`~AdaBoostModel.score`
gives that row in a matrix.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.ml.stump import DecisionStump, train_stump

_EPS = 1e-12

#: Grid resolution of the compiled per-feature lookup.  200 rounds over
#: 12 attributes put ~17 thresholds in a feature's grid, so typically
#: ≤ 2% of buckets are "dirty" (contain a threshold) and the
#: searchsorted fallback touches almost no samples.
_GRID_BUCKETS = 1024


@dataclass(frozen=True)
class FeatureTable:
    """One feature's compiled threshold structure.

    ``vote_prefix[k]`` is the summed vote of the ``k``
    smallest-threshold stumps on this feature (leading 0), so
    ``vote_prefix[searchsorted(thresholds, x, side="left")]`` is exactly
    ``Σ_{θ < x} v`` — ``side="left"`` keeps the stump comparison strict
    (``x > θ``; a tie votes negative).  The grid arrays cache that
    lookup per uniform bucket: ``grid_prefix[b]`` is the prefix vote for
    any sample in bucket ``b``, valid whenever ``grid_dirty[b]`` is
    False (no threshold maps into the bucket).  The bucket map — clip
    then truncate — is monotone and is applied identically to
    thresholds here and to samples in :meth:`AdaBoostModel.score`, so a
    clean-bucket hit is bit-exact.
    """

    feature: int
    thresholds: np.ndarray   #: (k,) float64, sorted
    vote_prefix: np.ndarray  #: (k + 1,) float64, leading 0
    grid_lo: float
    grid_scale: float
    grid_dirty: np.ndarray   #: (_GRID_BUCKETS,) bool
    grid_prefix: np.ndarray  #: (_GRID_BUCKETS,) float64

    def buckets(self, values: np.ndarray) -> np.ndarray:
        """Map sample values onto grid bucket indices (monotone)."""
        scaled = (values - self.grid_lo) * self.grid_scale
        np.clip(scaled, 0.0, _GRID_BUCKETS - 1, out=scaled)
        return scaled.astype(np.int64)

    def prefix_votes(self, values: np.ndarray) -> np.ndarray:
        """``Σ_{θ < value} v`` for every value, via the grid."""
        buckets = self.buckets(values)
        votes = self.grid_prefix[buckets]
        dirty = np.flatnonzero(self.grid_dirty[buckets])
        if dirty.size:
            votes[dirty] = self.vote_prefix[
                np.searchsorted(
                    self.thresholds, values[dirty], side="left"
                )
            ]
        return votes


def _compile_feature(
    feature: int, thresholds: np.ndarray, votes: np.ndarray
) -> FeatureTable:
    """Build one feature's sorted-prefix + grid lookup tables.

    ``thresholds`` must already be sorted with ``votes`` in matching
    order.  A degenerate threshold range gets scale 0, which maps every
    sample to bucket 0 — dirty by construction — so scoring
    transparently degrades to pure searchsorted rather than misreading
    the grid.  Degenerate means all thresholds equal, or a span so small
    (below ~1e-305) that the scale overflows to infinity.
    """
    vote_prefix = np.concatenate(([0.0], np.cumsum(votes)))
    lo = float(thresholds[0])
    span = float(thresholds[-1]) - lo
    scale = _GRID_BUCKETS / span if span > 0.0 else 0.0
    if not math.isfinite(scale):
        scale = 0.0
    scaled = (thresholds - lo) * scale
    np.clip(scaled, 0.0, _GRID_BUCKETS - 1, out=scaled)
    threshold_buckets = scaled.astype(np.int64)
    grid_dirty = np.zeros(_GRID_BUCKETS, dtype=bool)
    grid_dirty[threshold_buckets] = True
    # grid_prefix[b] = summed vote of thresholds in buckets < b; exact
    # for clean buckets because the bucket map is monotone.
    per_bucket = np.bincount(threshold_buckets, minlength=_GRID_BUCKETS)
    below_counts = np.concatenate(([0], np.cumsum(per_bucket)))[
        :_GRID_BUCKETS
    ]
    return FeatureTable(
        feature=feature,
        thresholds=thresholds,
        vote_prefix=vote_prefix,
        grid_lo=lo,
        grid_scale=scale,
        grid_dirty=grid_dirty,
        grid_prefix=vote_prefix[below_counts],
    )


@dataclass(frozen=True)
class PackedEnsemble:
    """An ensemble compiled to parallel arrays for vectorized scoring.

    ``row_tables`` holds each of ``groups``' sorted thresholds and vote
    prefix again as Python lists, ``(feature, thresholds, vote_prefix)``
    in group order, for :meth:`AdaBoostModel.score_row`.
    """

    features: np.ndarray    #: (rounds,) intp — stump feature indices
    thresholds: np.ndarray  #: (rounds,) float64 — stump thresholds
    polarities: np.ndarray  #: (rounds,) float64 — ±1 stump polarities
    alphas: np.ndarray      #: (rounds,) float64 — boosting votes
    votes: np.ndarray       #: (rounds,) float64 — alpha * polarity
    vote_sum: float         #: Σ alpha * polarity
    groups: tuple[FeatureTable, ...]
    row_tables: tuple[tuple[int, list[float], list[float]], ...]

    @property
    def rounds(self) -> int:
        """Number of boosting rounds in the compiled ensemble."""
        return self.features.shape[0]


@dataclass
class AdaBoostModel:
    """A trained ensemble: stumps with their votes."""

    stumps: list[DecisionStump] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    n_features: int = 0
    _packed: PackedEnsemble | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def compile(self) -> PackedEnsemble:
        """The packed-array form of the ensemble (cached per round count).

        The cache keys off ``len(stumps)``, which covers the one
        mutation pattern in this codebase — :meth:`AdaBoostClassifier.fit`
        appending rounds — without hashing stump contents.
        """
        packed = self._packed
        if packed is not None and packed.rounds == len(self.stumps):
            return packed
        alphas = np.asarray(self.alphas, dtype=np.float64)
        polarities = np.array(
            [stump.polarity for stump in self.stumps], dtype=np.float64
        )
        votes = alphas * polarities
        features = np.array(
            [stump.feature for stump in self.stumps], dtype=np.intp
        )
        thresholds = np.array(
            [stump.threshold for stump in self.stumps], dtype=np.float64
        )
        groups = []
        for feature in np.unique(features):
            mask = features == feature
            order = np.argsort(thresholds[mask], kind="stable")
            groups.append(
                _compile_feature(
                    int(feature),
                    thresholds[mask][order],
                    votes[mask][order],
                )
            )
        packed = PackedEnsemble(
            features=features,
            thresholds=thresholds,
            polarities=polarities,
            alphas=alphas,
            votes=votes,
            vote_sum=float(votes.sum()),
            groups=tuple(groups),
            row_tables=tuple(
                (
                    table.feature,
                    table.thresholds.tolist(),
                    table.vote_prefix.tolist(),
                )
                for table in groups
            ),
        )
        self._packed = packed
        return packed

    def _validate(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected (n, {self.n_features}) matrix, got {x.shape}"
            )
        return x

    def score(self, x: np.ndarray) -> np.ndarray:
        """Real-valued margin: positive means human (+1)."""
        self._validate(x)
        packed = self.compile()
        if packed.rounds == 0:
            return np.zeros(x.shape[0])
        below_votes = np.zeros(x.shape[0])
        for table in packed.groups:
            below_votes += table.prefix_votes(x[:, table.feature])
        return 2.0 * below_votes - packed.vote_sum

    def score_row(self, row: Sequence[float]) -> float:
        """One session's margin, without numpy.

        ``row`` holds the ``n_features`` attribute values (a tuple from
        :meth:`~repro.ml.features.FeatureAccumulator.row`, or any
        sequence of finite floats).  The result is bit for bit
        ``score(np.array([row]))[0]``.
        """
        if len(row) != self.n_features:
            raise ValueError(
                f"expected a row of {self.n_features} values, "
                f"got {len(row)}"
            )
        packed = self.compile()
        below = 0.0
        for feature, thresholds, vote_prefix in packed.row_tables:
            below += vote_prefix[bisect_left(thresholds, row[feature])]
        return 2.0 * below - packed.vote_sum

    def predict(self, x: np.ndarray) -> np.ndarray:
        """±1 predictions (ties break to robot, the safe default)."""
        margins = self.score(x)
        return np.where(margins > 0.0, 1, -1).astype(np.int8)

    def staged_scores(self, x: np.ndarray) -> np.ndarray:
        """(rounds, n) margins after each boosting round."""
        self._validate(x)
        packed = self.compile()
        if packed.rounds == 0:
            return np.zeros((0, x.shape[0]))
        above = x[:, packed.features] > packed.thresholds
        contributions = np.where(above, packed.votes, -packed.votes)
        return np.cumsum(contributions, axis=1).T

    @property
    def rounds(self) -> int:
        """Number of boosting rounds actually performed."""
        return len(self.stumps)


def demo_ensemble(
    rounds: int, seed: int = 2006, n_features: int | None = None
) -> AdaBoostModel:
    """A seeded random ensemble over the Table 2 feature space.

    Exercises the full micro-batch scoring path (feature accumulation,
    per-session row scoring) with deterministic structure and
    no training data — its verdicts carry no classification meaning.
    Use a :class:`AdaBoostClassifier`-fitted model for real scoring.
    """
    from repro.ml.features import N_ATTRIBUTES

    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = np.random.default_rng(seed)
    model = AdaBoostModel(n_features=n_features or N_ATTRIBUTES)
    for _ in range(rounds):
        model.stumps.append(
            DecisionStump(
                feature=int(rng.integers(model.n_features)),
                threshold=float(rng.uniform(0.0, 100.0)),
                polarity=int(rng.choice((-1, 1))),
            )
        )
        model.alphas.append(float(rng.uniform(0.05, 1.0)))
    model.compile()
    return model


class AdaBoostClassifier:
    """Trainer: fit(X, y) -> AdaBoostModel."""

    def __init__(self, n_rounds: int = 200) -> None:
        if n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        self.n_rounds = n_rounds

    def fit(self, x: np.ndarray, y: np.ndarray) -> AdaBoostModel:
        """Train on a sample matrix (n, d) and ±1 labels (n,)."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError("x must be 2-D")
        n, d = x.shape
        if y.shape != (n,):
            raise ValueError("y length must match x rows")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        if n < 2 or len(np.unique(y)) < 2:
            raise ValueError("need at least one sample of each class")

        sort_indices = np.argsort(x, axis=0).T
        weights = np.full(n, 1.0 / n)
        model = AdaBoostModel(n_features=d)

        for _ in range(self.n_rounds):
            stump, error = train_stump(x, y, weights, sort_indices)
            error = min(max(error, _EPS), 1.0 - _EPS)
            if error >= 0.5:
                # The weak-learner guarantee failed; boosting is done.
                break
            alpha = 0.5 * np.log((1.0 - error) / error)
            predictions = stump.predict(x)
            weights = weights * np.exp(-alpha * y * predictions)
            weights /= weights.sum()
            model.stumps.append(stump)
            model.alphas.append(float(alpha))
            if error <= _EPS * 10:
                # Perfect separation: further rounds only repeat it.
                break
        return model
