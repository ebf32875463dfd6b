"""Deterministic, splittable random number streams.

The simulation is made of many independently stochastic components (site
generation, each agent's behaviour, the instrumenter's key draws, CAPTCHA
outcomes, ...).  If they all shared one generator, adding a single draw in
one component would shift every number downstream, making experiments
fragile.  Instead each component receives its own :class:`RngStream`,
derived from a parent stream and a string label; the derivation is a stable
hash, so streams are independent of the order in which they are created.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def _derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from ``seed`` and ``label`` via BLAKE2b."""
    digest = hashlib.blake2b(
        label.encode("utf-8"),
        digest_size=8,
        key=seed.to_bytes(16, "little", signed=False),
    ).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """A labelled, splittable wrapper around :class:`random.Random`.

    Parameters
    ----------
    seed:
        Non-negative integer seed.  Streams with equal ``(seed, label)``
        produce identical sequences.
    label:
        Human-readable provenance of the stream (for repr/debugging).
    """

    __slots__ = ("_label", "_random", "_seed")

    def __init__(self, seed: int, label: str = "root") -> None:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._seed = seed & ((1 << 128) - 1)
        self._label = label
        self._random = random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    @property
    def label(self) -> str:
        """The provenance label of this stream."""
        return self._label

    def split(self, label: str) -> "RngStream":
        """Return a child stream derived from this stream's seed + ``label``.

        Splitting does not consume randomness from the parent and does not
        depend on how many draws the parent has made.
        """
        return RngStream(self.child_seed(label), f"{self._label}/{label}")

    def child_seed(self, label: str) -> int:
        """The seed of ``split(label)``, for a child to be built later."""
        return _derive_seed(self._seed, label)

    # -- scalar draws ----------------------------------------------------

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range ``[low, high]``."""
        return self._random.randint(low, high)

    def getrandbits(self, bits: int) -> int:
        """Uniform integer with ``bits`` random bits."""
        return self._random.getrandbits(bits)

    def randrange(self, stop: int) -> int:
        """Uniform integer in ``[0, stop)``."""
        return self._random.randrange(stop)

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p`` (clamped to [0, 1])."""
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self._random.random() < p

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (mean must be > 0)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self._random.expovariate(1.0 / mean)

    def lognormal(self, median: float, sigma: float) -> float:
        """Log-normal variate parameterised by its *median* and shape sigma."""
        if median <= 0:
            raise ValueError(f"median must be positive, got {median}")
        return self._random.lognormvariate(math.log(median), sigma)

    def pareto(self, alpha: float, minimum: float = 1.0) -> float:
        """Pareto variate with shape ``alpha``, scaled so the minimum is as given."""
        if alpha <= 0:
            raise ValueError(f"alpha must be positive, got {alpha}")
        return minimum * (1.0 + self._random.paretovariate(alpha) - 1.0)

    def poisson(self, lam: float) -> int:
        """Poisson variate (Knuth for small lambda, normal approx for large)."""
        if lam < 0:
            raise ValueError(f"lambda must be non-negative, got {lam}")
        if lam == 0:
            return 0
        if lam > 60.0:
            value = int(round(self._random.gauss(lam, math.sqrt(lam))))
            return max(0, value)
        threshold = math.exp(-lam)
        count = 0
        product = self._random.random()
        while product > threshold:
            count += 1
            product *= self._random.random()
        return count

    def geometric(self, p: float) -> int:
        """Geometric variate: number of trials until first success (>= 1)."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        if p == 1.0:
            return 1
        u = self._random.random()
        return 1 + int(math.log1p(-u) / math.log1p(-p))

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal variate."""
        return self._random.gauss(mu, sigma)

    # -- collection draws ------------------------------------------------

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Choice from ``items`` with the given non-negative weights."""
        if len(items) != len(weights):
            raise ValueError(
                f"items ({len(items)}) and weights ({len(weights)}) differ in length"
            )
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choices(items, weights=weights, k=1)[0]

    def sample(self, items: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct items without replacement."""
        return self._random.sample(items, k)

    def shuffled(self, items: Iterable[T]) -> list[T]:
        """Return a new shuffled list of ``items`` (input is not modified)."""
        out = list(items)
        self._random.shuffle(out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RngStream(seed={self._seed & _MASK_64:#x}..., label={self._label!r})"
