"""Identifier generation: sequential ids and random hex keys.

The paper's human-activity beacon uses a random key ``k`` in
``[0, 2^128 - 1]`` per served page; :func:`random_hex_key` produces those
from a supplied :class:`~repro.util.rng.RngStream` so the whole experiment
stays deterministic.
"""

from __future__ import annotations

import itertools

from repro.util.rng import RngStream


def random_hex_key(rng: RngStream, bits: int = 128) -> str:
    """Return a random ``bits``-bit key as a zero-padded lowercase hex string."""
    if bits <= 0 or bits % 4 != 0:
        raise ValueError(f"bits must be a positive multiple of 4, got {bits}")
    width = bits // 4
    return format(rng.getrandbits(bits), f"0{width}x")


class IdGenerator:
    """Sequential ids with a prefix: ``sess-000001``, ``sess-000002``, ..."""

    def __init__(self, prefix: str, width: int = 6) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        self._prefix = prefix
        self._width = width
        self._counter = itertools.count(1)

    def next(self) -> str:
        """Return the next id in sequence."""
        return f"{self._prefix}-{next(self._counter):0{self._width}d}"
