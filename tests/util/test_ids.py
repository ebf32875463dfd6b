"""Tests for repro.util.ids."""

from __future__ import annotations

import pytest

from repro.util.ids import IdGenerator, random_hex_key
from repro.util.rng import RngStream


class TestRandomHexKey:
    def test_width(self, rng):
        key = random_hex_key(rng, 128)
        assert len(key) == 32
        int(key, 16)  # parses as hex

    def test_distinct(self, rng):
        keys = {random_hex_key(rng, 128) for _ in range(100)}
        assert len(keys) == 100

    def test_invalid_bits(self, rng):
        with pytest.raises(ValueError):
            random_hex_key(rng, 0)
        with pytest.raises(ValueError):
            random_hex_key(rng, 13)

    def test_deterministic(self):
        a = random_hex_key(RngStream(3), 64)
        b = random_hex_key(RngStream(3), 64)
        assert a == b


class TestIdGenerator:
    def test_sequence(self):
        gen = IdGenerator("sess")
        assert gen.next() == "sess-000001"
        assert gen.next() == "sess-000002"

    def test_width(self):
        gen = IdGenerator("x", width=3)
        assert gen.next() == "x-001"

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            IdGenerator("x", width=0)
