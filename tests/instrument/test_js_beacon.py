"""Tests for repro.instrument.js_beacon."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.instrument.js_beacon import (
    build_beacon_script,
    extract_all_script_urls,
    find_handler_fetch_url,
)
from repro.util.rng import RngStream


class TestBuild:
    def test_decoy_count(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=4)
        assert len(script.decoy_keys) == 4
        assert len(script.all_image_paths) == 5

    def test_keys_distinct(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=8)
        keys = {script.real_key, *script.decoy_keys}
        assert len(keys) == 9

    def test_key_width(self, rng):
        script = build_beacon_script(rng, "h.com", key_bits=128)
        assert len(script.real_key) == 32

    def test_source_shape(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=2)
        assert script.source.count("function ") == 3
        assert script.source.count("new Image()") == 3
        assert script.source.count("do_once") == 0  # fresh names per func

    def test_zero_decoys(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=0)
        assert script.decoy_keys == ()
        assert extract_all_script_urls(script.source) == [
            f"http://h.com{script.real_image_path}"
        ]

    def test_negative_decoys_rejected(self, rng):
        with pytest.raises(ValueError):
            build_beacon_script(rng, "h.com", decoys=-1)

    @pytest.mark.parametrize(
        "parameters,complaint",
        [
            ({"decoys": 16, "key_bits": 4}, "distinct keys"),
            ({"key_bits": 6}, "multiple of 4"),
            ({"junk_statements": -1}, "junk_statements"),
        ],
    )
    def test_impossible_parameters_rejected(self, rng, parameters, complaint):
        with pytest.raises(ValueError, match=complaint):
            build_beacon_script(rng, "h.com", **parameters)

    def test_handler_expression_names_real_function(self, rng):
        script = build_beacon_script(rng, "h.com")
        assert script.handler in script.handler_expression


class TestHandlerResolution:
    def test_resolves_real_url(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=6)
        url = find_handler_fetch_url(script.source, script.handler_expression)
        assert url == f"http://h.com{script.real_image_path}"

    def test_never_resolves_to_decoy(self, rng):
        for i in range(20):
            script = build_beacon_script(rng.split(f"s{i}"), "h.com", decoys=6)
            url = find_handler_fetch_url(
                script.source, script.handler_expression
            )
            for decoy_path in script.decoy_image_paths:
                assert url != f"http://h.com{decoy_path}"

    def test_unknown_handler_returns_none(self, rng):
        script = build_beacon_script(rng, "h.com")
        assert find_handler_fetch_url(script.source, "return nope();") is None

    def test_garbage_expression_returns_none(self, rng):
        script = build_beacon_script(rng, "h.com")
        assert find_handler_fetch_url(script.source, "alert(1)") is None

    def test_empty_source_returns_none(self):
        assert find_handler_fetch_url("", "return f();") is None


class TestUrlScraping:
    def test_finds_all_urls(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=5)
        urls = extract_all_script_urls(script.source)
        assert len(urls) == 6
        assert f"http://h.com{script.real_image_path}" in urls
        for decoy in script.decoy_image_paths:
            assert f"http://h.com{decoy}" in urls


class TestBlindFetchProbability:
    def test_uniform_blind_pick_catch_rate(self):
        """§2.1: a blind fetch hits a wrong key with probability m/(m+1)."""
        rng = RngStream(77, "blind")
        for m in (1, 2, 4, 9):
            wrong = 0
            trials = 2000
            for i in range(trials):
                script = build_beacon_script(
                    rng.split(f"b{m}-{i}"), "h.com", decoys=m
                )
                urls = extract_all_script_urls(script.source)
                pick = rng.choice(urls)
                if pick != f"http://h.com{script.real_image_path}":
                    wrong += 1
            expected = m / (m + 1)
            assert abs(wrong / trials - expected) < 0.04, (
                f"m={m}: observed {wrong / trials:.3f}, expected {expected:.3f}"
            )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    decoys=st.integers(min_value=0, max_value=10),
)
def test_property_handler_resolution(seed, decoys):
    script = build_beacon_script(RngStream(seed), "host.example", decoys=decoys)
    url = find_handler_fetch_url(script.source, script.handler_expression)
    assert url == f"http://host.example{script.real_image_path}"
