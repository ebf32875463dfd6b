"""Tests for the string-level obfuscator kept as a reference beside this file."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from reference_obfuscator import obfuscate_beacon, obfuscate_script
from repro.instrument.js_beacon import (
    build_beacon_script,
    extract_all_script_urls,
    find_handler_fetch_url,
)
from repro.util.rng import RngStream


class TestObfuscation:
    def test_identifiers_renamed(self, rng):
        script = build_beacon_script(rng, "h.com")
        out = obfuscate_script(script.source, rng.split("obf"))
        assert script.handler not in out

    def test_urls_survive(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=3)
        out = obfuscate_script(script.source, rng.split("obf"))
        assert set(extract_all_script_urls(out)) == set(
            extract_all_script_urls(script.source)
        )

    def test_junk_grows_source(self, rng):
        script = build_beacon_script(rng, "h.com")
        out = obfuscate_script(script.source, rng.split("obf"), junk_statements=10)
        assert len(out) > len(script.source)

    def test_zero_junk(self, rng):
        script = build_beacon_script(rng, "h.com")
        out = obfuscate_script(script.source, rng.split("obf"), junk_statements=0)
        assert extract_all_script_urls(out) == extract_all_script_urls(
            script.source
        )


class TestObfuscateBeacon:
    def test_handler_still_resolves(self, rng):
        script = build_beacon_script(rng, "h.com", decoys=5)
        source, expression = obfuscate_beacon(
            script.source, script.handler_expression, rng.split("obf")
        )
        url = find_handler_fetch_url(source, expression)
        assert url == f"http://h.com{script.real_image_path}"

    def test_decoys_never_become_the_handler(self, rng):
        for i in range(20):
            stream = rng.split(f"case-{i}")
            script = build_beacon_script(stream, "h.com", decoys=5)
            source, expression = obfuscate_beacon(
                script.source, script.handler_expression, stream.split("obf")
            )
            url = find_handler_fetch_url(source, expression)
            for decoy in script.decoy_image_paths:
                assert url != f"http://h.com{decoy}"

    def test_deterministic(self):
        script = build_beacon_script(RngStream(4), "h.com")
        a = obfuscate_beacon(
            script.source, script.handler_expression, RngStream(9)
        )
        b = obfuscate_beacon(
            script.source, script.handler_expression, RngStream(9)
        )
        assert a == b


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    decoys=st.integers(min_value=0, max_value=8),
    junk=st.integers(min_value=0, max_value=12),
)
def test_property_obfuscation_preserves_semantics(seed, decoys, junk):
    """The simulated JS engine resolves the same fetch URL before and
    after obfuscation — the invariant real browsers give us for free."""
    stream = RngStream(seed)
    script = build_beacon_script(stream, "host.example", decoys=decoys)
    source, expression = obfuscate_beacon(
        script.source, script.handler_expression, stream.split("obf"), junk
    )
    url = find_handler_fetch_url(source, expression)
    assert url == f"http://host.example{script.real_image_path}"
