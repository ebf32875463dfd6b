"""Tests for repro.instrument.rewriter."""

from __future__ import annotations

import pytest

from repro.html.links import extract_references
from repro.http.uri import Url
from repro.instrument.keys import BeaconKind, InstrumentationRegistry
from repro.instrument.rewriter import (
    InstrumentConfig,
    PageInstrumenter,
    beacon_response,
)
from repro.instrument.ua_probe import interpret_ua_probe
from repro.util.rng import RngStream

PAGE = (
    "<html><head><title>t</title></head>"
    '<body><p>hello</p><a href="/x.html">x</a></body></html>'
)
URL = Url.parse("http://h.com/dir/page.html")


def _instrument(html=PAGE, config=None, seed=3):
    registry = InstrumentationRegistry()
    instrumenter = PageInstrumenter(
        registry, RngStream(seed, "i"), config or InstrumentConfig()
    )
    result = instrumenter.instrument(html, URL, "1.2.3.4", 0.0)
    return result, registry


class TestInjection:
    def test_all_probes_registered(self):
        result, registry = _instrument()
        kinds = [p.kind for p in result.probes]
        assert kinds.count(BeaconKind.CSS_BEACON) == 1
        assert kinds.count(BeaconKind.BEACON_JS) == 1
        assert kinds.count(BeaconKind.MOUSE_IMAGE) == 5  # real + 4 decoys
        assert kinds.count(BeaconKind.UA_PROBE) == 1
        assert kinds.count(BeaconKind.TRAP_PAGE) == 1
        assert kinds.count(BeaconKind.TRAP_IMAGE) == 1
        assert len(registry) == len(result.probes)

    def test_page_references_probes(self):
        result, _ = _instrument()
        refs = extract_references(result.html)
        assert any(".css" in s for s in refs.stylesheets)
        assert any(s.startswith("./page_") for s in refs.scripts)
        assert "onmousemove" in refs.body_event_handlers
        assert refs.hidden_links  # the trap
        assert any(
            interpret_ua_probe(s) is not None for s in refs.inline_scripts
        )

    def test_beacon_js_is_sibling_of_page(self):
        result, _ = _instrument()
        js_probe = next(
            p for p in result.probes if p.kind is BeaconKind.BEACON_JS
        )
        assert js_probe.path.startswith("/dir/page_")
        assert js_probe.path.endswith(".js")

    def test_original_content_preserved(self):
        result, _ = _instrument()
        assert "<p>hello</p>" in result.html
        assert '<a href="/x.html">x</a>' in result.html

    def test_added_bytes_positive(self):
        result, _ = _instrument()
        assert result.added_bytes > 0

    def test_handler_resolves_in_served_script(self):
        from repro.instrument.js_beacon import find_handler_fetch_url

        result, _ = _instrument()
        refs = extract_references(result.html)
        handler = refs.body_event_handlers["onmousemove"]
        js_probe = next(
            p for p in result.probes if p.kind is BeaconKind.BEACON_JS
        )
        url = find_handler_fetch_url(js_probe.script.source, handler)
        real = next(
            p
            for p in result.probes
            if p.kind is BeaconKind.MOUSE_IMAGE and p.is_real_key
        )
        assert url == f"http://h.com{real.path}"

    def test_fresh_probes_per_call(self):
        registry = InstrumentationRegistry()
        instrumenter = PageInstrumenter(registry, RngStream(3, "i"))
        a = instrumenter.instrument(PAGE, URL, "1.2.3.4", 0.0)
        b = instrumenter.instrument(PAGE, URL, "1.2.3.4", 0.0)
        key_a = next(p for p in a.probes if p.is_real_key).key
        key_b = next(p for p in b.probes if p.is_real_key).key
        assert key_a != key_b
        assert instrumenter.pages_instrumented == 2


class TestConfigToggles:
    def test_disable_all(self):
        config = InstrumentConfig(
            mouse_beacon=False, css_beacon=False,
            hidden_link=False, ua_probe=False,
        )
        result, registry = _instrument(config=config)
        assert result.probes == []
        assert len(registry) == 0
        assert "onmousemove" not in result.html

    def test_decoy_count_config(self):
        result, _ = _instrument(config=InstrumentConfig(decoys=9))
        mouse = [p for p in result.probes if p.kind is BeaconKind.MOUSE_IMAGE]
        assert len(mouse) == 10
        assert sum(1 for p in mouse if p.is_real_key) == 1

    def test_no_obfuscation(self):
        result, _ = _instrument(config=InstrumentConfig(obfuscate=False))
        js = next(p for p in result.probes if p.kind is BeaconKind.BEACON_JS)
        assert "_0x" not in js.script.source


class TestConfigValidation:
    """A config no script can be generated for is refused when it is
    made, not on the first page served (or never: 17 distinct 4-bit keys
    do not exist, and the emitter used to look for them forever)."""

    @pytest.mark.parametrize(
        "fields,complaint",
        [
            ({"decoys": 16, "key_bits": 4}, "distinct keys"),
            ({"key_bits": 6}, "multiple of 4"),
            ({"key_bits": 0}, "multiple of 4"),
            ({"junk_statements": -1}, "junk_statements"),
            ({"decoys": -1}, "decoys"),
        ],
    )
    def test_rejected_at_construction(self, fields, complaint):
        with pytest.raises(ValueError, match=complaint):
            InstrumentConfig(**fields)

    def test_whole_key_space_is_allowed(self):
        result, _ = _instrument(config=InstrumentConfig(decoys=15, key_bits=4))
        mouse = [p for p in result.probes if p.kind is BeaconKind.MOUSE_IMAGE]
        assert sorted(p.key for p in mouse) == [f"{k:x}" for k in range(16)]


class TestTreePath:
    def test_fragment_without_head_body(self):
        result, registry = _instrument(html="<p>bare fragment</p>")
        assert "bare fragment" in result.html
        refs = extract_references(result.html)
        assert "onmousemove" in refs.body_event_handlers
        assert len(registry) == len(result.probes)

    def test_fast_and_tree_paths_register_same_probe_kinds(self):
        fast, _ = _instrument(html=PAGE, seed=5)
        tree, _ = _instrument(html="<p>x</p>", seed=5)
        assert sorted(p.kind.value for p in fast.probes) == sorted(
            p.kind.value for p in tree.probes
        )


class TestBeaconResponses:
    @pytest.mark.parametrize(
        "kind,content_type",
        [
            (BeaconKind.BEACON_JS, "application/javascript"),
            (BeaconKind.MOUSE_IMAGE, "image/jpeg"),
            (BeaconKind.CSS_BEACON, "text/css"),
            (BeaconKind.UA_PROBE, "text/css"),
            (BeaconKind.TRAP_PAGE, "text/html"),
            (BeaconKind.TRAP_IMAGE, "image/gif"),
        ],
    )
    def test_serving(self, kind, content_type):
        result, registry = _instrument()
        probe = next(p for p in result.probes if p.kind is kind)
        from repro.instrument.keys import BeaconHit

        response = beacon_response(BeaconHit(probe=probe))
        assert response.status == 200
        assert response.content_type == content_type

    def test_probe_responses_uncacheable(self):
        result, _ = _instrument()
        from repro.instrument.keys import BeaconHit

        for probe in result.probes:
            if probe.kind is BeaconKind.TRAP_IMAGE:
                continue
            response = beacon_response(BeaconHit(probe=probe))
            assert response.headers.is_uncacheable(), probe.kind

    def test_css_beacon_empty_body(self):
        result, _ = _instrument()
        from repro.instrument.keys import BeaconHit

        probe = next(
            p for p in result.probes if p.kind is BeaconKind.CSS_BEACON
        )
        assert beacon_response(BeaconHit(probe=probe)).body == b""
