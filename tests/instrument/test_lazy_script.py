"""The beacon script is emitted when it is fetched, not when its page is
rewritten: what a fetch returns must not depend on when, how often, or
under which state layout it happens.

A page's ``BEACON_JS`` probe carries the script's recipe; the text comes
from :func:`repro.instrument.rewriter.beacon_response`.  The property
tests drive whole proxy nodes (page request, then the ``.js`` request the
page provokes) for drawn ``(seed, client IP, per-client page sequence,
InstrumentConfig)``; the negative cases are the ones the probe table has
always refused, and must keep refusing now that serving a script costs
something.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.detection.service import DetectionService
from repro.html.links import extract_references
from repro.http.message import Method, Request
from repro.http.uri import Url, resolve_url
from repro.instrument.js_beacon import (
    extract_all_script_urls,
    find_handler_fetch_url,
)
from repro.instrument.keys import BeaconKind, InstrumentationRegistry
from repro.instrument.rewriter import InstrumentConfig
from repro.proxy.node import ProxyNode
from repro.util.rng import RngStream

_OTHER_IP = "172.16.0.9"

_IPS = st.lists(
    st.integers(min_value=1, max_value=254), min_size=4, max_size=4
).map(lambda octets: ".".join(map(str, octets))).filter(
    lambda ip: ip != _OTHER_IP
)
_CONFIGS = st.builds(
    InstrumentConfig,
    decoys=st.integers(min_value=0, max_value=9),
    key_bits=st.sampled_from([8, 32, 128]),
    obfuscate=st.booleans(),
    junk_statements=st.integers(min_value=0, max_value=9),
    css_beacon=st.booleans(),
    hidden_link=st.booleans(),
    ua_probe=st.booleans(),
)


def _get(url: Url, ip: str, at: float) -> Request:
    return Request(Method.GET, url, ip, timestamp=at)


def _node(site, origin, seed, **kwargs) -> ProxyNode:
    return ProxyNode(
        node_id="node-lazy",
        origins={site.host: origin},
        rng=RngStream(seed, "node"),
        **kwargs,
    )


def _serve_page(node: ProxyNode, home: Url, ip: str, seq: int) -> tuple:
    """The client's page number ``seq`` (another client's pages between
    its own), as ``(html, script url, the shard's probes for the page)``."""
    for number in range(seq + 1):
        node.handle(_get(home, _OTHER_IP, float(number)))
        page = node.handle(_get(home, ip, float(number)))
    assert page.status == 200
    html = page.text
    (script_src,) = [
        src for src in extract_references(html).scripts
        if src.startswith("./")
    ]
    registry = node.shard_for(ip).detection.registry
    probes = [
        probe for probe in registry.outstanding(ip)
        if probe.issued_at == float(seq)
    ]
    return html, resolve_url(home, script_src), probes


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    ip=_IPS,
    seq=st.integers(min_value=0, max_value=3),
    config=_CONFIGS,
)
def test_fetched_script_is_one_text_whenever_and_wherever_it_is_emitted(
    small_site, small_origin, seed, ip, seq, config
):
    home = Url.parse(f"http://{small_site.host}{small_site.home_path}")
    pages = set()
    bodies = set()
    for shards in (1, 2, 8):
        node = _node(
            small_site, small_origin, seed,
            detection_shards=shards, instrument_config=config,
        )
        html, script_url, probes = _serve_page(node, home, ip, seq)
        pages.add(html)
        at = float(seq) + 0.5
        for _ in range(2):
            response = node.handle(_get(script_url, ip, at))
            assert response.status == 200
            assert response.content_type == "application/javascript"
            bodies.add(bytes(response.body))
        # What a process lane does to a shard before it serves from it.
        lane = pickle.loads(pickle.dumps(node.shard_for(ip)))
        bodies.add(bytes(lane.handle(_get(script_url, ip, at)).body))
    assert len(pages) == 1
    assert len(bodies) == 1

    script = bodies.pop().decode("utf-8")
    mouse = [p for p in probes if p.kind is BeaconKind.MOUSE_IMAGE]
    assert len(mouse) == config.decoys + 1
    # Exactly the page's registered image URLs, and no other key.
    urls = extract_all_script_urls(script)
    assert sorted(urls) == sorted(
        f"http://{small_site.host}{p.path}" for p in mouse
    )
    assert script.count(".jpg") == len(mouse)
    # The page's handler resolves to the real key's image.
    handler = extract_references(html).body_event_handlers["onmousemove"]
    (real,) = [p for p in mouse if p.is_real_key]
    assert (
        find_handler_fetch_url(script, handler)
        == f"http://{small_site.host}{real.path}"
    )
    assert ("_0x" in script) == config.obfuscate


class TestScriptsTheTableRefuses:
    """No probe, no script: the request falls through to the origin,
    which has no such file."""

    CAP = 16  # a page registers 10 probes: the second evicts 4 of the first

    def _capped_node(self, site, origin, ttl=3600.0):
        registry = InstrumentationRegistry(ttl=ttl, per_ip_cap=self.CAP)
        return _node(site, origin, 5, detection=DetectionService(registry))

    def test_evicted_by_the_per_ip_cap(self, small_site, small_origin):
        node = self._capped_node(small_site, small_origin)
        home = Url.parse(f"http://{small_site.host}{small_site.home_path}")
        _, first_script, _ = _serve_page(node, home, "10.1.1.1", 0)
        _, second_script, _ = _serve_page(node, home, "10.1.1.1", 1)
        # _serve_page(…, 1) served page 0 again, then page 1: 30 probes
        # issued to the IP, the cap keeps the newest 16.
        assert node.handle(_get(first_script, "10.1.1.1", 2.0)).status == 404
        assert node.handle(_get(second_script, "10.1.1.1", 2.0)).status == 200

    def test_expired_by_the_ttl(self, small_site, small_origin):
        node = self._capped_node(small_site, small_origin, ttl=60.0)
        home = Url.parse(f"http://{small_site.host}{small_site.home_path}")
        _, script_url, _ = _serve_page(node, home, "10.1.1.1", 0)
        assert node.handle(_get(script_url, "10.1.1.1", 60.0)).status == 200
        assert node.handle(_get(script_url, "10.1.1.1", 60.5)).status == 404

    def test_requested_from_another_ip(self, small_site, small_origin):
        node = self._capped_node(small_site, small_origin)
        home = Url.parse(f"http://{small_site.host}{small_site.home_path}")
        _, script_url, _ = _serve_page(node, home, "10.1.1.1", 0)
        assert node.handle(_get(script_url, "10.1.1.2", 1.0)).status == 404
        assert node.handle(_get(script_url, _OTHER_IP, 1.0)).status == 404
        assert node.handle(_get(script_url, "10.1.1.1", 1.0)).status == 200

    def test_rebuilt_from_a_probe_journal_it_is_an_empty_file(
        self, small_site, small_origin
    ):
        """A replay's table has paths and keys but no recipes."""
        from repro.trace.recorder import sorted_journal

        node = self._capped_node(small_site, small_origin)
        home = Url.parse(f"http://{small_site.host}{small_site.home_path}")
        _, script_url, probes = _serve_page(node, home, "10.1.1.1", 0)
        replayed = self._capped_node(small_site, small_origin)
        replayed.shard_for("10.1.1.1").register_page(sorted_journal(probes))
        response = replayed.handle(_get(script_url, "10.1.1.1", 1.0))
        assert (response.status, bytes(response.body)) == (200, b"")
