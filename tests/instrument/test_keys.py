"""Tests for repro.instrument.keys (the per-IP probe registry)."""

from __future__ import annotations

import pytest

from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)


def _probe(path="/k.jpg", ip="1.2.3.4", kind=BeaconKind.MOUSE_IMAGE, **kw):
    return RegisteredProbe(
        kind=kind,
        client_ip=ip,
        host="h.com",
        path=path,
        page_path="/index.html",
        issued_at=kw.pop("issued_at", 0.0),
        key=kw.pop("key", "abc"),
        is_real_key=kw.pop("is_real_key", True),
        script=kw.pop("script", None),
    )


def _request(path, ip="1.2.3.4", t=1.0, host="h.com"):
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://{host}{path}"),
        client_ip=ip,
        headers=Headers(),
        timestamp=t,
    )


class TestMatch:
    def test_exact_match(self, registry):
        registry.register(_probe())
        hit = registry.match(_request("/k.jpg"))
        assert hit is not None
        assert hit.probe.kind is BeaconKind.MOUSE_IMAGE

    def test_wrong_ip_no_match(self, registry):
        registry.register(_probe())
        assert registry.match(_request("/k.jpg", ip="9.9.9.9")) is None

    def test_wrong_path_no_match(self, registry):
        registry.register(_probe())
        assert registry.match(_request("/other.jpg")) is None

    def test_wrong_host_no_match(self, registry):
        registry.register(_probe())
        assert registry.match(_request("/k.jpg", host="evil.com")) is None

    def test_ua_probe_prefix_match(self, registry):
        registry.register(
            _probe(path="/ua_12345/", kind=BeaconKind.UA_PROBE, key=None)
        )
        hit = registry.match(_request("/ua_12345/mozilla_4.0.css"))
        assert hit is not None
        assert hit.echoed_user_agent == "mozilla_4.0"

    def test_ua_probe_newest_prefix_wins(self, registry):
        registry.register(
            _probe(path="/ua_1/", kind=BeaconKind.UA_PROBE, key=None)
        )
        registry.register(
            _probe(path="/ua_2/", kind=BeaconKind.UA_PROBE, key=None)
        )
        hit = registry.match(_request("/ua_2/agent.css"))
        assert hit.probe.path == "/ua_2/"

    def test_len_counts_probes(self, registry):
        registry.register(_probe(path="/a.jpg"))
        registry.register(_probe(path="/b.jpg"))
        assert len(registry) == 2


class TestExpiry:
    def test_ttl_blocks_match(self):
        registry = InstrumentationRegistry(ttl=10.0)
        registry.register(_probe(issued_at=0.0))
        assert registry.match(_request("/k.jpg", t=5.0)) is not None
        assert registry.match(_request("/k.jpg", t=20.0)) is None

    def test_expire_before_removes(self):
        registry = InstrumentationRegistry(ttl=10.0)
        registry.register(_probe(path="/a.jpg", issued_at=0.0))
        registry.register(_probe(path="/b.jpg", issued_at=100.0))
        removed = registry.expire_before(50.0)
        assert removed == 1
        assert len(registry) == 1

    def test_expired_ua_prefix_gone(self):
        registry = InstrumentationRegistry(ttl=10.0)
        registry.register(
            _probe(path="/ua_1/", kind=BeaconKind.UA_PROBE, issued_at=0.0)
        )
        registry.expire_before(100.0)
        assert registry.match(_request("/ua_1/x.css", t=100.0)) is None


class TestBounds:
    def test_per_ip_cap_evicts_oldest(self):
        registry = InstrumentationRegistry(per_ip_cap=8)
        for i in range(12):
            registry.register(_probe(path=f"/{i}.jpg", issued_at=float(i)))
        assert len(registry) == 8
        assert registry.match(_request("/0.jpg")) is None
        assert registry.match(_request("/11.jpg")) is not None

    def test_caps_are_per_ip(self):
        registry = InstrumentationRegistry(per_ip_cap=8)
        for i in range(8):
            registry.register(_probe(path=f"/{i}.jpg", ip="1.1.1.1"))
            registry.register(_probe(path=f"/{i}.jpg", ip="2.2.2.2"))
        assert len(registry) == 16

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InstrumentationRegistry(ttl=0.0)
        with pytest.raises(ValueError):
            InstrumentationRegistry(per_ip_cap=2)

    def test_outstanding_lists_probes(self, registry):
        registry.register(_probe(path="/a.jpg"))
        registry.register(_probe(path="/b.jpg"))
        paths = [p.path for p in registry.outstanding("1.2.3.4")]
        assert paths == ["/a.jpg", "/b.jpg"]
