"""The page-level registry insert is the one-by-one insert, batched.

``register_page`` does one table lookup and one trim for a page's probes;
``register`` goes through the same routine with a batch of
one.  These properties hold the two equal where it is observable — table
order, ``match()`` answers, length, what each listener heard — and check
the table against a model small enough to read: per IP, the
``per_ip_cap`` most recently inserted or refreshed paths, oldest first.

The record types a registration builds (ten to a page) are tuples now;
the last class pins what the rest of the system relied on dataclasses
for.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.headers import Headers
from repro.http.message import Method, Request
from repro.http.uri import Url
from repro.instrument.hidden_link import TRAP_IMAGE_NAME
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.proxy.node import ProxyNode
from repro.trace.recorder import format_probe_line, parse_probe_line
from repro.util.rng import RngStream

TTL = 50.0
IPS = ("10.0.0.1", "10.0.0.2", "192.0.2.77")
# A small pool, so batches repeat paths within themselves and across each
# other; the trap image is the path every real page re-registers.  Kinds
# are drawn independently of paths, so a path can also stop (or start)
# being a UA prefix between two registrations.
PATHS = (
    [f"/{TRAP_IMAGE_NAME}"]
    + [f"/k{i}.jpg" for i in range(24)]
    + [f"/ua_{i}/" for i in range(6)]
)
KINDS = (
    BeaconKind.MOUSE_IMAGE,
    BeaconKind.CSS_BEACON,
    BeaconKind.TRAP_IMAGE,
    BeaconKind.UA_PROBE,
    BeaconKind.UA_PROBE,
)

_entry = st.tuples(st.sampled_from(PATHS), st.sampled_from(KINDS))
_batch = st.tuples(
    st.sampled_from(IPS), st.lists(_entry, min_size=0, max_size=14)
)
# A step is a page batch or, now and then, an expiry sweep.
_step = st.one_of(_batch, _batch, _batch, st.just("expire"))


def _request(ip: str, path: str, now: float) -> Request:
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://h.com{path}"),
        client_ip=ip,
        headers=Headers(),
        timestamp=now,
    )


def _probes(ip, entries, now, serial):
    return [
        RegisteredProbe(
            kind, ip, "h.com", path, "/page.html", now, key=f"{serial}-{n}"
        )
        for n, (path, kind) in enumerate(entries)
    ]


class _Heard:
    """Two listeners per registry: each must hear every probe, in order
    (a listener is handed each registration's probes at once)."""

    def __init__(self, registry) -> None:
        self.first: list[RegisteredProbe] = []
        self.second: list[RegisteredProbe] = []
        registry.add_listener(self.first.extend)
        registry.add_listener(self.second.extend)


@settings(max_examples=200, deadline=None)
@given(
    cap=st.integers(min_value=8, max_value=32),
    steps=st.lists(_step, min_size=1, max_size=30),
)
def test_page_insert_equals_one_by_one(cap, steps):
    paged = InstrumentationRegistry(ttl=TTL, per_ip_cap=cap)
    single = InstrumentationRegistry(ttl=TTL, per_ip_cap=cap)
    paged_heard, single_heard = _Heard(paged), _Heard(single)
    model: dict[str, list[RegisteredProbe]] = {}

    now = 0.0
    for serial, step in enumerate(steps):
        now += 7.0
        if step == "expire":
            assert paged.expire_before(now) == single.expire_before(now)
            for ip in list(model):
                model[ip] = [p for p in model[ip] if now - p.issued_at <= TTL]
            continue
        ip, entries = step
        probes = _probes(ip, entries, now, serial)
        paged.register_page(probes)
        for probe in probes:
            single.register(probe)
            kept = [p for p in model.get(ip, []) if p.path != probe.path]
            model[ip] = (kept + [probe])[-cap:]

    assert list(paged.iter_probes()) == list(single.iter_probes())
    assert len(paged) == len(single) == sum(len(v) for v in model.values())
    for ip in IPS:
        assert paged.outstanding(ip) == model.get(ip, [])
    assert paged_heard.first == single_heard.first
    assert paged_heard.second == single_heard.second == paged_heard.first

    # Exact paths and UA-prefix fetches, while probes live and after.
    for at in (now, now + TTL / 2, now + TTL + 1.0):
        for ip in IPS:
            for path in PATHS:
                for target in (path, path + "mozilla_4.0.css"):
                    request = _request(ip, target, at)
                    assert paged.match(request) == single.match(request)


def test_reissued_path_is_refreshed_not_duplicated():
    registry = InstrumentationRegistry(per_ip_cap=8)
    trap = f"/{TRAP_IMAGE_NAME}"
    for page in range(3):
        registry.register_page(
            _probes(
                IPS[0],
                [(f"/k{page}.jpg", BeaconKind.MOUSE_IMAGE),
                 (trap, BeaconKind.TRAP_IMAGE)],
                float(page),
                page,
            )
        )
    paths = [p.path for p in registry.outstanding(IPS[0])]
    assert paths == ["/k0.jpg", "/k1.jpg", "/k2.jpg", trap]
    assert registry.outstanding(IPS[0])[-1].issued_at == 2.0


def test_evicted_ua_prefix_stops_matching():
    registry = InstrumentationRegistry(per_ip_cap=8)
    registry.register_page(
        _probes(IPS[0], [("/ua_0/", BeaconKind.UA_PROBE)], 0.0, 0)
    )
    registry.register_page(
        _probes(
            IPS[0],
            [(f"/k{i}.jpg", BeaconKind.MOUSE_IMAGE) for i in range(8)],
            1.0,
            1,
        )
    )
    assert registry.match(_request(IPS[0], "/ua_0/agent.css", 2.0)) is None


def test_empty_page_registers_nothing():
    registry = InstrumentationRegistry()
    heard = _Heard(registry)
    registry.register_page([])
    assert len(registry) == 0
    assert list(registry.iter_probes()) == []
    assert heard.first == []


def test_a_page_belongs_to_one_client():
    registry = InstrumentationRegistry()
    mixed = _probes(IPS[0], [("/k0.jpg", BeaconKind.MOUSE_IMAGE)], 0.0, 0)
    mixed += _probes(IPS[1], [("/k1.jpg", BeaconKind.MOUSE_IMAGE)], 0.0, 1)
    with pytest.raises(ValueError, match="one client IP"):
        registry.register_page(mixed)
    assert registry.outstanding(IPS[1]) == []


class TestPartitionedRegistry:
    def test_batch_goes_to_the_owning_partition(self):
        """A node's probe table is one registry per shard: a page's
        journal lines land on the shard that owns the page's client,
        and every registration is heard once, in order."""
        node = ProxyNode(
            node_id="n0", origins={}, rng=RngStream(3, "batch"),
            instrument_enabled=False, detection_shards=4,
        )
        first: list[RegisteredProbe] = []
        second: list[RegisteredProbe] = []
        node.add_probe_listener(first.extend)
        node.add_probe_listener(second.extend)
        ips = [f"10.9.{i}.{i}" for i in range(32)]
        assert len({node.shard_index_for(ip) for ip in ips}) == 4
        registered = []
        for serial, ip in enumerate(ips):
            probes = _probes(
                ip,
                [("/k0.jpg", BeaconKind.MOUSE_IMAGE),
                 ("/ua_0/", BeaconKind.UA_PROBE),
                 ("/k1.jpg", BeaconKind.CSS_BEACON)],
                1.0,
                serial,
            )
            node.shard_for(ip).register_page(probes)
            registered += probes
            owner = node.shard_index_for(ip)
            for index, shard in enumerate(node.state_shards):
                expected = probes if index == owner else []
                assert shard.detection.registry.outstanding(ip) == expected
            owner_table = node.shard_for(ip).detection.registry
            hit = owner_table.match(_request(ip, "/ua_0/agent.css", 2.0))
            assert hit is not None and hit.probe is probes[1]
        assert first == second == registered
        assert sum(
            len(shard.detection.registry) for shard in node.state_shards
        ) == len(registered)


class TestRecordTypes:
    PROBE = RegisteredProbe(
        kind=BeaconKind.MOUSE_IMAGE,
        client_ip="10.0.0.1",
        host="h.com",
        path="/0123abcd.jpg",
        page_path="/dir/page.html",
        issued_at=1155000000.1234567,
        key="0123abcd",
        is_real_key=True,
        script=None,
    )

    def test_defaults(self):
        probe = RegisteredProbe(
            BeaconKind.CSS_BEACON, "10.0.0.1", "h.com", "/1.css", "/p.html", 0.0
        )
        assert (probe.key, probe.is_real_key, probe.script) == (None, False, None)

    @pytest.mark.parametrize(
        "value",
        [PROBE, parse_probe_line(format_probe_line(PROBE))],
        ids=["probe", "record"],
    )
    def test_immutable_hashable_picklable(self, value):
        with pytest.raises(AttributeError):
            value.path = "/other.jpg"
        with pytest.raises(AttributeError):
            value.extra = 1
        twin = pickle.loads(pickle.dumps(value))
        assert twin == value and type(twin) is type(value)
        assert hash(twin) == hash(value)
        assert len({value, twin}) == 1
        assert value._replace(path="/other.jpg") != value

    def test_journal_round_trip(self):
        line = format_probe_line(self.PROBE)
        parsed = parse_probe_line(line)
        assert type(parsed) is RegisteredProbe
        assert parsed.issued_at == 1155000000.123457  # journal resolution
        assert parsed.kind is BeaconKind.MOUSE_IMAGE
        assert parsed == self.PROBE._replace(issued_at=parsed.issued_at)
        assert format_probe_line(parsed) == line

    def test_journal_round_trip_without_key_or_page(self):
        probe = RegisteredProbe(
            BeaconKind.UA_PROBE, "10.0.0.1", "h.com", "/ua_1/", "", 2.5
        )
        assert parse_probe_line(format_probe_line(probe)) == probe
