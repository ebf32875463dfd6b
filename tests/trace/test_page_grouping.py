"""A journalled page is one lane event, and that changes no result.

The replay admits each run of consecutive journal lines that share an
``(issued_at, client_ip)`` as one event and registers it with one
``register_page``.  This file holds that against an oracle that knows
nothing of pages or lanes: it merges the journal and the access log by
time (probes first at equal times), registers every journal line on its
own with ``InstrumentationRegistry.register`` and hands every request to
``ProxyNetwork.handle``.  Every shard's probe table, the sessions and
the census must come out equal.

The journals are generated to cover the layouts the grouping must get
right: pages of two IPs interleaved line by line at one timestamp, two
pages of one IP at one timestamp, a page larger than ``per_ip_cap``, a
UA-probe path registered again as another kind, and (with
``assume_sorted=False``) a shuffled source the engine sorts itself.
"""

from __future__ import annotations

import heapq
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.http.message import Method
from repro.http.uri import Url
from repro.instrument.keys import BeaconKind, RegisteredProbe
from repro.proxy.network import ProxyNetwork
from repro.trace.clf import TraceRecord
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.results import (
    SessionCensus,
    apply_session_identities,
    session_identities,
)

N_NODES = 2
SHARDS = 2
HOST = "h.com"
#: Registry's default per-IP cap; a "big" page has more lines than this.
CAP = 512
IPS = [f"10.0.{i}.{i + 1}" for i in range(5)]
KINDS = list(BeaconKind)


def _journal(pages, interleave: bool):
    """Lines of ``pages`` (each ``(t, ip, [(path, kind, real)])``), in
    page order — or, with ``interleave``, round-robin across the pages
    that share a timestamp, as two servers' tables would flush them."""
    lines = []
    by_time: dict[float, list] = {}
    for t, ip, entries in pages:
        page = [
            RegisteredProbe(
                kind, ip, HOST, path, "/index.html", t,
                key=f"{len(lines) + i:08x}", is_real_key=real,
            )
            for i, (path, kind, real) in enumerate(entries)
        ]
        if interleave:
            by_time.setdefault(t, []).append(page)
        else:
            lines += page
    for group in by_time.values():
        for column in range(max(len(page) for page in group)):
            lines += [page[column] for page in group if column < len(page)]
    return sorted(lines, key=lambda line: line.issued_at)


def _requests(journal, fetch_every: int):
    """Each client fetches every ``fetch_every``-th journalled path (a UA
    probe with its echo appended) a little after it was issued, plus
    plain page views so sessions pass the census floor."""
    records = []
    for index, line in enumerate(journal):
        if index % fetch_every:
            continue
        path = line.path
        if line.kind is BeaconKind.UA_PROBE:
            path += "UA-" + line.client_ip + ".css"
        records.append((line.issued_at + 0.5, line.client_ip, path))
    for ip in sorted({line.client_ip for line in journal}):
        first = min(line.issued_at for line in journal if line.client_ip == ip)
        records += [(first + 0.25 * i, ip, f"/p{i}.html") for i in range(12)]
    records.sort(key=lambda r: r[0])
    return [
        TraceRecord(
            ip, t, Method.GET, Url.parse(f"http://{HOST}{path}"), 200, 10,
            f"UA-{ip}", agent_kind="robot" if ip == IPS[0] else "human",
            true_label="robot" if ip == IPS[0] else "human",
        )
        for t, ip, path in records
    ]


@st.composite
def journals(draw):
    pages = []
    t = 0.0
    for index in range(draw(st.integers(1, 8))):
        # A zero step puts this page at the previous page's time.
        t += draw(st.sampled_from((0.0, 0.0, 1.0, 30.0, 4000.0)))
        ip = draw(st.sampled_from(IPS[:3]))
        if draw(st.integers(0, 20)) == 0:  # larger than the per-IP cap
            entries = [
                (f"/big{index}-{j}.gif", KINDS[j % len(KINDS)], j % 2 == 0)
                for j in range(CAP + draw(st.integers(1, 12)))
            ]
        else:
            # A small pool of paths, so paths recur across pages and
            # kinds (a UA-probe prefix comes back as a beacon, and back).
            entries = [
                (
                    f"/d{draw(st.integers(0, 5))}/",
                    draw(st.sampled_from(KINDS)),
                    draw(st.booleans()),
                )
                for _ in range(draw(st.integers(1, 12)))
            ]
        pages.append((t, ip, entries))
    journal = _journal(pages, interleave=draw(st.booleans()))
    records = _requests(journal, fetch_every=draw(st.integers(1, 4)))
    return journal, records, draw(st.booleans()), draw(st.integers(0, 2**16))


def _tables(network):
    return [
        list(shard.detection.registry.iter_probes())
        for node in network.nodes
        for shard in node.state_shards
    ]


def _network():
    network = ProxyNetwork(
        origins={}, rng=RngStream(0, "replay"), n_nodes=N_NODES,
        instrument_enabled=False,
    )
    network.shard_detection(SHARDS)
    return network


def _oracle(journal, records):
    """Line-by-line registration, merged with the requests by time."""
    network = _network()
    for _t, is_request, _seq, item in heapq.merge(
        ((p.issued_at, False, i, p) for i, p in enumerate(journal)),
        ((r.timestamp, True, i, r) for i, r in enumerate(records)),
    ):
        if is_request:
            network.handle(item.to_request())
        else:
            network.node_for(item.client_ip).shard_for(
                item.client_ip
            ).detection.registry.register(item)
    census = SessionCensus()
    census.sessions = network.finalize_sessions()
    apply_session_identities(census.sessions, session_identities(records))
    census.summary = network.session_sets().summary()
    return network, census


def _check(journal, records, shuffle=False, seed=0, executor="serial"):
    """Replay through the engine and hold it equal to the oracle.

    With ``shuffle`` the engine gets both sources out of order and sorts
    them itself (stably, by time); the oracle gets them in that order.
    """
    if shuffle:
        journal, records = list(journal), list(records)
        random.Random(seed).shuffle(journal)
        random.Random(seed + 1).shuffle(records)
    oracle_network, oracle = _oracle(
        sorted(journal, key=lambda p: p.issued_at),
        sorted(records, key=lambda r: r.timestamp),
    )
    network = _network()
    result = TraceReplayEngine(
        network,
        ReplayConfig(
            assume_sorted=not shuffle, executor=executor,
            housekeeping_interval=0,
        ),
    ).replay(records, probes=journal)
    assert result.probes_loaded == len(journal)
    assert result.requests_replayed == len(records)
    if executor == "serial":
        # A process lane's table lives in its child; there the probe
        # evidence is held equal through the sessions instead.
        assert _tables(network) == _tables(oracle_network)
    assert result.sessions == oracle.sessions
    assert result.kind_census() == oracle.kind_census()
    assert result.summary == oracle.summary
    return result


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(journals())
def test_paged_replay_equals_line_by_line_registration(case):
    journal, records, shuffle, seed = case
    _check(journal, records, shuffle, seed)


def _every_layout():
    """One fixed journal with all five layouts in it."""
    a, b, c = IPS[:3]
    ua = BeaconKind.UA_PROBE
    pages = [
        # Two IPs' pages interleaved at one timestamp.
        (10.0, a, [("/a1.css", BeaconKind.CSS_BEACON, False),
                   ("/ua/", ua, False),
                   ("/k1.gif", BeaconKind.MOUSE_IMAGE, True)]),
        (10.0, b, [("/b1.css", BeaconKind.CSS_BEACON, False),
                   ("/k2.gif", BeaconKind.MOUSE_IMAGE, False)]),
        # Two pages of one IP at one timestamp; the second re-registers
        # the first's UA-probe prefix as another kind.
        (20.0, a, [("/ua2/", ua, False),
                   ("/t.html", BeaconKind.TRAP_PAGE, False)]),
        (20.0, a, [("/ua2/", BeaconKind.CSS_BEACON, False),
                   ("/k3.gif", BeaconKind.MOUSE_IMAGE, True)]),
        # A page larger than the per-IP cap.
        (30.0, c, [(f"/big{j}.gif", BeaconKind.MOUSE_IMAGE, j == CAP)
                   for j in range(CAP + 9)]),
    ]
    journal = _journal(pages[:2], interleave=True) + _journal(
        pages[2:], interleave=False
    )
    return journal, _requests(journal, fetch_every=1)


@pytest.mark.parametrize("executor", ["serial", "process"])
@pytest.mark.parametrize("shuffle", [False, True], ids=["sorted", "shuffled"])
def test_every_layout_on_both_executors(executor, shuffle):
    journal, records = _every_layout()
    result = _check(journal, records, shuffle, seed=5, executor=executor)
    # The fixed journal's clients all pass the census floor and leave
    # probe evidence, so the equalities above compared something.
    assert len(result.sessions) == 3
    assert result.summary.css_downloads and result.summary.mouse_movements
