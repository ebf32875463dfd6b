"""Shard-count invariance: sharding is an architecture knob, not a
behaviour knob.

The same workload must produce identical set-algebra summaries, censuses,
network stats, per-session verdicts, and the same sessions and latencies
*in the same order*, whether each node keeps one shard (``shards=0``
keeps the network as built) or hash-partitions its state across 1, 2 or
8 shards — for synthetic workloads (both values ``mode`` still takes)
and for trace replay.
"""

from __future__ import annotations

import pytest

from repro.proxy.network import ProxyNetwork
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

N_SESSIONS = 60
SEED = 33


def _run(make_network, entry_url, shards, mode):
    network = make_network(n_nodes=2, seed=SEED)
    engine = WorkloadEngine(
        network,
        SMOKE,
        entry_url,
        RngStream(SEED, "wl"),
        WorkloadConfig(n_sessions=N_SESSIONS, mode=mode, shards=shards),
    )
    return engine.run()


def _verdicts(result):
    return {
        (s.key.client_ip, s.key.user_agent, s.started_at): (
            s.final_verdict().label,
            s.request_count,
            s.true_label,
        )
        for s in result.sessions
    }


def _cache_neutral(stats):
    """Stats projection that is invariant to the cache partition layout.

    The proxy cache is partitioned by client IP, so the same static URL
    may be fetched from the origin once *per partition* instead of once
    per node — ``cache_hits`` and ``origin_requests`` are
    partition-layout-scoped by design.  Responses served from cache are
    byte-identical to forwarded ones, so every other stat (and all
    detection results) must still match exactly.
    """
    from dataclasses import fields

    return {
        f.name: getattr(stats, f.name)
        for f in fields(stats)
        if f.name not in ("cache_hits", "origin_requests")
    }


def _ordered(result):
    """Sessions (by key and start) and latencies, in result order."""
    return (
        [(s.key, s.started_at) for s in result.sessions],
        [(l.css_at, l.beacon_js_at, l.mouse_at) for l in result.latencies],
    )


class TestWorkloadShardInvariance:
    @pytest.mark.parametrize("mode", ["interleaved", "pipelined"])
    def test_shard_counts_agree(self, make_network, entry_url, mode):
        baseline = _run(make_network, entry_url, shards=0, mode=mode)
        reference_summary = baseline.summary
        for shards in (1, 2, 8):
            result = _run(make_network, entry_url, shards=shards, mode=mode)
            assert result.summary == reference_summary
            assert result.kind_census() == baseline.kind_census()
            assert _cache_neutral(result.stats) == _cache_neutral(
                baseline.stats
            )
            assert _verdicts(result) == _verdicts(baseline)
            assert _ordered(result) == _ordered(baseline)

    def test_shards_config_shards_the_network(self, make_network, entry_url):
        network = make_network(n_nodes=2, seed=SEED)
        engine = WorkloadEngine(
            network,
            SMOKE,
            entry_url,
            RngStream(SEED, "wl"),
            WorkloadConfig(n_sessions=10, shards=4),
        )
        engine.run()
        for node in network.nodes:
            assert node.n_state_shards == 4
        # Asking for the layout a network already has is a no-op (after
        # traffic anything else would be refused).
        before = [node.state_shards for node in network.nodes]
        network.shard_detection(4)
        assert [node.state_shards for node in network.nodes] == before
        with pytest.raises(RuntimeError, match="node-000"):
            network.shard_detection(2)

    def test_recorder_journals_the_same_probes_at_any_shard_count(
        self, make_network, entry_url
    ):
        """A recorder attached before the engine re-shards the network
        keeps hearing every registration, exactly once."""
        journals = []
        for shards in (0, 4):
            network = make_network(n_nodes=2, seed=SEED)
            recorder = TraceRecorder()
            recorder.attach(network)
            WorkloadEngine(
                network,
                SMOKE,
                entry_url,
                RngStream(SEED, "wl"),
                WorkloadConfig(
                    n_sessions=N_SESSIONS, shards=shards,
                    captcha_enabled=False,
                ),
            ).run()
            recorder.detach(network)
            journals.append(recorder.sorted_probes())
        assert journals[0]
        assert journals[0] == journals[1]

    def test_invalid_shard_config(self):
        with pytest.raises(ValueError):
            WorkloadConfig(shards=-1)


class TestReplayShardInvariance:
    @pytest.fixture(scope="class")
    def recorded(self, small_origin, small_site):
        network = ProxyNetwork(
            origins={small_site.host: small_origin},
            rng=RngStream(SEED, "net"),
            n_nodes=2,
        )
        recorder = TraceRecorder()
        recorder.attach(network)
        result = WorkloadEngine(
            network,
            SMOKE,
            f"http://{small_site.host}{small_site.home_path}",
            RngStream(SEED, "wl"),
            WorkloadConfig(n_sessions=N_SESSIONS, captcha_enabled=False),
        ).run()
        recorder.detach(network)
        recorder.annotate_ground_truth(result.records)
        return recorder.sorted_records(), recorder.sorted_probes()

    def _replay(self, records, probes, shards):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=2,
            instrument_enabled=False,
        )
        engine = TraceReplayEngine(
            network,
            ReplayConfig(assume_sorted=True, shards=shards),
        )
        return engine.replay(list(records), probes=list(probes))

    def test_replay_shard_counts_agree(self, recorded):
        records, probes = recorded
        baseline = self._replay(records, probes, shards=0)
        assert baseline.requests_replayed == len(records)
        for shards in (1, 2, 8):
            result = self._replay(records, probes, shards=shards)
            assert result.summary == baseline.summary
            assert result.kind_census() == baseline.kind_census()
            assert result.requests_replayed == baseline.requests_replayed
            assert _ordered(result) == _ordered(baseline)

    def test_retirement_order_does_not_show(self):
        """A session that starts later but idles out first retires
        first; results still list sessions by start, whatever the
        shard count."""
        from repro.http.message import Method
        from repro.http.uri import Url
        from repro.trace.clf import TraceRecord

        def line(ip, t, n):
            return TraceRecord(
                ip, t, Method.GET, Url.parse(f"http://site.test/p{n}.html"),
                200, 100, "UA",
            )

        # A browses every half hour for six hours; B fires twelve
        # requests a minute after A starts and is gone an hour later.
        records = sorted(
            [line("10.0.0.1", 1800.0 * n, n) for n in range(13)]
            + [line("10.0.0.2", 60.0 + n, n) for n in range(12)],
            key=lambda r: r.timestamp,
        )
        orders = []
        for shards in (0, 1, 2, 4, 8):
            network = ProxyNetwork(
                origins={}, rng=RngStream(0, "replay"), n_nodes=1,
                instrument_enabled=False,
            )
            result = TraceReplayEngine(
                network, ReplayConfig(assume_sorted=True, shards=shards)
            ).replay(records)
            orders.append(_ordered(result))
        assert [key.client_ip for key, _ in orders[0][0]] == [
            "10.0.0.1", "10.0.0.2",
        ]
        assert orders == [orders[0]] * len(orders)

    def test_invalid_replay_shard_config(self):
        with pytest.raises(ValueError):
            ReplayConfig(shards=-1)
