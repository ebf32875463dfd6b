"""Arrival-profile replays and out-of-order timestamp tolerance.

Burst and diurnal profiles only exist under event-time drivers; the
round trip (record interleaved → heap-merged replay) must reproduce the
census for both, synchronously and through the pipelined ingress.

Real merged multi-node logs also deliver *out-of-order* timestamps —
the case that previously corrupted ``TokenBucket`` refill clocks.  A
cross-client scramble that keeps each client's own requests in order
must produce identical rate-limit decisions to the sorted replay,
because buckets are per-client and stale arrivals earn no refill.
"""

from __future__ import annotations

import pytest

from repro.http.message import Method
from repro.http.uri import Url
from repro.proxy.network import ProxyNetwork
from repro.proxy.ratelimit import RateLimitConfig
from repro.trace.arrival import BurstArrival, DiurnalArrival
from repro.trace.clf import TraceRecord
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

SEED = 93
N_SESSIONS = 40


def _record(make_network, entry_url, arrival):
    network = make_network(n_nodes=2, seed=SEED)
    recorder = TraceRecorder()
    recorder.attach(network)
    result = WorkloadEngine(
        network,
        SMOKE,
        entry_url,
        RngStream(SEED, "wl"),
        WorkloadConfig(
            n_sessions=N_SESSIONS,
            mode="interleaved",
            arrival=arrival,
            captcha_enabled=False,
        ),
    ).run()
    recorder.detach(network)
    recorder.annotate_ground_truth(result.records)
    return result, recorder.sorted_records(), recorder.sorted_probes()


def _replay(records, probes, **config_kwargs):
    network = ProxyNetwork(
        origins={},
        rng=RngStream(0, "replay"),
        n_nodes=2,
        instrument_enabled=False,
    )
    engine = TraceReplayEngine(
        network, ReplayConfig(assume_sorted=True, **config_kwargs)
    )
    return engine.replay(list(records), probes=list(probes))


class TestArrivalProfileRoundTrip:
    @pytest.mark.parametrize(
        "arrival",
        [BurstArrival(burst_share=0.6), DiurnalArrival(peak_ratio=6.0)],
        ids=["burst", "diurnal"],
    )
    def test_census_survives_replay(self, make_network, entry_url, arrival):
        recorded, records, probes = _record(
            make_network, entry_url, arrival
        )
        replayed = _replay(records, probes)
        assert replayed.kind_census() == recorded.kind_census()
        assert replayed.summary == recorded.summary
        pipelined = _replay(
            records, probes, executor="process", queue_depth=16
        )
        assert pipelined.kind_census() == recorded.kind_census()
        assert pipelined.summary == recorded.summary

    def test_burst_timestamps_really_cluster(self, make_network, entry_url):
        arrival = BurstArrival(
            burst_share=0.8, burst_start=0.4, burst_width=0.02
        )
        _recorded, records, _probes = _record(
            make_network, entry_url, arrival
        )
        span = records[-1].timestamp - records[0].timestamp
        window_start = records[0].timestamp + 0.35 * span
        window_end = records[0].timestamp + 0.55 * span
        in_window = sum(
            1 for r in records if window_start <= r.timestamp <= window_end
        )
        # The flash crowd concentrates far more than the ~20% of
        # traffic a uniform spread would put in this window.
        assert in_window / len(records) > 0.5


def _synthetic_burst(n_clients: int = 12, per_client: int = 40):
    """Per-client monotone request streams, dense enough to rate-limit."""
    records = []
    for client in range(n_clients):
        for index in range(per_client):
            records.append(
                TraceRecord(
                    client_ip=f"10.9.0.{client}",
                    # Clients advance together but interleave unevenly.
                    timestamp=index * 0.2 + client * 0.003,
                    method=Method.GET,
                    url=Url.parse(f"http://site.example/p{index % 7}.html"),
                    status=200,
                    size=512,
                    user_agent=f"agent-{client}",
                )
            )
    return records


def _scramble_across_clients(records):
    """Round-robin by client: per-client order kept, global order broken."""
    by_client: dict[str, list[TraceRecord]] = {}
    for record in records:
        by_client.setdefault(record.client_ip, []).append(record)
    for stream in by_client.values():
        stream.sort(key=lambda r: r.timestamp)
    scrambled = []
    streams = list(by_client.values())
    cursor = 0
    while any(streams):
        stream = streams[cursor % len(streams)]
        if stream:
            # Pull a few at a time so neighbours jump ahead of each
            # other by whole timestamp strides.
            scrambled.extend(stream[:3])
            del stream[:3]
        cursor += 1
    return scrambled


class TestOutOfOrderTimestamps:
    def _replay_scrambled(self, records, rate_limit=None, **config_kwargs):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=2,
            instrument_enabled=False,
            rate_limit=rate_limit,
        )
        engine = TraceReplayEngine(
            network, ReplayConfig(assume_sorted=True, **config_kwargs)
        )
        return engine.replay(list(records))

    def test_scramble_is_actually_out_of_order(self):
        records = _synthetic_burst()
        scrambled = _scramble_across_clients(records)
        timestamps = [r.timestamp for r in scrambled]
        assert timestamps != sorted(timestamps)

    @pytest.mark.parametrize("executor", [None, "process"])
    def test_census_survives_cross_client_scramble(self, executor):
        """Detection state is per-session; per-client order is enough."""
        records = _synthetic_burst()
        scrambled = _scramble_across_clients(records)
        kwargs = {}
        if executor is not None:
            kwargs = {"executor": executor, "queue_depth": 16}
        ordered = self._replay_scrambled(
            sorted(records, key=lambda r: r.timestamp), **kwargs
        )
        shuffled = self._replay_scrambled(scrambled, **kwargs)
        assert shuffled.kind_census() == ordered.kind_census()
        assert shuffled.summary == ordered.summary
        assert shuffled.stats.requests == ordered.stats.requests
        assert {
            (s.key.client_ip, s.started_at, s.request_count)
            for s in shuffled.sessions
        } == {
            (s.key.client_ip, s.started_at, s.request_count)
            for s in ordered.sessions
        }

    def test_eviction_neutral_on_in_order_streams(self):
        """Housekeeping sweeps (refresh + evict-replenished) must not
        change a single decision when timestamps arrive in order —
        lazy refill is path-independent and a recreated bucket is
        indistinguishable from a refilled one."""
        limit = RateLimitConfig(requests_per_second=2.0, burst=5.0)
        records = sorted(
            _synthetic_burst(), key=lambda r: r.timestamp
        )
        without_sweeps = self._replay_scrambled(
            records, rate_limit=limit, housekeeping_interval=0.0
        )
        with_sweeps = self._replay_scrambled(
            records, rate_limit=limit, housekeeping_interval=2.0
        )
        assert with_sweeps.stats.rate_limited == (
            without_sweeps.stats.rate_limited
        )
        assert with_sweeps.stats.rate_limited > 0  # the limiter really bit

    def test_stale_timestamps_never_recredit_buckets(self):
        """The PR 2 regression at replay level: out-of-order arrivals
        (here with sweeps evicting and recreating buckets mid-run) must
        never let a client spend more tokens than its bucket could
        physically have earned — the failure mode of the old refill-
        clock rewind was exactly such double crediting."""
        limit = RateLimitConfig(requests_per_second=2.0, burst=5.0)
        records = _scramble_across_clients(_synthetic_burst())
        result = self._replay_scrambled(
            records, rate_limit=limit, housekeeping_interval=2.0
        )
        allowed = result.stats.requests - result.stats.rate_limited
        spans: dict[str, tuple[float, float]] = {}
        for record in records:
            low, high = spans.get(
                record.client_ip, (record.timestamp, record.timestamp)
            )
            spans[record.client_ip] = (
                min(low, record.timestamp),
                max(high, record.timestamp),
            )
        budget = sum(
            limit.burst + limit.requests_per_second * (high - low)
            for low, high in spans.values()
        )
        assert allowed <= budget
        assert result.stats.rate_limited > 0
        # Determinism: the exact decisions are reproducible.
        again = self._replay_scrambled(
            records, rate_limit=limit, housekeeping_interval=2.0
        )
        assert again.stats.rate_limited == result.stats.rate_limited
