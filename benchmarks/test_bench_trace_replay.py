"""Trace-subsystem throughput: the costs of log-driven deployment.

Replaying a week of CoDeeN traffic (~930k sessions, tens of millions of
requests) is only practical if CLF parsing and the replay event loop run
at proxy data rates; these benches measure both at smoke size, plus the
synthetic engine on the same population.  (The repo benchmark's
``replay_offline`` workload is the measured, gated number; these are
pytest-benchmark timing loops.)
"""

from __future__ import annotations

import itertools

import pytest

from repro.proxy.network import ProxyNetwork
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.trace.clf import format_clf_line, parse_clf_line
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

BENCH_TRACE_SESSIONS = 150

_SITE = SiteGenerator(SiteConfig(n_pages=16)).generate(RngStream(11, "bench"))
_ORIGIN = OriginServer(_SITE)
_ENTRY = f"http://{_SITE.host}{_SITE.home_path}"


def _build_engine(network: ProxyNetwork) -> WorkloadEngine:
    return WorkloadEngine(
        network,
        SMOKE,
        _ENTRY,
        RngStream(31, "bench-wl"),
        WorkloadConfig(
            n_sessions=BENCH_TRACE_SESSIONS,
            captcha_enabled=False,
        ),
    )


def _network() -> ProxyNetwork:
    return ProxyNetwork(
        origins={_SITE.host: _ORIGIN},
        rng=RngStream(77, "bench-net"),
        n_nodes=2,
    )


@pytest.fixture(scope="module")
def recorded_trace():
    """One recorded workload shared by the replay benches (in memory)."""
    network = _network()
    recorder = TraceRecorder()
    recorder.attach(network)
    result = _build_engine(network).run()
    recorder.detach(network)
    recorder.annotate_ground_truth(result.records)
    return recorder.sorted_records(), recorder.sorted_probes()


def test_bench_clf_parse_throughput(benchmark, recorded_trace):
    """CLF lines parsed per second (the log-ingestion floor)."""
    records, _ = recorded_trace
    lines = [format_clf_line(record) for record in records]
    cycle = itertools.cycle(lines)

    parsed = benchmark(lambda: parse_clf_line(next(cycle)))
    assert parsed.status >= 100
    benchmark.extra_info["trace_lines"] = len(lines)


def test_bench_clf_format_throughput(benchmark, recorded_trace):
    """CLF lines rendered per second (the export path)."""
    records, _ = recorded_trace
    cycle = itertools.cycle(records)

    line = benchmark(lambda: format_clf_line(next(cycle)))
    assert line


def test_bench_trace_replay_requests_per_second(benchmark, recorded_trace):
    """Full replay throughput: heap merge + detection pipeline."""
    records, probes = recorded_trace

    def replay():
        engine = TraceReplayEngine(
            ProxyNetwork(
                origins={},
                rng=RngStream(0, "bench-replay"),
                n_nodes=2,
                instrument_enabled=False,
            ),
            ReplayConfig(assume_sorted=True),
        )
        return engine.replay(records, probes=probes)

    result = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert result.requests_replayed == len(records)
    benchmark.extra_info["requests"] = len(records)
    benchmark.extra_info["probes"] = len(probes)


def test_bench_interleaved_engine(benchmark):
    """The synthetic engine: every lane's event-heap session scheduler."""
    result = benchmark.pedantic(
        lambda: _build_engine(_network()).run(),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["requests"] = result.stats.requests
