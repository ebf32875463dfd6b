"""Round-trip invariance: record a workload, replay it, get the same census.

The acceptance property of the trace subsystem — a synthetic workload
exported to CLF and replayed through a *fresh* network reproduces the
original run's analyzable-session census and set-algebra summary.
"""

from __future__ import annotations

import gzip

import pytest

from repro.ml.adaboost import demo_ensemble
from repro.overload.ladder import LadderConfig
from repro.proxy.network import ProxyNetwork
from repro.trace.clf import format_clf_line, read_trace, write_trace
from repro.trace.recorder import (
    TraceRecorder,
    format_probe_line,
    parse_probe_line,
    read_probe_journal,
    record_workload,
    write_probe_journal,
)
from repro.trace.replay import ReplayConfig, TraceReplayEngine, replay_trace
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE


def make_engine(make_network, entry_url, n_sessions=40, seed=21, **config):
    network = make_network(n_nodes=2, seed=seed)
    return WorkloadEngine(
        network,
        SMOKE,
        entry_url,
        RngStream(seed, "wl"),
        WorkloadConfig(
            n_sessions=n_sessions, captcha_enabled=False, **config
        ),
    )


def make_recording_engine(site, origin, n_sessions=40, seed=21):
    network = ProxyNetwork(
        origins={site.host: origin}, rng=RngStream(seed, "net"), n_nodes=2
    )
    entry_url = f"http://{site.host}{site.home_path}"
    return WorkloadEngine(
        network,
        SMOKE,
        entry_url,
        RngStream(seed, "wl"),
        WorkloadConfig(n_sessions=n_sessions, captcha_enabled=False),
    )


def fresh_replay_network(n_nodes=2) -> ProxyNetwork:
    return ProxyNetwork(
        origins={},
        rng=RngStream(0, "replay"),
        n_nodes=n_nodes,
        instrument_enabled=False,
    )


@pytest.fixture(scope="module")
def recorded(tmp_path_factory, small_site, small_origin):
    """One recorded SMOKE workload shared by the round-trip tests."""
    tmp = tmp_path_factory.mktemp("trace")
    trace_path = str(tmp / "week.log.gz")
    probes_path = str(tmp / "week.keys.gz")
    engine = make_recording_engine(small_site, small_origin)
    result, recorder = record_workload(engine, trace_path, probes_path)
    return result, recorder, trace_path, probes_path


class TestRecorder:
    def test_capture_counts(self, recorded):
        result, recorder, _, _ = recorded
        assert len(recorder.records) == result.stats.requests
        assert len(recorder.probes) > 0

    def test_trace_is_sorted_and_annotated(self, recorded):
        _, _, trace_path, _ = recorded
        records = list(read_trace(trace_path))
        times = [r.timestamp for r in records]
        assert times == sorted(times)
        kinds = {r.agent_kind for r in records}
        assert "human_js" in kinds
        labels = {r.true_label for r in records}
        assert labels <= {"human", "robot"}

    def test_detach_stops_capture(self, make_network, entry_url):
        engine = make_engine(make_network, entry_url, n_sessions=4)
        recorder = TraceRecorder()
        recorder.attach(engine.network)
        recorder.detach(engine.network)
        engine.run()
        assert recorder.records == []
        assert recorder.probes == []

    def test_probe_line_round_trip(self, recorded):
        _, recorder, _, _ = recorded
        for probe in recorder.sorted_probes()[:50]:
            assert parse_probe_line(format_probe_line(probe)) == probe

    def test_probe_journal_file_round_trip(self, tmp_path, recorded):
        _, recorder, _, _ = recorded
        path = str(tmp_path / "probes.keys")
        sample = recorder.sorted_probes()[:100]
        assert write_probe_journal(path, sample) == 100
        assert list(read_probe_journal(path)) == sample


class TestRoundTrip:
    def test_census_and_summary_survive_replay(self, recorded):
        result, _, trace_path, probes_path = recorded
        replayed = TraceReplayEngine(
            fresh_replay_network(), ReplayConfig(assume_sorted=True)
        ).replay(trace_path, probes=probes_path)
        assert replayed.kind_census() == result.kind_census()
        assert replayed.summary == result.summary
        assert replayed.analyzable_count == result.analyzable_count
        assert replayed.requests_replayed == result.stats.requests
        assert replayed.parse_stats.malformed == 0

    def test_round_trip_independent_of_node_count(self, recorded):
        # Sticky <IP> -> node hashing keeps each session whole on one
        # node, so the aggregated census is node-topology independent.
        result, _, trace_path, probes_path = recorded
        replayed = replay_trace(
            fresh_replay_network(n_nodes=5), trace_path, probes=probes_path
        )
        assert replayed.kind_census() == result.kind_census()
        assert replayed.summary == result.summary

    def test_replay_without_journal_loses_probe_evidence(self, recorded):
        result, _, trace_path, _ = recorded
        replayed = replay_trace(fresh_replay_network(), trace_path)
        # Request-stream structure survives...
        assert replayed.analyzable_count == result.analyzable_count
        assert replayed.kind_census() == result.kind_census()
        # ...but probe-derived evidence needs the server-side key table.
        assert replayed.summary.mouse_movements == 0
        assert replayed.summary.css_downloads == 0

    def test_unsorted_source_is_sorted_by_default(self, recorded):
        result, recorder, _, probes_path = recorded
        shuffled = RngStream(7, "shuffle").shuffled(
            recorder.sorted_records()
        )
        replayed = replay_trace(
            fresh_replay_network(), shuffled, probes=probes_path
        )
        assert replayed.summary == result.summary

    def test_malformed_lines_are_skipped_not_fatal(
        self, tmp_path, recorded
    ):
        result, recorder, _, probes_path = recorded
        path = str(tmp_path / "dirty.log")
        with open(path, "w") as handle:
            for index, record in enumerate(recorder.sorted_records()):
                if index % 500 == 0:
                    handle.write("!!! corrupted line !!!\n")
                handle.write(format_clf_line(record) + "\n")
        replayed = replay_trace(
            fresh_replay_network(), path, probes=probes_path
        )
        assert replayed.parse_stats.malformed > 0
        assert replayed.summary == result.summary

    def test_probe_journal_errors_reported_separately(
        self, tmp_path, recorded
    ):
        result, recorder, trace_path, _ = recorded
        path = str(tmp_path / "corrupt.keys")
        with open(path, "w") as handle:
            handle.write("broken\tjournal\tline\n")
            for probe in recorder.sorted_probes():
                handle.write(format_probe_line(probe) + "\n")
        replayed = replay_trace(
            fresh_replay_network(), trace_path, probes=path
        )
        # Journal damage must not masquerade as access-log damage.
        assert replayed.parse_stats.malformed == 0
        assert replayed.probe_parse_stats.malformed == 1
        assert replayed.summary == result.summary

    def test_multiple_sources_heap_merge(self, recorded):
        result, recorder, _, probes_path = recorded
        records = recorder.sorted_records()
        evens = records[::2]
        odds = records[1::2]
        replayed = TraceReplayEngine(
            fresh_replay_network(), ReplayConfig(assume_sorted=True)
        ).replay(evens, odds, probes=probes_path)
        assert replayed.summary == result.summary
        assert replayed.requests_replayed == len(records)

    def test_housekeeping_interval_does_not_change_census(self, recorded):
        result, _, trace_path, probes_path = recorded
        fast = replay_trace(
            fresh_replay_network(), trace_path, probes=probes_path,
            config=ReplayConfig(housekeeping_interval=60.0),
        )
        off = replay_trace(
            fresh_replay_network(), trace_path, probes=probes_path,
            config=ReplayConfig(housekeeping_interval=0.0),
        )
        assert fast.summary == off.summary == result.summary

    def test_replay_needs_a_source(self):
        with pytest.raises(ValueError):
            TraceReplayEngine(fresh_replay_network()).replay()

    def test_span_and_latencies_populated(self, recorded):
        result, _, trace_path, probes_path = recorded
        replayed = replay_trace(
            fresh_replay_network(), trace_path, probes=probes_path
        )
        assert replayed.span > 0
        assert len(replayed.latencies) == replayed.analyzable_count
        assert replayed.probes_loaded > 0

    def test_ladder_refusals_are_traced(self, recorded):
        # A ladder refusal reaches the tracer flagged as a robot trace.
        _, _, trace_path, probes_path = recorded
        config = ReplayConfig(
            assume_sorted=True, executor="serial",
            ladder=LadderConfig(), scorer_model=demo_ensemble(8, seed=2006),
            spans=2,
        )
        replayed = replay_trace(
            fresh_replay_network(), trace_path, probes=probes_path,
            config=config,
        )
        refused = replayed.stats.throttled + replayed.stats.ladder_blocked
        assert refused > 0
        robots = [t for t in replayed.spans if "robot" in t.categories]
        assert 0 < len(robots) <= 2 * 2 * 2  # 2N robots on each of 2 lanes

    @pytest.mark.xfail(
        strict=True,
        reason="a replay network has no origins, so it answers every "
        "forwarded request 502: all 40 sessions' status counters differ "
        "(one reads live (83, 0, 0, 0), replayed (14, 0, 0, 69))",
    )
    def test_status_counters_and_blocks_survive_replay(self, recorded):
        result, _, trace_path, probes_path = recorded
        replayed = TraceReplayEngine(
            fresh_replay_network(), ReplayConfig(assume_sorted=True)
        ).replay(trace_path, probes=probes_path)

        def outcomes(sessions):
            return {
                (s.key.client_ip, s.key.user_agent, round(s.started_at, 6)): (
                    s.status_2xx, s.status_3xx, s.status_4xx, s.status_5xx,
                    s.block_reason,
                )
                for s in sessions
            }

        assert outcomes(replayed.sessions) == outcomes(result.sessions)
        assert replayed.stats.policy_blocked == result.stats.policy_blocked


class TestProbeRecord:
    """A journal line reads back as the registration a lane inserts —
    the live one at the journal's resolution, less its script recipe —
    and a journal read back writes out byte for byte as it was."""

    def test_to_probe_round_trip(self, recorded):
        _, recorder, _, probes_path = recorded
        live = sorted(recorder.probes, key=lambda p: round(p.issued_at, 6))
        expected = [
            p._replace(issued_at=round(p.issued_at, 6), script=None)
            for p in live
        ]
        assert recorder.sorted_probes() == expected
        assert list(read_probe_journal(probes_path, strict=True)) == expected
        assert any(p.script is not None for p in live)

    def test_read_then_write_again_is_byte_identical(self, tmp_path, recorded):
        _, _, trace_path, probes_path = recorded
        again_trace = str(tmp_path / "again.log.gz")
        again_probes = str(tmp_path / "again.keys.gz")
        write_trace(again_trace, read_trace(trace_path, strict=True))
        write_probe_journal(
            again_probes, read_probe_journal(probes_path, strict=True)
        )
        for first, second in ((trace_path, again_trace), (probes_path, again_probes)):
            with gzip.open(first, "rb") as a, gzip.open(second, "rb") as b:
                assert a.read() == b.read()

    def test_registrations_in_memory_replay_as_the_journal(self, recorded):
        """``recorder.probes`` are the registrations as made (issue times
        unrounded, script recipes kept); replayed from memory they are
        put in journal form first, so the replay equals the file's."""
        _, recorder, trace_path, probes_path = recorded
        assert recorder.probes != recorder.sorted_probes()
        config = ReplayConfig(assume_sorted=True, strict=True)
        from_file, from_memory = (
            TraceReplayEngine(fresh_replay_network(), config).replay(
                trace_path, probes=probes
            )
            for probes in (probes_path, recorder.probes)
        )
        assert from_memory.kind_census() == from_file.kind_census()
        assert from_memory.summary == from_file.summary
        assert from_memory.probes_loaded == from_file.probes_loaded
        assert from_memory.stats == from_file.stats
