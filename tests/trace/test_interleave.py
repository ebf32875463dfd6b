"""Interleaved scheduling and arrival profiles.

The key regression: the engine — every lane stepping its own node's
sessions by next-event time — must produce per-session results identical
to driving the same sessions one at a time, each to completion before
the next starts.  Per-session state is cursor-owned, and shared network
state is keyed so reordering cannot leak between sessions.  The
one-at-a-time discipline lives on here as the oracle
(:func:`run_one_at_a_time`): a :class:`SessionRunner` straight through
:meth:`ProxyNetwork.handle`, no lanes, no pipeline.
"""

from __future__ import annotations

import pytest

from repro.trace.arrival import (
    BurstArrival,
    DiurnalArrival,
    UniformArrival,
    profile_by_name,
)
from repro.trace.interleave import InterleavedScheduler
from repro.util.rng import RngStream
from repro.util.timeutil import DAY, WEEK
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import CODEEN_WEEK, SMOKE
from repro.workload.results import (
    SessionCensus,
    apply_session_identities,
    session_identities,
)
from repro.workload.session_run import SessionRunner


def run_mode(make_network, entry_url, mode, seed=21, n=60, **config_kwargs):
    network = make_network(n_nodes=2, seed=seed)
    engine = WorkloadEngine(
        network,
        CODEEN_WEEK,
        entry_url,
        RngStream(seed, "wl"),
        WorkloadConfig(n_sessions=n, mode=mode, **config_kwargs),
    )
    return engine.run()


class OneAtATime(SessionCensus):
    """What :func:`run_one_at_a_time` returns (census-compatible)."""

    def __init__(self, network, records):
        self.records = records
        self.sessions = network.finalize_sessions()
        apply_session_identities(self.sessions, session_identities(records))
        self.summary = network.session_sets().summary()


def run_one_at_a_time(
    make_network, entry_url, seed=21, n=60, collect_features=False
):
    """The oracle: the engine's population, one whole session at a time."""
    network = make_network(n_nodes=2, seed=seed)
    rng = RngStream(seed, "wl")
    agents = CODEEN_WEEK.sample_many(rng.split("population"), entry_url, n)
    starts = UniformArrival().sample(rng.split("starts"), n, WEEK)
    runner = SessionRunner(network.handle, collect_features=collect_features)
    return OneAtATime(
        network,
        [runner.run(agent, start) for agent, start in zip(agents, starts)],
    )


def per_session_view(result):
    """Order-independent per-session evidence, excluding byte counters."""
    return sorted(
        (
            s.key.client_ip,
            s.key.user_agent,
            s.request_count,
            s.agent_kind,
            s.true_label,
            s.in_css_set,
            s.in_js_set,
            s.in_mouse_set,
            s.followed_hidden_link,
            s.ua_mismatched,
            s.passed_captcha,
            s.wrong_key_fetches,
        )
        for s in result.sessions
    )


class TestModeEquivalence:
    def test_uniform_interleaved_matches_sequential(
        self, make_network, entry_url
    ):
        sequential = run_one_at_a_time(make_network, entry_url)
        interleaved = run_mode(
            make_network, entry_url, "interleaved", captcha_enabled=False
        )
        assert per_session_view(sequential) == per_session_view(interleaved)
        assert sequential.summary == interleaved.summary
        assert sequential.kind_census() == interleaved.kind_census()

    def test_sequential_mode_is_gone_and_says_what_replaces_it(self):
        with pytest.raises(ValueError, match="interleaved"):
            WorkloadConfig(mode="sequential")

    def test_session_records_match(self, make_network, entry_url):
        sequential = run_one_at_a_time(make_network, entry_url, n=40)
        interleaved = run_mode(make_network, entry_url, "interleaved", n=40)
        a = [(r.client_ip, r.requests, r.started_at, r.ended_at)
             for r in sequential.records]
        b = [(r.client_ip, r.requests, r.started_at, r.ended_at)
             for r in interleaved.records]
        assert a == b

    def test_captcha_outcomes_mode_independent(
        self, make_network, entry_url
    ):
        # The funnel runs inside the lanes on per-IP RNG splits, so
        # where the lanes run and how a node is cut into lanes cannot
        # move an outcome.
        interleaved = run_mode(
            make_network, entry_url, "interleaved", captcha_enabled=True
        )
        pipelined = run_mode(
            make_network, entry_url, "pipelined", captcha_enabled=True,
            executor="process", shards=2, lanes_per_node=2,
        )
        assert interleaved.summary.captcha_passes > 0
        assert (
            pipelined.summary.captcha_passes
            == interleaved.summary.captcha_passes
        )
        assert pipelined.captcha.stats == interleaved.captcha.stats

    def test_feature_datasets_match(self, make_network, entry_url):
        sequential = run_one_at_a_time(
            make_network, entry_url, n=20, collect_features=True
        )
        interleaved = run_mode(
            make_network, entry_url, "interleaved", n=20,
            collect_features=True,
        )
        examples = [
            r.example for r in sequential.records if r.example is not None
        ]
        ids = lambda examples: [
            (e.session_id, e.request_count) for e in examples
        ]
        # Same examples in the same (session index) order: Figure 4
        # trains on this list as it comes.
        assert ids(examples) == ids(interleaved.dataset.examples)

    def test_requests_arrive_in_timestamp_order(
        self, make_network, entry_url
    ):
        # At each node, that is: a node is a lane, and lanes run one
        # after another, so the network-wide tap stream is each node's
        # sorted stream in turn (TraceRecorder sorts on save).
        network = make_network(n_nodes=2, seed=9)
        seen: dict[int, list[float]] = {0: [], 1: []}
        network.add_tap(
            lambda req, resp: seen[
                network.node_index_for(req.client_ip)
            ].append(req.timestamp)
        )
        engine = WorkloadEngine(
            network,
            SMOKE,
            entry_url,
            RngStream(9, "wl"),
            WorkloadConfig(n_sessions=30, mode="interleaved"),
        )
        engine.run()
        for stamps in seen.values():
            assert stamps and stamps == sorted(stamps)

    def test_housekeeping_runs_during_replay(self, make_network, entry_url):
        # Sweeps are lane-local: each lane calls its own node's
        # housekeeping on its own event clock.
        network = make_network(n_nodes=2, seed=9)
        calls: dict[str, list[float]] = {}
        for node in network.nodes:
            def sweep(now, node=node, original=node.housekeeping):
                calls.setdefault(node.node_id, []).append(now)
                return original(now)

            node.housekeeping = sweep
        engine = WorkloadEngine(
            network,
            SMOKE,
            entry_url,
            RngStream(9, "wl"),
            WorkloadConfig(
                n_sessions=30, mode="interleaved",
                housekeeping_interval=3600.0,
            ),
        )
        engine.run()
        assert len(calls) == 2, "a node never swept during the run"
        for stamps in calls.values():
            assert stamps == sorted(stamps)


class TestScheduler:
    def test_empty_population(self):
        scheduler = InterleavedScheduler(lambda request: None)
        assert scheduler.run([], []) == []

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            InterleavedScheduler(
                lambda request: None, housekeeping_interval=-1.0
            )


class TestArrivalProfiles:
    def test_uniform_matches_seed_sampling(self):
        # The profile must reproduce the seed engine's draws exactly so
        # default workloads keep their start times across versions.
        rng_a = RngStream(5, "starts")
        rng_b = RngStream(5, "starts")
        expected = sorted(rng_a.uniform(0.0, WEEK) for _ in range(50))
        assert UniformArrival().sample(rng_b, 50, WEEK) == expected

    def test_samples_sorted_and_in_range(self):
        for profile in (UniformArrival(), DiurnalArrival(), BurstArrival()):
            starts = profile.sample(RngStream(3, "starts"), 200, WEEK)
            assert len(starts) == 200
            assert starts == sorted(starts)
            assert all(0.0 <= s < WEEK for s in starts)

    def test_burst_concentrates_mass(self):
        profile = BurstArrival(
            burst_share=0.6, burst_start=0.4, burst_width=0.02
        )
        starts = profile.sample(RngStream(3, "starts"), 2000, WEEK)
        window = [s for s in starts
                  if 0.4 * WEEK <= s <= 0.42 * WEEK]
        # ~60% burst + ~2% background, against 2% for uniform.
        assert len(window) > 0.5 * len(starts)

    def test_diurnal_peak_beats_trough(self):
        profile = DiurnalArrival(period=DAY, peak_ratio=6.0, peak_at=0.5)
        starts = profile.sample(RngStream(3, "starts"), 4000, DAY)
        peak = sum(1 for s in starts if 0.4 * DAY <= s < 0.6 * DAY)
        trough = sum(1 for s in starts if s < 0.1 * DAY or s >= 0.9 * DAY)
        assert peak > 2 * trough

    def test_profile_by_name(self):
        assert isinstance(profile_by_name("uniform"), UniformArrival)
        assert isinstance(
            profile_by_name("diurnal", peak_ratio=2.0), DiurnalArrival
        )
        with pytest.raises(KeyError):
            profile_by_name("tsunami")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DiurnalArrival(peak_ratio=0.5)
        with pytest.raises(ValueError):
            BurstArrival(burst_share=1.5)
        with pytest.raises(ValueError):
            WorkloadConfig(mode="parallel")
        with pytest.raises(ValueError):
            WorkloadConfig(housekeeping_interval=-5.0)
