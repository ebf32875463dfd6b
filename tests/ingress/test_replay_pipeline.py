"""Ingress determinism: executors and queue depths never change results.

The acceptance matrix: census, set-algebra summary, per-session verdicts
and network stats must be byte-identical across ``{serial, process}``
executors × queue depths ``{1, 16, unbounded}`` on the same recorded
trace.  The reference is the loop that runs inline in the caller — the
serial executor, one lane per node shard — and that
reference is itself held against :func:`_oracle`, a replay that knows
nothing of lanes or pipelines.  Load shedding must be visible in the
stats, never silent.
"""

from __future__ import annotations

import dataclasses
import heapq

import numpy as np
import pytest
from journal_pages import journal_pages

from repro.ingress.pipeline import (
    IngressConfig,
    IngressPipeline,
    replay_workers,
)
from repro.ml.adaboost import AdaBoostModel
from repro.overload.admission import ShedPolicy
from repro.ml.stump import DecisionStump
from repro.proxy.network import ProxyNetwork
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE
from repro.workload.results import (
    SessionCensus,
    apply_session_identities,
    session_identities,
)

N_SESSIONS = 50
SEED = 71


def _verdicts(result):
    return {
        (s.key.client_ip, s.key.user_agent, s.started_at): (
            s.final_verdict().label,
            s.request_count,
            s.true_label,
            s.agent_kind,
        )
        for s in result.sessions
    }


def _ordered(result):
    """Sessions (by key and start) and latencies, in result order."""
    return (
        [(s.key, s.started_at) for s in result.sessions],
        [(l.css_at, l.beacon_js_at, l.mouse_at) for l in result.latencies],
    )


def _scorer_model() -> AdaBoostModel:
    rng = np.random.default_rng(23)
    model = AdaBoostModel(n_features=12)
    for _ in range(20):
        model.stumps.append(
            DecisionStump(
                feature=int(rng.integers(12)),
                threshold=float(rng.uniform(0, 40)),
                polarity=int(rng.choice((-1, 1))),
            )
        )
        model.alphas.append(float(rng.uniform(0.05, 1.0)))
    model.compile()
    return model


@pytest.fixture(scope="module")
def recorded(small_origin, small_site):
    """A recorded trace + probe journal shared by every matrix cell."""
    network = ProxyNetwork(
        origins={small_site.host: small_origin},
        rng=RngStream(SEED, "net"),
        n_nodes=3,
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


def _replay(recorded, **config_kwargs):
    records, probes = recorded
    network = ProxyNetwork(
        origins={},
        rng=RngStream(0, "replay"),
        n_nodes=3,
        instrument_enabled=False,
    )
    engine = TraceReplayEngine(
        network, ReplayConfig(assume_sorted=True, **config_kwargs)
    )
    return engine.replay(list(records), probes=list(probes))


def _oracle(recorded) -> SessionCensus:
    """An independent replay: merge, register / handle in order, finalize."""
    records, probes = recorded
    network = ProxyNetwork(
        origins={}, rng=RngStream(0, "replay"), n_nodes=3,
        instrument_enabled=False,
    )
    for _time, is_request, _seq, item in heapq.merge(
        ((p.issued_at, False, i, p) for i, p in enumerate(probes)),
        ((r.timestamp, True, i, r) for i, r in enumerate(records)),
    ):
        if is_request:
            network.handle(item.to_request())
        else:
            network.node_for(item.client_ip).shard_for(
                item.client_ip
            ).detection.registry.register(item)
    result = SessionCensus()
    result.sessions = network.finalize_sessions()
    apply_session_identities(result.sessions, session_identities(records))
    result.summary = network.session_sets().summary()
    result.stats = network.stats()
    result.latencies = network.detection_latencies()
    return result


class TestExecutorDeterminism:
    @pytest.fixture(scope="class")
    def baseline(self, recorded):
        return _replay(recorded, executor="serial")

    def test_serial_reference_matches_the_oracle(self, recorded, baseline):
        oracle = _oracle(recorded)
        assert oracle.summary == baseline.summary
        assert oracle.kind_census() == baseline.kind_census()
        assert _verdicts(oracle) == _verdicts(baseline)
        assert _ordered(oracle) == _ordered(baseline)
        # The oracle admits nothing, so it queues nothing.
        assert oracle.stats == dataclasses.replace(baseline.stats, queued=0)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("depth", [1, 16, None])
    def test_matrix_matches_synchronous_loop(
        self, recorded, baseline, executor, depth
    ):
        result = _replay(recorded, executor=executor, queue_depth=depth)
        assert result.summary == baseline.summary
        assert result.kind_census() == baseline.kind_census()
        assert _verdicts(result) == _verdicts(baseline)
        assert result.requests_replayed == baseline.requests_replayed
        assert result.probes_loaded == baseline.probes_loaded
        assert result.first_timestamp == baseline.first_timestamp
        assert result.last_timestamp == baseline.last_timestamp
        assert result.stats == baseline.stats
        assert _ordered(result) == _ordered(baseline)
        # One admitted event per request and per journalled page.
        records, probes = recorded
        assert result.stats.queued == len(records) + len(
            journal_pages(probes)
        )
        assert result.stats.shed == 0

    def test_sharded_lanes_agree_too(self, recorded, baseline):
        result = _replay(
            recorded, executor="process", queue_depth=16, shards=4
        )
        assert result.summary == baseline.summary
        assert result.kind_census() == baseline.kind_census()
        assert _verdicts(result) == _verdicts(baseline)
        assert _ordered(result) == _ordered(baseline)

    @pytest.mark.parametrize("executor", ["process"])
    def test_micro_batched_scoring_deterministic(self, recorded, executor):
        model = _scorer_model()
        reference = _replay(recorded, executor="serial", scorer_model=model)
        assert reference.ml_verdicts  # the scorer actually ran
        result = _replay(
            recorded,
            executor=executor,
            queue_depth=16,
            scorer_model=model,
        )
        assert [
            (v.session_id, v.margin) for v in result.ml_verdicts
        ] == [(v.session_id, v.margin) for v in reference.ml_verdicts]


class TestLaneGranularity:
    """A lane is a shard: shard count is a topology knob, never a
    behaviour knob.

    Every ``(node, shard)`` pair is its own ingress lane carrying only
    its partition's state, so the shard count is the lane count per
    node.  Results must stay byte-identical across shard counts and
    executors.
    """

    SHARDS = 4

    @pytest.fixture(scope="class")
    def reference(self, recorded):
        return _replay(
            recorded, shards=self.SHARDS, executor="serial", queue_depth=16
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shards", [1, SHARDS])
    def test_lane_matrix_matches(
        self, recorded, reference, executor, shards
    ):
        result = _replay(
            recorded, shards=shards, executor=executor, queue_depth=16
        )
        assert result.summary == reference.summary
        assert result.kind_census() == reference.kind_census()
        assert _verdicts(result) == _verdicts(reference)
        assert result.stats == reference.stats
        assert result.requests_replayed == reference.requests_replayed
        assert result.probes_loaded == reference.probes_loaded
        assert _ordered(result) == _ordered(reference)

    @pytest.mark.parametrize(
        "shards, depth", [(0, 1), (1, 1), (2, 1), (2, 2), (8, 1), (8, 8)]
    )
    def test_shard_count_does_not_show_in_order(
        self, recorded, reference, shards, depth
    ):
        # 0 keeps the network as built: one shard per node.  Each shard
        # is a process lane, so its pipe depth (one event, or one per
        # shard) must not show either.
        result = _replay(
            recorded, shards=shards, executor="process", queue_depth=depth
        )
        assert result.summary == reference.summary
        assert result.stats == reference.stats
        assert _ordered(result) == _ordered(reference)

    def test_deterministic_metrics_invariant_to_lane_count(
        self, recorded, reference
    ):
        # A shard count decides which {lane, shard} label a count lands
        # on, never the count: summed over those labels, deterministic
        # series agree between one lane per node and four.  Three kinds
        # of series are exempt, each scoped to a lane's own stream: the
        # micro-batcher's flush grouping, queue waits (a lane's first
        # event has none), and sweep bookkeeping on per-lane clocks.
        lane_scoped = ("repro_batch_", "repro_ingress_queue_")
        sweep_dependent = {
            "repro_cache_expired_total",
            "repro_ratelimit_evicted_total",
        }

        def comparable(snapshot):
            totals = {}
            for point in snapshot.deterministic().points:
                if (
                    point.name.startswith(lane_scoped)
                    or point.name in sweep_dependent
                ):
                    continue
                labels = tuple(
                    (key, value)
                    for key, value in point.labels
                    if key not in ("lane", "shard")
                )
                point = dataclasses.replace(point, labels=labels)
                known = totals.get(point.key)
                totals[point.key] = (
                    point if known is None else known.merged(point)
                )
            return totals

        result = _replay(
            recorded, shards=1, executor="process", queue_depth=16
        )
        assert result.metrics.series("repro_ingress_admitted_total")
        assert comparable(result.metrics) == comparable(reference.metrics)

    def test_per_shard_lanes_outnumber_nodes(self):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=3,
            instrument_enabled=False,
        )
        network.shard_detection(self.SHARDS)
        config = IngressConfig(executor="serial")
        workers = replay_workers(network, config)
        assert len(workers) == 3 * self.SHARDS > len(network.nodes)
        assert [worker.shard for worker in workers] == [
            shard for node in network.nodes for shard in node.state_shards
        ]
        pipeline = IngressPipeline(network, workers, config)
        try:
            assert pipeline.n_lanes == 3 * self.SHARDS
            for i in range(64):
                ip = f"10.1.{i}.7"
                lane = pipeline.lane_for(ip)
                node = network.node_for(ip)
                assert lane // self.SHARDS == network.node_index_for(ip)
                assert lane % self.SHARDS == node.shard_index_for(ip)
                assert workers[lane].shard is node.shard_for(ip)
        finally:
            pipeline.close()

    def test_each_lane_reaches_only_its_own_shard(self, recorded):
        """A network sharded four ways runs ``nodes x 4`` lanes, and a
        lane's requests and probes land in its own shard's tracker and
        probe table — never in another shard's."""
        records, probes = recorded
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=3,
            instrument_enabled=False,
        )
        network.shard_detection(self.SHARDS)
        config = IngressConfig(executor="serial", housekeeping_interval=0)
        workers = replay_workers(network, config)
        pipeline = IngressPipeline(network, workers, config)
        assert pipeline.n_lanes == len(network.nodes) * self.SHARDS
        from repro.ingress.workers import PROBE_EVENT, REQUEST_EVENT

        for page in journal_pages(probes):
            pipeline.submit((PROBE_EVENT, page), page[0].client_ip)
        for record in records:
            pipeline.submit((REQUEST_EVENT, record), record.client_ip)
        result = pipeline.close()
        assert len(result.lanes) == pipeline.n_lanes
        for lane, worker in enumerate(workers):
            shard = worker.shard
            owned = {
                ip
                for ip in {r.client_ip for r in records}
                | {p.client_ip for p in probes}
                if pipeline.lane_for(ip) == lane
            }
            assert owned  # every lane carries traffic
            started = {
                s.key.client_ip for s in shard.detection.tracker.analyzable()
            }
            tabled = {
                p.client_ip for p in shard.detection.registry.iter_probes()
            }
            assert started and started <= owned
            assert tabled and tabled <= owned
            assert result.lanes[lane].handled == sum(
                1 for r in records if r.client_ip in owned
            )
            assert result.lanes[lane].probes_loaded == sum(
                1 for p in probes if p.client_ip in owned
            )

class TestMetricsDeterminism:
    """Snapshot byte-identity: the observability acceptance matrix."""

    @pytest.fixture(scope="class")
    def reference(self, recorded):
        return _replay(
            recorded,
            executor="serial",
            scorer_model=_scorer_model(),
            flight_interval=3600.0,
        )

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("depth", [1, 16, None])
    def test_deterministic_snapshot_byte_identical(
        self, recorded, reference, executor, depth
    ):
        from repro.obs.export import to_json

        result = _replay(
            recorded,
            executor=executor,
            queue_depth=depth,
            scorer_model=_scorer_model(),
            flight_interval=3600.0,
        )
        assert to_json(result.metrics.deterministic()) == to_json(
            reference.metrics.deterministic()
        )
        # Flight frames sit on an absolute grid, so their deterministic
        # content is also byte-identical, frame by frame.
        assert [f.tick for f in result.flight] == [
            f.tick for f in reference.flight
        ]
        for ours, theirs in zip(result.flight, reference.flight):
            assert to_json(ours.metrics.deterministic()) == to_json(
                theirs.metrics.deterministic()
            )

    def test_snapshot_has_the_advertised_content(self, reference):
        snap = reference.metrics
        assert snap.get("repro_ingress_queue_wait_event_seconds",
                        {"lane": "0"}).count > 0
        assert sum(
            p.count for p in snap.series("repro_proxy_handle_seconds")
        ) > 0
        assert snap.total("repro_batch_flush_total") > 0
        assert sum(
            p.count for p in snap.series("repro_batch_flush_sessions")
        ) > 0
        assert snap.total("repro_captcha_offered_total") == 0  # replay
        assert reference.flight  # the recorder actually sampled

    def test_process_lanes_refuse_metrics_listeners(self, recorded):
        records, probes = recorded
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=3,
            instrument_enabled=False,
        )
        network.nodes[0].state_shards[0].metrics.add_listener(
            lambda frame: None
        )
        engine = TraceReplayEngine(
            network,
            ReplayConfig(assume_sorted=True, executor="process"),
        )
        with pytest.raises(ValueError, match="metrics listeners"):
            engine.replay(list(records), probes=list(probes))


class TestLoadShedding:
    def test_shed_is_counted_never_silent(self, recorded):
        records, probes = recorded
        result = _replay(
            recorded, executor="process", queue_depth=1,
            policy=ShedPolicy.SHED,
        )
        stats = result.stats
        # Every arrival — a request or a journalled page — is accounted
        # for: queued xor shed...
        pages = len(journal_pages(probes))
        assert stats.queued + stats.shed == len(records) + pages
        # ...and everything queued was actually handled.
        assert result.requests_replayed + pages == stats.queued
        # Probe-journal key material is never shed.
        assert result.probes_loaded == len(probes)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(executor="fiber")
        with pytest.raises(ValueError, match=r"'serial', 'process'"):
            ReplayConfig(executor="thread")
        with pytest.raises(ValueError):
            ReplayConfig(queue_depth=0)


class TestFrontends:
    def _pipeline(self, executor="process", queue_depth=8):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=3,
            instrument_enabled=False,
        )
        config = IngressConfig(executor=executor, queue_depth=queue_depth)
        return IngressPipeline(
            network, replay_workers(network, config), config
        )

    def test_pipeline_rejects_double_close(self):
        pipeline = self._pipeline(executor="serial")
        pipeline.close()
        with pytest.raises(RuntimeError):
            pipeline.close()
        with pytest.raises(RuntimeError):
            pipeline.submit(("request", None), "10.0.0.1")


class TestScoringStateLifecycle:
    """A session's Table 2 attributes live on its ``SessionState`` only
    while the tracker keeps the session live: once a replay is over,
    no retired session holds its URL sets."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_retired_sessions_keep_no_features(
        self, recorded, executor, shards
    ):
        result = _replay(
            recorded,
            executor=executor,
            queue_depth=16,
            shards=shards,
            scorer_model=_scorer_model(),
        )
        assert result.ml_verdicts and result.sessions
        assert all(state.features is None for state in result.sessions)
