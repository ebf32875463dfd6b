"""``mode="pipelined"``: lanes on an executor match inline lanes
(``mode="interleaved"``), on both executors and every queue depth."""

from __future__ import annotations

import pytest

from repro.proxy.network import ProxyNetwork
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

N_SESSIONS = 50
SEED = 37


def _run(make_network, entry_url, mode, **config_kwargs):
    network = make_network(n_nodes=3, seed=SEED)
    engine = WorkloadEngine(
        network,
        SMOKE,
        entry_url,
        RngStream(SEED, "wl"),
        WorkloadConfig(
            n_sessions=N_SESSIONS, mode=mode, **config_kwargs
        ),
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


class TestPipelinedMode:
    @pytest.fixture(scope="class")
    def interleaved(self, small_origin, small_site):
        # Built directly from the session-scoped site fixtures so the
        # reference run is computed once for the whole matrix.
        def make(n_nodes=3, seed=SEED, **kwargs):
            return ProxyNetwork(
                origins={small_site.host: small_origin},
                rng=RngStream(seed, "net"),
                n_nodes=n_nodes,
                **kwargs,
            )

        entry = f"http://{small_site.host}{small_site.home_path}"
        return _run(make, entry, "interleaved")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("depth", [1, None])
    def test_matches_interleaved(
        self, make_network, entry_url, interleaved, executor, depth
    ):
        result = _run(
            make_network,
            entry_url,
            "pipelined",
            executor=executor,
            queue_depth=depth,
        )
        assert result.summary == interleaved.summary
        assert result.kind_census() == interleaved.kind_census()
        assert _verdicts(result) == _verdicts(interleaved)
        assert result.captcha.stats == interleaved.captcha.stats
        assert len(result.records) == len(interleaved.records)
        # Byte-identical counters, admission included: one queued entry
        # per admitted session, nothing shed.
        assert result.stats == interleaved.stats
        assert result.stats.queued == N_SESSIONS
        assert result.stats.shed == 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_metrics_match_interleaved_engine(
        self, make_network, entry_url, interleaved, executor
    ):
        # The whole deterministic snapshot — node counters, cache and
        # limiter totals, sweep bookkeeping, admission counts, the
        # CAPTCHA funnel — comes back byte-identical from lanes that
        # ran somewhere else.
        from repro.obs.export import to_json

        result = _run(
            make_network, entry_url, "pipelined", executor=executor
        )
        assert result.metrics.deterministic().points
        assert to_json(result.metrics.deterministic()) == to_json(
            interleaved.metrics.deterministic()
        )
        funnel = result.metrics.get("repro_captcha_offered_total")
        assert funnel is not None
        assert funnel.value == interleaved.captcha.stats.offered

    def test_records_keep_submission_order(
        self, make_network, entry_url, interleaved
    ):
        result = _run(
            make_network, entry_url, "pipelined", executor="process"
        )
        assert [
            (r.client_ip, r.user_agent) for r in result.records
        ] == [
            (r.client_ip, r.user_agent) for r in interleaved.records
        ]

    def test_feature_collection_survives_process_lanes(
        self, make_network, entry_url
    ):
        reference = _run(
            make_network, entry_url, "interleaved", collect_features=True,
        )
        result = _run(
            make_network,
            entry_url,
            "pipelined",
            executor="process",
            collect_features=True,
        )
        assert len(result.dataset.examples) == len(
            reference.dataset.examples
        )
        by_id = {
            example.session_id: example
            for example in reference.dataset.examples
        }
        for example in result.dataset.examples:
            reference_example = by_id[example.session_id]
            assert example.label == reference_example.label
            assert (example.final == reference_example.final).all()

    def test_sharded_detection_composes(self, make_network, entry_url):
        baseline = _run(make_network, entry_url, "interleaved")
        result = _run(
            make_network,
            entry_url,
            "pipelined",
            executor="process",
            shards=4,
        )
        assert result.summary == baseline.summary
        assert _verdicts(result) == _verdicts(baseline)

    def test_config_validation(self):
        # IngressConfig's checks, reached at construction — in either
        # mode, for the executor that is named and the one that runs.
        with pytest.raises(ValueError):
            WorkloadConfig(executor="fiber")
        with pytest.raises(ValueError):
            WorkloadConfig(queue_depth=0)
        with pytest.raises(ValueError):
            WorkloadConfig(flight_interval=0.0)
        with pytest.raises(ValueError, match=r"'serial', 'process'"):
            WorkloadConfig(mode="pipelined", executor="thread")
        # Sharded lanes and span tracing do not need mode="pipelined":
        # they need what IngressConfig needs.  Shedding needs process
        # lanes, so the default mode — inline whatever ``executor``
        # names — refuses it.
        from repro.obs.spans import SpanConfig

        config = WorkloadConfig(shards=4, spans=SpanConfig(), queue_depth=8)
        assert config.ingress().executor == "serial"
        with pytest.raises(ValueError, match="process executor"):
            WorkloadConfig(shed=True, queue_depth=8)
        assert WorkloadConfig(
            mode="pipelined", executor="process", shed=True, queue_depth=8
        ).ingress().executor == "process"
        assert WorkloadConfig(executor="process").ingress().executor == "serial"


class TestPipelinedRecording:
    """Lane traffic bypasses ProxyNetwork.handle, so the ingress must
    fire the network taps itself — a silent 0-request trace was the
    failure mode this pins down."""

    def _record(self, make_network, entry_url, mode, **config_kwargs):
        from repro.trace.recorder import TraceRecorder

        network = make_network(n_nodes=3, seed=SEED)
        recorder = TraceRecorder()
        recorder.attach(network)
        result = WorkloadEngine(
            network,
            SMOKE,
            entry_url,
            RngStream(SEED, "wl"),
            WorkloadConfig(
                n_sessions=20,
                mode=mode,
                captcha_enabled=False,
                **config_kwargs,
            ),
        ).run()
        recorder.detach(network)
        return result, recorder

    @pytest.mark.parametrize("executor", ["serial"])
    def test_taps_fire_for_lane_traffic(
        self, make_network, entry_url, executor
    ):
        reference, _ = self._record(
            make_network, entry_url, "interleaved"
        )
        result, recorder = self._record(
            make_network, entry_url, "pipelined", executor=executor
        )
        assert len(recorder.records) == result.stats.requests
        assert len(recorder.records) == reference.stats.requests
        assert recorder.probes  # registry listeners fired too
        census = {}
        for record in recorder.sorted_records():
            key = (record.client_ip, record.user_agent)
            census[key] = census.get(key, 0) + 1
        assert sum(census.values()) == reference.stats.requests

    @pytest.mark.parametrize("shards", [1, 4])
    def test_recorded_bytes_do_not_depend_on_mode(
        self, make_network, entry_url, tmp_path, shards
    ):
        """Taps see each lane's requests in timestamp order, one shard
        after another; the recorder sorts on save, so the files come
        out byte for byte the same wherever lanes ran and however many
        shards a node is cut into."""
        files = {}
        for mode, layout in (
            ("interleaved", 1),
            ("pipelined", shards),
        ):
            _, recorder = self._record(
                make_network, entry_url, mode, shards=layout
            )
            paths = [
                str(tmp_path / f"{mode}-{layout}.{suffix}")
                for suffix in ("log", "keys")
            ]
            recorder.save(*paths)
            files[mode] = [open(path, "rb").read() for path in paths]
            assert all(files[mode])
        assert files["interleaved"] == files["pipelined"]

    def test_process_lanes_refuse_observers(self, make_network, entry_url):
        from repro.trace.recorder import TraceRecorder

        network = make_network(n_nodes=2, seed=SEED)
        recorder = TraceRecorder()
        recorder.attach(network)
        engine = WorkloadEngine(
            network,
            SMOKE,
            entry_url,
            RngStream(SEED, "wl"),
            WorkloadConfig(
                n_sessions=5, mode="pipelined", executor="process"
            ),
        )
        with pytest.raises(ValueError, match="process-executor lanes"):
            engine.run()
