"""Span-tree determinism and the tracing pipeline end to end.

The acceptance matrix for causal tracing: the virtual-domain trace
export must be byte-identical across ``{serial, process}`` executors
on the same recorded trace, and repeatable at any shard count (more
shards are more lanes, which number traces differently).  The baseline
is the default replay — the serial executor, one shard and so one lane
per node: the loop that runs inline in the caller.  Wall-domain traces are
non-deterministic by nature but must parse, profile, and attribute the
bulk of end-to-end time to named stages.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.spans import (
    profile_stages,
    to_trace_events,
    trace_trees_from_json,
)
from repro.proxy.network import ProxyNetwork
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

N_SESSIONS = 40
SEED = 93
SHARDS = 2


@pytest.fixture(scope="module")
def recorded(small_origin, small_site):
    """A recorded trace + probe journal shared by every matrix cell."""
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


def _replay(recorded, **config_kwargs):
    records, probes = recorded
    network = ProxyNetwork(
        origins={},
        rng=RngStream(0, "replay"),
        n_nodes=2,
        instrument_enabled=False,
    )
    engine = TraceReplayEngine(
        network,
        ReplayConfig(
            assume_sorted=True, spans=16, **config_kwargs
        ),
    )
    return engine.replay(list(records), probes=list(probes))


class TestVirtualTraceIdentity:
    @pytest.fixture(scope="class")
    def baseline(self, recorded):
        """The default (serial, one shard per node) virtual trace export."""
        result = _replay(recorded)
        assert result.spans
        return to_trace_events(result.spans, clock="virtual")

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shards", [1, SHARDS])
    def test_matrix_matches_synchronous_loop(
        self, recorded, baseline, executor, shards
    ):
        result = _replay(
            recorded, executor=executor, queue_depth=16, shards=shards
        )
        exported = to_trace_events(result.spans, clock="virtual")
        if shards == 1:
            assert exported == baseline
        else:
            # More shards are more lanes, which renumber trace ids; the
            # span structure per trace must still be deterministic and
            # well-formed.
            document = json.loads(exported)
            assert document["otherData"]["clock"] == "virtual"
            repeat = _replay(
                recorded, executor=executor, queue_depth=16, shards=shards
            )
            assert exported == to_trace_events(
                repeat.spans, clock="virtual"
            )

    def test_identical_across_queue_depths(self, recorded, baseline):
        for depth in (1, None):
            result = _replay(
                recorded, executor="process", queue_depth=depth
            )
            assert (
                to_trace_events(result.spans, clock="virtual") == baseline
            )

    def test_trees_survive_process_pickling(self, recorded):
        result = _replay(recorded, executor="process", queue_depth=16)
        assert result.spans
        names = {
            span.name for tree in result.spans for span in tree.spans
        }
        assert {"request", "queue_wait", "handle", "detection",
                "finish", "finalize"} <= names

    def test_lane_traces_merge_in_lane_then_seq_order(self, recorded):
        result = _replay(recorded, executor="process", queue_depth=16)
        keys = [tree.order_key for tree in result.spans]
        assert keys == sorted(keys)
        assert {lane for lane, _ in keys} == {0, 1}

    def test_finish_traces_one_per_lane(self, recorded):
        result = _replay(recorded, executor="serial")
        finish = [
            t for t in result.spans if "finish" in t.categories
        ]
        assert len(finish) == 2  # one per lane: two nodes of one shard
        assert {t.lane for t in finish} == {0, 1}


class TestWallDomain:
    def test_wall_traces_profile_and_attribute(self, recorded):
        result = _replay(recorded, executor="serial")
        text = to_trace_events(result.spans, clock="wall")
        trees, clock = trace_trees_from_json(text)
        assert clock == "wall"
        report = profile_stages(trees, clock="wall")
        stage_names = {s.name for s in report.stages}
        assert {"handle", "detection", "queue_wait"} <= stage_names
        assert report.root_total > 0.0
        # The acceptance target is >= 95% on a full-size replay; this
        # floor only guards against structural attribution regressions
        # (it must hold even on a loaded CI box with tiny spans).
        assert report.attributed_fraction > 0.75

    def test_queue_delay_gauges_exported(self, recorded):
        result = _replay(recorded, executor="process", queue_depth=16)
        wall = result.metrics.series("repro_ingress_queue_wait_seconds")
        event = result.metrics.series(
            "repro_ingress_queue_wait_event_seconds"
        )
        assert len(wall) == 2 and len(event) == 2
        # Sorted per-lane streams never run behind their own event
        # clock: every event-domain wait is exactly zero.
        assert all(p.count and p.sum == 0.0 for p in event)
        predicted = result.metrics.series(
            "repro_ingress_queue_delay_predicted_seconds"
        )
        assert len(predicted) == 2

    def test_event_domain_estimate_is_deterministic(self, recorded):
        runs = [
            _replay(recorded, executor=executor, queue_depth=16)
            for executor in ("serial", "process")
        ]
        values = [
            sorted(
                (p.key, p.counts, p.sum, p.count)
                for p in run.metrics.series(
                    "repro_ingress_queue_wait_event_seconds"
                )
            )
            for run in runs
        ]
        assert values[0] and values[0] == values[1]


class TestSamplerBudgetsInPipeline:
    def test_budget_bounds_hold_per_lane(self, recorded):
        budget = 2
        records, probes = recorded
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=2,
            instrument_enabled=False,
        )
        engine = TraceReplayEngine(
            network,
            ReplayConfig(
                assume_sorted=True, spans=budget, executor="serial"
            ),
        )
        result = engine.replay(list(records), probes=list(probes))
        # Per lane: head 2 + slow 2 + robot 4 + error 2 + finish 1.
        per_lane: dict[int, int] = {}
        for tree in result.spans:
            per_lane[tree.lane] = per_lane.get(tree.lane, 0) + 1
        assert set(per_lane) == {0, 1}
        for count in per_lane.values():
            assert count <= 2 + 2 + 4 + 2 + 1
