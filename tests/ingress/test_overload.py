"""Overload and fault scenarios: the adaptive-control acceptance suite.

Pins the three tentpole behaviours of ``repro.overload``:

* **delay-budget admission** — under sustained overload the ADAPTIVE
  policy keeps the predicted queue delay near the configured budget,
  while binary SHED at the same queue depth lets it grow to the full
  queue's drain time;
* **per-IP fairness** — a flooding client absorbs the drops; a flash
  crowd of distinct legitimate clients degrades gracefully;
* **graduated response ladder** — checkpoint verdicts drive a
  throttle -> CAPTCHA -> block escalation whose exported state is
  byte-identical across ``{serial, process}`` executors and
  lane layouts.

Plus the admission conservation property (admitted + shed always
balances arrivals, on every executor x policy combination) and the
prediction-gauge freshness regression.
"""

from __future__ import annotations

import json
import time

import pytest
from journal_pages import journal_pages

from repro.agents.population import AgentSpec, PopulationMix
from repro.agents.robots import DdosZombie
from repro.ingress.executors import ShedPolicy
from repro.ingress.pipeline import (
    IngressConfig,
    IngressPipeline,
    replay_workers,
)
from repro.ml.adaboost import AdaBoostModel
from repro.ml.stump import DecisionStump
from repro.overload.admission import AdaptiveConfig, DelayBudgetController
from repro.overload.ladder import LadderConfig
from repro.proxy.network import ProxyNetwork
from repro.proxy.node import NodeStats
from repro.trace.arrival import BurstArrival
from repro.trace.recorder import TraceRecorder
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

N_SESSIONS = 60
SEED = 2006
SHARDS = 4

#: The SMOKE population plus a flash crowd of DDoS zombies (§1's abuse
#: item 1): forged browser UAs, no referrers, rapid-fire GETs.
DDOS_BURST = PopulationMix(
    "ddos_burst",
    [
        *SMOKE.specs,
        AgentSpec(
            "ddos_zombie",
            4.0,
            lambda client_ip, user_agent, rng, entry_url: DdosZombie(
                client_ip, user_agent, rng, entry_url, max_requests=80
            ),
            ("Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)",),
        ),
    ],
)


def _referrer_stump() -> AdaBoostModel:
    """A handcrafted one-stump ensemble on attribute 4 (% requests with
    a Referer): browsers score human, zombies and crawlers score robot.

    Unlike a trained ensemble, the verdict at every per-session
    checkpoint is a pure function of that prefix — stable across
    executors, so ladder escalations are too.
    """
    model = AdaBoostModel(n_features=12)
    model.stumps.append(
        DecisionStump(feature=4, threshold=25.0, polarity=1)
    )
    model.alphas.append(1.0)
    model.compile()
    return model


@pytest.fixture(scope="module")
def ddos_trace(small_origin, small_site):
    """A recorded burst-arrival trace with a DDoS flash crowd on top."""
    network = ProxyNetwork(
        origins={small_site.host: small_origin},
        rng=RngStream(SEED, "net"),
        n_nodes=3,
    )
    recorder = TraceRecorder()
    recorder.attach(network)
    result = WorkloadEngine(
        network,
        DDOS_BURST,
        f"http://{small_site.host}{small_site.home_path}",
        RngStream(SEED, "wl"),
        WorkloadConfig(
            n_sessions=N_SESSIONS,
            captcha_enabled=False,
            mode="interleaved",
            arrival=BurstArrival(
                burst_share=0.5, burst_start=0.3, burst_width=0.05
            ),
            duration=6 * 3600.0,
        ),
    ).run()
    recorder.detach(network)
    recorder.annotate_ground_truth(result.records)
    return recorder.sorted_records(), recorder.sorted_probes()


def _replay(ddos_trace, **config_kwargs):
    records, probes = ddos_trace
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


LADDER = LadderConfig(challenge_patience=4)


def _ladder_replay(ddos_trace, executor, shards=0):
    return _replay(
        ddos_trace,
        executor=executor,
        queue_depth=16,
        scorer_model=_referrer_stump(),
        ladder=LADDER,
        shards=shards,
    )


class TestConfigValidation:
    """Satellite (c): silently-inert configurations must be refused."""

    def test_shed_with_unbounded_queue_is_rejected(self):
        # Regression: this combination used to construct fine and then
        # never shed anything — an unbounded queue never refuses a put.
        with pytest.raises(ValueError, match="never shed"):
            IngressConfig(
                executor="process", policy=ShedPolicy.SHED, queue_depth=None
            )

    def test_replay_config_rejects_shed_without_depth(self):
        with pytest.raises(ValueError, match="never shed"):
            ReplayConfig(
                executor="process", policy=ShedPolicy.SHED, queue_depth=None
            )

    def test_workload_config_rejects_shed_without_depth(self):
        with pytest.raises(ValueError, match="never shed"):
            WorkloadConfig(
                mode="pipelined", executor="process", policy=ShedPolicy.SHED
            )

    def test_shed_needs_the_process_executor(self):
        # Regression: SHED on inline lanes constructed fine and could
        # never shed — nothing queues, so no put is ever refused.  The
        # default executor is serial, so every spelling without an
        # explicit ``executor="process"`` is the silent no-op.
        with pytest.raises(ValueError, match="process executor"):
            IngressConfig(
                executor="serial", policy=ShedPolicy.SHED, queue_depth=1
            )
        with pytest.raises(ValueError, match="process executor"):
            ReplayConfig(policy=ShedPolicy.SHED, queue_depth=1)
        with pytest.raises(ValueError, match="process executor"):
            # Default mode keeps the lanes inline whatever ``executor``.
            WorkloadConfig(
                executor="process", policy=ShedPolicy.SHED, queue_depth=8
            )
        # Bounding the (never used) queue of inline lanes stays legal:
        # BLOCK on serial is exactly what it looks like.
        assert ReplayConfig(
            executor="serial", queue_depth=1024
        ).ingress().policy is ShedPolicy.BLOCK

    def test_adaptive_needs_a_queued_executor(self):
        # The serial executor has no backlog, so the predicted delay is
        # pinned at zero: ADAPTIVE would be the same silent no-op.
        with pytest.raises(ValueError, match="serial"):
            IngressConfig(
                executor="serial", policy=ShedPolicy.ADAPTIVE
            )
        with pytest.raises(ValueError, match="serial"):
            ReplayConfig(executor="serial", policy=ShedPolicy.ADAPTIVE)
        with pytest.raises(ValueError, match="serial"):
            WorkloadConfig(
                mode="pipelined",
                executor="serial",
                policy=ShedPolicy.ADAPTIVE,
            )

    def test_adaptive_tuning_requires_adaptive_policy(self):
        with pytest.raises(ValueError, match="ADAPTIVE"):
            IngressConfig(
                executor="process",
                policy=ShedPolicy.BLOCK,
                adaptive=AdaptiveConfig(),
            )

    def test_adaptive_and_shed_are_mutually_exclusive(self):
        with pytest.raises(ValueError, match="ADAPTIVE"):
            ReplayConfig(
                executor="process",
                queue_depth=8,
                policy=ShedPolicy.SHED,
                adaptive=AdaptiveConfig(),
            )
        with pytest.raises(ValueError, match="ADAPTIVE"):
            WorkloadConfig(
                mode="pipelined",
                executor="process",
                queue_depth=8,
                policy=ShedPolicy.SHED,
                adaptive=AdaptiveConfig(),
            )

    def test_ladder_needs_a_scorer(self):
        with pytest.raises(ValueError, match="scorer_model"):
            IngressConfig(executor="process", ladder=LadderConfig())

    def test_adaptive_policy_defaults_its_tuning(self):
        config = IngressConfig(
            executor="process", policy=ShedPolicy.ADAPTIVE
        )
        assert config.adaptive == AdaptiveConfig()


class TestLadderDeterminism:
    """Ladder state and escalations are part of the byte-identity
    contract: same trace, any executor, any lane layout."""

    @pytest.fixture(scope="class")
    def reference(self, ddos_trace):
        return _ladder_replay(ddos_trace, "serial")

    def test_the_ladder_actually_fired(self, reference):
        state = reference.ladder
        assert state is not None and state["ips"]
        assert state["transitions"]
        stages = {record["stage"] for record in state["ips"].values()}
        assert "block" in stages  # zombies climbed the whole ladder
        assert reference.stats.throttled > 0
        assert reference.stats.challenged > 0
        assert reference.stats.ladder_blocked > 0

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("shards", [1, SHARDS])
    def test_ladder_state_byte_identical(
        self, ddos_trace, reference, executor, shards
    ):
        if shards == 1 and executor == "serial":
            return  # the reference itself
        result = _ladder_replay(ddos_trace, executor, shards=shards)
        assert json.dumps(result.ladder, sort_keys=True) == json.dumps(
            reference.ladder, sort_keys=True
        )
        # Enforcement counters ride the same contract.
        assert result.stats.throttled == reference.stats.throttled
        assert result.stats.challenged == reference.stats.challenged
        assert result.stats.ladder_blocked == reference.stats.ladder_blocked

    @pytest.mark.parametrize("shards", [1, SHARDS])
    def test_process_lanes_count_the_serial_ladder_series(
        self, ddos_trace, shards
    ):
        # Each lane child counts into the registry that crossed with its
        # shard; merged back, the series are the serial run's.
        def series(result):
            return sorted(
                (point.name, point.labels, point.value)
                for point in result.metrics.deterministic().points
                if point.name.startswith("repro_ladder_")
            )

        serial = series(_ladder_replay(ddos_trace, "serial", shards=shards))
        assert any(value for _, _, value in serial)
        assert series(
            _ladder_replay(ddos_trace, "process", shards=shards)
        ) == serial

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_stream_scoring_builds_no_matrix(
        self, ddos_trace, reference, executor, monkeypatch
    ):
        # Flushes and ladder checkpoints score one row at a time
        # (``score_row``); the matrix scorer is for datasets.  With it
        # refusing every call (fork-started lane children inherit the
        # patch), the replay must still finish with the same verdicts
        # and the same ladder as the unpatched reference.
        def refuse(model, x):
            raise AssertionError("the stream path scored a matrix")

        monkeypatch.setattr(AdaBoostModel, "score", refuse)
        result = _ladder_replay(ddos_trace, executor)
        assert reference.ml_verdicts
        assert result.ml_verdicts == reference.ml_verdicts
        assert json.dumps(result.ladder, sort_keys=True) == json.dumps(
            reference.ladder, sort_keys=True
        )

    def test_only_robots_reach_block(self, reference):
        labels_by_ip: dict[str, set] = {}
        for session in reference.sessions:
            labels_by_ip.setdefault(session.key.client_ip, set()).add(
                session.true_label
            )
        for ip, record in reference.ladder["ips"].items():
            if record["stage"] == "block" or record["blocked"]:
                assert labels_by_ip.get(ip, set()) <= {"robot"}, (
                    f"human client {ip} was hard-blocked"
                )

    def test_ladder_metrics_are_deterministic_domain(self, reference):
        points = {
            p.name for p in reference.metrics.deterministic().points
        }
        assert "repro_ladder_verdicts_total" in points
        assert "repro_ladder_gated_total" in points
        assert "repro_ladder_transitions_total" in points

    def test_enforcement_never_reaches_detection(self, reference, ddos_trace):
        records, _probes = ddos_trace
        gated = (
            reference.stats.throttled
            + reference.stats.challenged
            + reference.stats.ladder_blocked
        )
        assert gated > 0
        # Gated requests are answered at the front door; the handled
        # total still covers every replayed request.
        assert reference.requests_replayed == len(records)


class TestAdmissionConservation:
    """Arrivals = queued + shed on every combination.

    An arrival is a request or a journalled page: the replay admits a
    page's journal lines as one event (``journal_pages``), and loads
    every line of it.
    """

    MATRIX = [
        ("serial", "block", None),
        ("process", "block", 8),
        ("process", "shed", 2),
        ("process", "adaptive", 16),
    ]

    @pytest.mark.parametrize("executor,policy,depth", MATRIX)
    def test_arrivals_always_balance(
        self, ddos_trace, executor, policy, depth
    ):
        records, probes = ddos_trace
        result = _replay(
            ddos_trace,
            executor=executor,
            queue_depth=depth,
            policy=ShedPolicy(policy),
            adaptive=AdaptiveConfig() if policy == "adaptive" else None,
        )
        stats = result.stats
        pages = len(journal_pages(probes))
        assert stats.queued + stats.shed == len(records) + pages
        assert result.requests_replayed + pages == stats.queued
        # Probe-journal key material is never shed by any policy.
        assert result.probes_loaded == len(probes)
        if policy == "adaptive":
            report = result.overload
            assert report is not None
            assert report.shed <= stats.shed
            for reason in report.reasons:
                assert reason in ("fairness", "delay_budget")
        else:
            assert result.overload is None

    def test_adaptive_admits_everything_when_nothing_is_overloaded(
        self, ddos_trace
    ):
        # Regression: the process executor reported its backlog as
        # ``chunks in the pipe x chunk_size``, and every journal line
        # rides a one-event chunk — so a lane that had been handed a few
        # dozen events claimed 4,096 queued, more than it had ever been
        # sent; ``delivered`` clamped to 0, the drain rate read as
        # collapsed, the predictor answered its 3,600 s cap and the
        # controller shed hundreds of requests of a replay that was
        # never behind.  The budget is generous so that a child slow to
        # start on a busy machine cannot read as overload either.
        records, probes = ddos_trace
        result = _replay(
            ddos_trace,
            executor="process",
            queue_depth=4096,
            policy=ShedPolicy.ADAPTIVE,
            adaptive=AdaptiveConfig(delay_budget=30.0),
        )
        assert result.overload.shed == 0
        assert result.stats.shed == 0
        assert result.requests_replayed == len(records)
        assert result.stats.queued == len(records) + len(
            journal_pages(probes)
        )

    def test_process_chunk_granularity_shedding_is_counted(self):
        # The process executor sheds whole IPC chunks when a lane's
        # inbox refuses them; the accounting must still balance to the
        # event.
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=1,
            instrument_enabled=False,
        )
        config = IngressConfig(
            executor="process",
            queue_depth=1,
            policy=ShedPolicy.SHED,
            chunk_size=4,
        )
        pipeline = IngressPipeline(
            network, [_SnailWorker(0, delay=0.005)], config
        )
        try:
            submitted = 0
            for index in range(256):
                pipeline.submit(("event", index), "10.0.0.1")
                submitted += 1
        finally:
            result = pipeline.close()
        assert result.queued + result.shed == submitted
        assert result.shed > 0  # the snail could not keep up
        assert result.handled == result.queued


class _SnailWorker:
    """A lane worker that is deliberately too slow for its arrivals."""

    def __init__(self, lane: int, delay: float) -> None:
        self.lane = lane
        self.delay = delay
        self.handled = 0

    def process(self, event) -> None:
        time.sleep(self.delay)
        self.handled += 1

    def finish(self):
        from repro.ingress.workers import LaneResult

        return LaneResult(
            lane=self.lane, stats=NodeStats(), handled=self.handled
        )


def _simulate(
    *,
    adaptive: AdaptiveConfig | None,
    arrival_rate: float = 1800.0,
    drain_rate: float = 1000.0,
    queue_depth: int = 2048,
    duration: float = 20.0,
    flood_share: float = 0.5,
    n_legit: int = 40,
):
    """Deterministic discrete-event model of the admission control loop.

    One lane drains at ``drain_rate``; arrivals outpace it.  The
    predicted delay re-estimates every 0.05 simulated seconds (the live
    pipeline's cadence).  ``adaptive=None`` models binary SHED: admit
    until the queue is full, drop the overflow.  A flooding IP sends
    ``flood_share`` of all arrivals; ``n_legit`` distinct clients share
    the rest.
    """
    controller = (
        DelayBudgetController(adaptive, 1) if adaptive else None
    )
    flood_period = max(2, round(1.0 / flood_share))
    queue = 0
    drained = 0.0
    predicted = 0.0
    next_estimate = 0.0
    samples: list[tuple[float, float]] = []
    shed_binary: dict[str, int] = {}
    sent: dict[str, int] = {}
    step = 1.0 / arrival_rate
    arrivals = int(duration * arrival_rate)
    for index in range(arrivals):
        now = index * step
        drained += drain_rate * step
        whole = int(drained)
        if whole:
            queue = max(0, queue - whole)
            drained -= whole
        if now >= next_estimate:
            predicted = queue / drain_rate
            samples.append((now, predicted))
            next_estimate = now + 0.05
        if index % flood_period == 0:
            ip = "10.66.6.6"
        else:
            ip = f"10.0.0.{index % n_legit}"
        sent[ip] = sent.get(ip, 0) + 1
        if controller is not None:
            if controller.admit(0, ip, predicted, now=now):
                queue += 1
        elif queue < queue_depth:
            queue += 1
        else:
            shed_binary[ip] = shed_binary.get(ip, 0) + 1
    warmup = duration * 0.25
    settled = sorted(p for t, p in samples if t >= warmup)
    p99 = settled[min(len(settled) - 1, int(len(settled) * 0.99))]
    report = controller.report() if controller else None
    return p99, report, sent, shed_binary


class TestDelayBudgetControl:
    """The tentpole acceptance numbers, on a deterministic queue model."""

    BUDGET = 0.5

    def test_adaptive_bounds_p99_where_binary_shed_does_not(self):
        adaptive = AdaptiveConfig(
            delay_budget=self.BUDGET,
            ramp_requests=32,
            duty_cycle=4,
            fairness_half_life=2.0,
        )
        adaptive_p99, report, _sent, _ = _simulate(adaptive=adaptive)
        binary_p99, _, _, shed_binary = _simulate(adaptive=None)
        # Binary SHED only refuses once the queue is already full: the
        # steady-state prediction is the whole queue's drain time.
        assert binary_p99 > 3 * self.BUDGET
        assert sum(shed_binary.values()) > 0
        # The controller sheds at the front door instead and keeps the
        # p99 prediction at the budget.  The crossing sample that
        # *starts* each episode necessarily exceeds it (hysteresis can
        # only react to the estimate it is handed), so "within budget"
        # carries one re-estimate interval's worth of arrivals as
        # slack: 0.05 s x the arrival surplus, ~8% of queue here.
        assert adaptive_p99 <= self.BUDGET * 1.1
        assert report.shed > 0
        assert report.admitted + report.shed == sum(_sent.values())

    def test_flooder_absorbs_the_drops(self):
        adaptive = AdaptiveConfig(
            delay_budget=self.BUDGET,
            ramp_requests=32,
            duty_cycle=4,
            fairness_half_life=2.0,
        )
        _p99, report, sent, _ = _simulate(
            adaptive=adaptive, flood_share=0.5, n_legit=40
        )
        flooder = "10.66.6.6"
        legit_ips = [ip for ip in sent if ip != flooder]
        flood_fraction = report.shed_fraction(flooder)
        legit_fractions = [report.shed_fraction(ip) for ip in legit_ips]
        assert report.reasons.get("fairness", 0) > 0
        assert flood_fraction > 0.3
        # Every legitimate client is shed strictly less than the
        # flooder; on average they barely notice the overload.
        assert all(f < flood_fraction for f in legit_fractions)
        assert sum(legit_fractions) / len(legit_fractions) < (
            flood_fraction / 4
        )

    def test_no_overload_means_no_shedding(self):
        adaptive = AdaptiveConfig(delay_budget=self.BUDGET)
        _p99, report, sent, _ = _simulate(
            adaptive=adaptive, arrival_rate=500.0, duration=5.0
        )
        assert report.shed == 0
        assert report.admitted == sum(sent.values())


@pytest.mark.slow
class TestSlowLaneEndToEnd:
    """The same comparison against a real process-lane pipeline."""

    BUDGET = 0.25
    DEPTH = 512
    EVENTS = 2400

    def _drive(self, policy: ShedPolicy, adaptive=None):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=1,
            instrument_enabled=False,
        )
        # chunk_size=1: the controller reads the backlog in events, so
        # the pipe must count in events too.
        config = IngressConfig(
            executor="process",
            queue_depth=self.DEPTH,
            chunk_size=1,
            policy=policy,
            adaptive=adaptive,
        )
        worker = _SnailWorker(0, delay=0.002)
        pipeline = IngressPipeline(network, [worker], config)
        samples = []
        try:
            for index in range(self.EVENTS):
                pipeline.tick(float(index))
                pipeline.submit(("event", index), f"10.0.{index % 24}.1")
                samples.append(pipeline.queue_delays().get(0, 0.0))
                time.sleep(0.0005)
        finally:
            result = pipeline.close()
        return result, samples

    def test_adaptive_tracks_budget_binary_shed_saturates(self):
        adaptive = AdaptiveConfig(
            delay_budget=self.BUDGET,
            ramp_requests=64,
            duty_cycle=4,
            fairness_half_life=1.0,
        )
        shed_result, shed_samples = self._drive(ShedPolicy.SHED)
        ada_result, ada_samples = self._drive(
            ShedPolicy.ADAPTIVE, adaptive=adaptive
        )

        def p99(samples):
            tail = sorted(samples[len(samples) // 4 :])
            return tail[min(len(tail) - 1, int(len(tail) * 0.99))]

        # Both runs were genuinely overloaded...
        assert shed_result.shed > 0
        assert ada_result.overload.shed > 0
        # ...binary shedding let the queue (and its predicted delay)
        # saturate, adaptive kept it a healthy factor lower.
        assert p99(shed_samples) > self.BUDGET
        assert p99(ada_samples) < p99(shed_samples) / 2
        # Accounting still balances to the event on the wall clock.
        for result in (shed_result, ada_result):
            assert result.queued + result.shed == self.EVENTS
            assert result.handled == result.queued


class TestPredictionFreshness:
    """Satellite (d): a drained lane must publish a zero prediction."""

    GAUGE = "repro_ingress_queue_delay_predicted_seconds"

    def _pipeline(self, **config_kwargs):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=1,
            instrument_enabled=False,
        )
        config = IngressConfig(
            executor="process", queue_depth=8, **config_kwargs
        )
        return IngressPipeline(network, [_SnailWorker(0, 0.0)], config)

    def test_flight_frames_zero_a_drained_lane(self):
        pipeline = self._pipeline(flight_interval=10.0)
        try:
            pipeline.tick(0.0)
            # Regression shape: a sample published a backlog (1,500
            # events at the seeded 5 ms each), the lane then fully
            # drained between ticks, and no re-sample happened before
            # the next frame.
            pipeline._publish_backlogs([1500])
            assert pipeline.queue_delays()[0] == pytest.approx(7.5)
            pipeline.tick(25.0)
            frame = pipeline._flight.frames[-1]
            assert (
                frame.metrics.get(self.GAUGE, {"lane": "0"}).value == 0.0
            )
            assert pipeline.queue_delays()[0] == 0.0
        finally:
            pipeline.close()

    def test_final_snapshot_never_reports_a_stale_delay(self):
        pipeline = self._pipeline()
        pipeline._publish_backlogs([1500])
        result = pipeline.close()
        assert (
            result.metrics.get(self.GAUGE, {"lane": "0"}).value == 0.0
        )


class TestSerialTick:
    """Inline lanes never queue: tick() has no delay to estimate."""

    def test_serial_tick_reads_no_clock_and_predicts_nothing(
        self, monkeypatch
    ):
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=2,
            instrument_enabled=False,
        )
        pipeline = IngressPipeline(
            network,
            [_SnailWorker(lane, 0.0) for lane in range(2)],
            IngressConfig(executor="serial"),
        )

        def no_clock():
            raise AssertionError("a serial tick read the clock")

        with monkeypatch.context() as patch:
            patch.setattr(time, "monotonic", no_clock)
            for index in range(64):
                pipeline.tick(float(index))
                assert pipeline.submit(("event", index), f"10.0.0.{index}")
        result = pipeline.close()
        assert result.handled == 64
        assert not result.metrics.series(
            "repro_ingress_queue_delay_predicted_seconds"
        )
        assert set(pipeline.queue_delays().values()) == {0.0}
