"""The workload engine: replay a population through a proxy network.

Sessions are sampled from a mix, given start times by an
:class:`~repro.trace.arrival.ArrivalProfile`, and admitted to the
ingress pipeline (:mod:`repro.ingress`): each session is routed by its
client IP's sticky node onto that node's lane, and the lane's
:class:`~repro.ingress.workers.WorkloadLaneWorker` coroutine-steps its
sessions by next-event time
(:class:`~repro.trace.interleave.InterleavedScheduler`), so every node
handles its clients' requests in timestamp order — the only order any
state depends on, because all of it is keyed on the ``<IP, User-Agent>``
session at the node serving the client.

The lanes attach ground-truth labels to the tracker's session state —
evaluation metadata the detectors never read — run the optional CAPTCHA
funnel, and sweep :meth:`ProxyNode.housekeeping` periodically on their
own event clocks, so idle-session rotation and probe-table expiry
actually happen during the run rather than only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.agents.base import SessionBudget
from repro.agents.population import PopulationMix
from repro.captcha.service import CaptchaConfig, CaptchaService
from repro.ml.dataset import Dataset
from repro.obs.spans import SpanConfig
from repro.proxy.network import ProxyNetwork
from repro.trace.arrival import ArrivalProfile, UniformArrival
from repro.util.rng import RngStream
from repro.util.timeutil import WEEK
from repro.workload.results import (
    SessionCensus,
    WorkloadResult,
    apply_session_identities,
    session_identities,
)

__all__ = [
    "SessionCensus",
    "WorkloadConfig",
    "WorkloadEngine",
    "WorkloadResult",
]

_MODES = ("interleaved", "pipelined")


@dataclass(frozen=True)
class WorkloadConfig:
    """Size and options of one workload replay.

    ``housekeeping_interval`` is the virtual-seconds period between
    housekeeping sweeps (0 disables them); ``arrival`` shapes session
    start times.  ``shards`` > 0 hash-partitions each node's detection
    state into that many shards before traffic starts (0 keeps the
    network as built); shard count never changes results, only the
    scaling architecture.

    Sessions are routed by their client IP's sticky node to that node's
    lane and every lane drives its own sessions in event-time order.
    ``mode`` says where the lanes run: ``"interleaved"`` (the default)
    inline, ``"pipelined"`` on ``executor`` — ``serial`` (inline again)
    or ``process``, one child process per lane behind a pipe bounded at
    ``queue_depth`` events (None = unbounded).  Census, summary and
    verdicts are identical either way; ``shed`` / ``adaptive`` need
    pipelined process lanes, the only ones with a backlog.  Which
    combinations make sense is :class:`IngressConfig`'s call: one is
    built (and so checked) at construction.
    """

    n_sessions: int = 1000
    duration: float = WEEK
    collect_features: bool = False
    captcha_enabled: bool = True
    captcha: CaptchaConfig = field(default_factory=CaptchaConfig)
    budget: SessionBudget = field(default_factory=SessionBudget)
    mode: str = "interleaved"
    arrival: ArrivalProfile = field(default_factory=UniformArrival)
    housekeeping_interval: float = 600.0
    shards: int = 0
    executor: str = "serial"
    queue_depth: int | None = None
    #: Shed (and count) whole sessions instead of blocking when a lane's
    #: pipe is full.  Needs a bounded queue on process lanes.
    shed: bool = False
    #: Delay-budget admission with per-IP fairness
    #: (``ShedPolicy.ADAPTIVE``); an :class:`AdaptiveConfig` or None.
    adaptive: object | None = None
    #: Lane granularity: 1 = one lane per node; the detection shard
    #: count = one lane per :class:`~repro.proxy.node.NodeShard`.
    lanes_per_node: int = 1
    #: Virtual-time flight-recorder sampling interval (None = off).
    flight_interval: float | None = None
    #: Tail-sampling budgets for causal span tracing (None = off); one
    #: tracer per lane.
    spans: SpanConfig | None = None

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.mode == "sequential":
            raise ValueError(
                "mode='sequential' is gone: use mode='interleaved' (the "
                "default), which returns the same per-session results "
                "and honours non-uniform arrival profiles"
            )
        if self.mode not in _MODES:
            raise ValueError(
                f"mode must be one of {_MODES}, got {self.mode!r}"
            )
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        self.ingress()

    def ingress(self):
        """The admission-and-dispatch half of these parameters."""
        # Deferred import: the ingress package reaches back into
        # workload machinery (session records, the scheduler).
        from repro.ingress.pipeline import IngressConfig, shed_policy

        config = IngressConfig(
            executor=self.executor,
            queue_depth=self.queue_depth,
            policy=shed_policy(self.shed, self.adaptive),
            adaptive=self.adaptive,
            housekeeping_interval=self.housekeeping_interval,
            lanes_per_node=self.lanes_per_node,
            flight_interval=self.flight_interval,
            spans=self.spans,
        )
        if self.mode == "pipelined":
            return config
        # "interleaved" keeps the lanes inline, whatever ``executor``
        # names (replace() re-checks the combination).
        return replace(config, executor="serial")


class WorkloadEngine:
    """Drives a mix through a network and collects every measurement."""

    def __init__(
        self,
        network: ProxyNetwork,
        mix: PopulationMix,
        entry_url: str,
        rng: RngStream,
        config: WorkloadConfig | None = None,
    ) -> None:
        self._network = network
        self._mix = mix
        self._entry_url = entry_url
        self._rng = rng
        self._config = config or WorkloadConfig()

    @property
    def network(self) -> ProxyNetwork:
        """The proxy network this engine drives (tap point for recording)."""
        return self._network

    @property
    def config(self) -> WorkloadConfig:
        """The replay parameters."""
        return self._config

    def run(self) -> WorkloadResult:
        """Replay the whole workload and reduce the results.

        Sessions are admitted through the ingress; lanes drive their
        own.  Ground-truth annotation and the CAPTCHA funnel run inside
        the lane workers (per-IP RNG splits make the outcomes
        independent of the lane layout), so the result is assembled
        purely from the merged lane outputs — which is what lets the
        ``process`` executor run each node in a separate interpreter.
        """
        # Deferred import: see WorkloadConfig.ingress().
        from repro.ingress.pipeline import IngressPipeline
        from repro.ingress.workers import SESSION_EVENT, WorkloadLaneWorker

        cfg = self._config
        if cfg.shards:
            self._network.shard_detection(cfg.shards)
        agents = self._mix.sample_many(
            self._rng.split("population"), self._entry_url, cfg.n_sessions
        )
        starts = cfg.arrival.sample(
            self._rng.split("starts"), len(agents), cfg.duration
        )
        captcha_rng = self._rng.split("captcha")
        workers = []
        for node in self._network.nodes:
            for state in node.lane_states(cfg.lanes_per_node):
                workers.append(
                    WorkloadLaneWorker(
                        len(workers),
                        state,
                        budget=cfg.budget,
                        collect_features=cfg.collect_features,
                        housekeeping_interval=cfg.housekeeping_interval,
                        captcha_enabled=cfg.captcha_enabled,
                        captcha_config=cfg.captcha,
                        captcha_rng=captcha_rng,
                        taps=self._network.taps,
                        flight_interval=cfg.flight_interval,
                        spans=cfg.spans,
                    )
                )
        pipeline = IngressPipeline(self._network, workers, cfg.ingress())
        for index, (agent, start) in enumerate(zip(agents, starts)):
            pipeline.tick(start)
            pipeline.submit(
                (SESSION_EVENT, index, agent, start), agent.client_ip
            )
        ingress = pipeline.close()

        # Submission order, whichever lane ran a session: records, and
        # with them the dataset's examples, come back as they went in.
        records = [
            record
            for _index, record in sorted(
                (pair for lane in ingress.lanes for pair in lane.records or ()),
                key=lambda pair: pair[0],
            )
        ]
        examples = [
            record.example for record in records if record.example is not None
        ]
        captcha = CaptchaService(cfg.captcha)
        for lane in ingress.lanes:
            if lane.captcha_stats is not None:
                captcha.stats.absorb(lane.captcha_stats)

        sessions = ingress.sessions
        # Backfill sessions that idle-rotated before their live
        # annotation pass could label them.
        apply_session_identities(sessions, session_identities(records))
        return WorkloadResult(
            records=records,
            sessions=sessions,
            summary=ingress.session_sets().summary(),
            stats=ingress.stats,
            latencies=ingress.latencies,
            dataset=Dataset(examples=examples),
            captcha=captcha,
            metrics=ingress.metrics,
            flight=ingress.flight,
            spans=ingress.spans,
            overload=ingress.overload,
        )
