"""Streaming trace replay: feed an access log through the detection
pipeline in timestamp order.

This is how BOTracle/BotGraph-style evaluations work — the classifier is
judged on a recorded request log rather than on scripted clients.  The
engine heap-merges any number of trace sources (plus an optional probe
journal) into one time-ordered event stream — a request, or a journalled
page: the journal's consecutive lines of one ``(issued_at, client_ip)``
— and admits every event to the ingress pipeline (:mod:`repro.ingress`):
each is routed by its client IP to the lane that owns that client's
state, and the lane's :class:`~repro.ingress.workers.ReplayLaneWorker`
handles requests, registers each page in one insert and sweeps
housekeeping on its own event clock.  All
detection state is keyed on the ``<IP, User-Agent>`` session at the node
serving the client, so a lane consuming its events in order *is* the
whole computation; ``executor`` only chooses where the lanes run (the
default ``serial`` runs them inline, ``process`` gives each lane its
own interpreter).  The outcome
is reduced to the same census/set-algebra/latency shape the synthetic
engine produces (:class:`~repro.workload.results.SessionCensus`), so
every analysis and reporting consumer works unchanged.

Replay networks should be built with ``instrument_enabled=False``: the
pages were already instrumented when the trace was recorded, and the
probe journal re-creates the original registrations — minting fresh
probes would register keys the recorded clients never fetch.  Origins
are optional; requests with no route are answered 502, which feeds the
per-session status counters but no detection evidence, so a census does
not need the original site at all.

That 502 is not the status the log recorded, and the difference shows
outside the census: a logged 404 is replayed as a 5xx, so a session's
4xx count stays at zero, ``PolicyConfig.error_4xx_limit`` never fires
on a replay (a session the recorded run blocked for its 404s is blocked
later by its CGI rate, or not at all), and the micro-batcher's
response-code attributes read 5xx.  Census and set-algebra summary do
not depend on statuses, which is why they still round-trip.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Union

from repro.detection.session import DetectionLatency, SessionState
from repro.detection.set_algebra import SetAlgebraSummary
from repro.instrument.keys import RegisteredProbe
from repro.ml.batch import BatchVerdict
from repro.obs.flight import FlightFrame
from repro.obs.registry import MetricsSnapshot
from repro.obs.spans import SpanTree
from repro.overload.admission import ShedPolicy
from repro.proxy.network import ProxyNetwork
from repro.proxy.node import NodeStats
from repro.trace.clf import ParseStats, TraceRecord, read_trace
from repro.trace.recorder import read_probe_journal, sorted_journal
from repro.workload.results import SessionCensus, apply_session_identities

if TYPE_CHECKING:  # imported lazily at run time (package-cycle-free)
    from repro.ingress.pipeline import IngressConfig
    from repro.ml.adaboost import AdaBoostModel
    from repro.overload.admission import AdaptiveConfig, OverloadReport
    from repro.overload.ladder import LadderConfig

TraceSource = Union[str, Iterable[TraceRecord]]
ProbeSource = Union[str, Iterable[RegisteredProbe]]

#: Merge priorities: at equal timestamps, a page's probe registrations
#: must land in the table before the fetches they explain.
_PROBE_EVENT = 0
_REQUEST_EVENT = 1


@dataclass(frozen=True)
class ReplayConfig:
    """Replay parameters.

    ``assume_sorted`` skips the per-source sort for logs already in
    timestamp order (the recorder writes sorted files; real access logs
    usually are too) — required for constant-memory streaming.
    ``shards`` > 0 hash-partitions each node's detection state into that
    many shards before the first event (0 keeps the network as built).

    Events stream to per-client lanes run by ``executor``: ``serial``
    handles each inline, ``process`` ships them to one child process per
    lane over a pipe bounded at ``queue_depth`` events (None =
    unbounded).  Results are bit-identical across executors, depths and
    shard counts unless ``policy`` opts into load shedding (SHED, or
    ADAPTIVE tuned by ``adaptive``), which needs the ``process``
    executor — inline lanes have no backlog to shed from.  ``scorer_model`` additionally micro-batches §4.2
    ensemble scoring per lane
    (:class:`~repro.ingress.batcher.MicroBatcher`).
    Which combinations make sense is :class:`IngressConfig`'s call: one
    is built (and so checked) at construction.
    """

    housekeeping_interval: float = 600.0
    assume_sorted: bool = False
    default_host: str | None = None
    strict: bool = False
    shards: int = 0
    executor: str = "serial"
    queue_depth: int | None = None
    #: Admission policy: BLOCK, full-queue SHED, or ADAPTIVE — shed at
    #: the front door when the lane's predicted queue delay exceeds the
    #: budget, with hysteresis and per-IP fairness.
    policy: ShedPolicy = ShedPolicy.BLOCK
    #: ADAPTIVE tuning (defaulted when None); only with that policy.
    adaptive: "AdaptiveConfig | None" = None
    #: Graduated response ladder (throttle -> CAPTCHA -> block) driven
    #: live from micro-batch checkpoint verdicts; needs ``scorer_model``.
    ladder: "LadderConfig | None" = None
    scorer_model: "AdaBoostModel | None" = None
    #: Virtual-time flight-recorder sampling interval (None = off):
    #: every lane and the admission side sample on one absolute grid.
    flight_interval: float | None = None
    #: Per-lane trace budget for causal span tracing (None = off); one
    #: tracer per lane.
    spans: int | None = None

    def __post_init__(self) -> None:
        if self.shards < 0:
            raise ValueError("shards must be non-negative")
        self.ingress()

    def ingress(self) -> "IngressConfig":
        """The admission-and-dispatch half of these parameters."""
        # Deferred import: repro.trace's package init imports this
        # module, and the ingress package imports trace machinery.
        from repro.ingress.pipeline import IngressConfig

        return IngressConfig(
            executor=self.executor,
            queue_depth=self.queue_depth,
            policy=self.policy,
            housekeeping_interval=self.housekeeping_interval,
            scorer_model=self.scorer_model,
            flight_interval=self.flight_interval,
            spans=self.spans,
            adaptive=self.adaptive,
            ladder=self.ladder,
        )


@dataclass
class ReplayResult(SessionCensus):
    """Everything one trace replay produced (census-compatible)."""

    sessions: list[SessionState]
    summary: SetAlgebraSummary
    stats: NodeStats
    latencies: list[DetectionLatency]
    requests_replayed: int = 0
    probes_loaded: int = 0
    first_timestamp: float = 0.0
    last_timestamp: float = 0.0
    #: Micro-batched ensemble verdicts, when the replay ran with a
    #: scorer model attached (empty otherwise).
    ml_verdicts: list[BatchVerdict] = field(default_factory=list)
    #: Trace-file and probe-journal parse accounting, kept separate so
    #: journal corruption is never misreported as access-log damage.
    parse_stats: ParseStats = field(default_factory=ParseStats)
    probe_parse_stats: ParseStats = field(default_factory=ParseStats)
    #: Deployment-wide metrics snapshot, and the merged flight-recorder
    #: timeline (empty unless ``flight_interval`` was configured).
    metrics: MetricsSnapshot = field(default_factory=MetricsSnapshot)
    flight: list[FlightFrame] = field(default_factory=list)
    #: Tail-sampled span trees, merged in (lane, seq) order (empty
    #: unless ``spans`` was configured).
    spans: list[SpanTree] = field(default_factory=list)
    #: Network-wide graduated-response ladder state (None unless the
    #: ladder was enabled).
    ladder: dict | None = None
    #: Adaptive admission ledger (None unless ``adaptive`` was set).
    overload: "OverloadReport | None" = None

    @property
    def span(self) -> float:
        """Virtual seconds between the first and last replayed request."""
        return max(0.0, self.last_timestamp - self.first_timestamp)


class TraceReplayEngine:
    """Replays trace records through a proxy network's ingress lanes."""

    def __init__(
        self,
        network: ProxyNetwork,
        config: ReplayConfig | None = None,
    ) -> None:
        self._network = network
        self._config = config or ReplayConfig()

    @property
    def network(self) -> ProxyNetwork:
        """The network being replayed into."""
        return self._network

    def replay(
        self,
        *sources: TraceSource,
        probes: ProbeSource | None = None,
    ) -> ReplayResult:
        """Replay one or more trace sources (paths or record iterables).

        Multiple sources — e.g. one log per front-end node — are merged
        by timestamp on the fly; each individual source must be sorted
        when ``assume_sorted`` is set, and is sorted here otherwise.
        ``probes`` is a journal path, or registrations in memory, which
        are replayed as their journal lines read back
        (:func:`~repro.trace.recorder.sorted_journal`).

        This loop only *admits*; per-lane processing happens on the
        lanes' executor.  A journalled page is admitted as one event with
        ``force`` (key material is never shed) and rides the same lane
        queue as its IP's requests, which preserves the registration-
        before-fetch ordering the probe table depends on.
        """
        # Deferred import: see ReplayConfig.ingress().
        from repro.ingress.pipeline import IngressPipeline, replay_workers
        from repro.ingress.workers import PROBE_EVENT, REQUEST_EVENT

        if not sources:
            raise ValueError("replay needs at least one trace source")
        cfg = self._config
        if cfg.shards:
            self._network.shard_detection(cfg.shards)
        parse_stats = ParseStats()
        probe_parse_stats = ParseStats()

        streams = [
            self._events(
                self._trace_records(src, parse_stats), _REQUEST_EVENT, index
            )
            for index, src in enumerate(sources)
        ]
        if probes is not None:
            streams.append(
                self._events(
                    _pages(self._probe_records(probes, probe_parse_stats)),
                    _PROBE_EVENT,
                    len(streams),
                )
            )

        ingress_config = cfg.ingress()
        pipeline = IngressPipeline(
            self._network,
            replay_workers(self._network, ingress_config),
            ingress_config,
        )

        identities: dict[tuple[str, str], tuple[str, str]] = {}
        for timestamp, priority, _stream, _seq, item in heapq.merge(*streams):
            pipeline.tick(timestamp)
            if priority == _PROBE_EVENT:
                pipeline.submit(
                    (PROBE_EVENT, item), item[0].client_ip, force=True
                )
                continue
            if item.agent_kind or item.true_label:
                identities[(item.client_ip, item.user_agent)] = (
                    item.agent_kind,
                    item.true_label,
                )
            pipeline.submit((REQUEST_EVENT, item), item.client_ip)

        ingress = pipeline.close()
        sessions = ingress.sessions
        apply_session_identities(sessions, identities)
        return ReplayResult(
            sessions=sessions,
            summary=ingress.session_sets().summary(),
            stats=ingress.stats,
            latencies=ingress.latencies,
            requests_replayed=ingress.handled,
            probes_loaded=ingress.probes_loaded,
            first_timestamp=ingress.first_timestamp,
            last_timestamp=ingress.last_timestamp,
            parse_stats=parse_stats,
            probe_parse_stats=probe_parse_stats,
            ml_verdicts=ingress.ml_verdicts,
            metrics=ingress.metrics,
            flight=ingress.flight,
            spans=ingress.spans,
            ladder=ingress.ladder,
            overload=ingress.overload,
        )

    # -- stream plumbing ----------------------------------------------------

    def _trace_records(
        self, source: TraceSource, stats: ParseStats
    ) -> Iterable[TraceRecord]:
        cfg = self._config
        if isinstance(source, str):
            source = read_trace(
                source,
                default_host=cfg.default_host,
                stats=stats,
                strict=cfg.strict,
            )
        if cfg.assume_sorted:
            return source
        return sorted(source, key=lambda r: r.timestamp)

    def _probe_records(
        self, source: ProbeSource, stats: ParseStats
    ) -> Iterable[RegisteredProbe]:
        cfg = self._config
        if not isinstance(source, str):
            # Registrations held in memory (``recorder.probes``) are put
            # in the form a written journal reads back in, so that both
            # replay alike; a source already in that form is unchanged.
            return sorted_journal(source)
        source = read_probe_journal(source, stats=stats, strict=cfg.strict)
        if cfg.assume_sorted:
            return source
        return sorted(source, key=lambda p: p.issued_at)

    @staticmethod
    def _events(items: Iterable, priority: int, stream: int):
        """Wrap records or pages as sortable (time, priority, stream, seq,
        item) events; stream/seq break ties so items are never compared."""
        for seq, item in enumerate(items):
            time = (
                item.timestamp if priority == _REQUEST_EVENT
                else item[0].issued_at
            )
            yield (time, priority, stream, seq, item)


def _pages(
    probes: Iterable[RegisteredProbe],
) -> Iterator[tuple[RegisteredProbe, ...]]:
    """Group consecutive journal lines of one ``(issued_at, client_ip)``.

    Such a run is one page's registrations (the recorder writes a page's
    lines together and sorts stably), and registering it in one insert
    is the same as registering its lines one by one.
    """
    for _key, page in groupby(probes, attrgetter("issued_at", "client_ip")):
        yield tuple(page)


def replay_trace(
    network: ProxyNetwork,
    *sources: TraceSource,
    probes: ProbeSource | None = None,
    config: ReplayConfig | None = None,
) -> ReplayResult:
    """One-call replay: build the engine, merge, replay, reduce."""
    return TraceReplayEngine(network, config).replay(*sources, probes=probes)
