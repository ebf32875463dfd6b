"""The four workloads: who sends what, to which deployment, and why.

Each live workload is a population of the repo's own agent classes, a
per-session request cap and a ``ServeConfig``; the offline one is a
recorded access log plus the replay configuration.  The population and
every agent's walk are derived from the run's ``--seed`` and from nothing
else, so one seed always yields one script.

The reasons each workload exists are in ``README.md`` (and, in one line
each, in ``BENCHMARK.json``); this file only builds them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter
from typing import Callable

import numpy as np

from repro.agents.base import Agent
from repro.agents.population import PopulationMix
from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.features import N_ATTRIBUTES
from repro.overload.ladder import LadderConfig
from repro.proxy.network import ProxyNetwork
from repro.serve.server import DetectorServer, ServeConfig
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.trace.recorder import record_workload
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import CODEEN_WEEK

#: The site is part of the deployment, not of the offered load: it is the
#: same 400 pages on every seed.  Every session enters through its home
#: page, so whether that one page happens to link a CGI endpoint decides
#: what a tenth of the population does next — a draw no number of sessions
#: averages out.  ``--seed`` samples the population and every agent's walk.
SITE_PAGES = 400
SITE_SEED = 7
N_NODES = 2
#: Rounds and training-matrix shape of the model the offline replay
#: scores with; fitting it is the largest part of that workload's
#: ``setup_s``.
MODEL_ROUNDS = 200
MODEL_SAMPLES = 1000


class StratifiedMix(PopulationMix):
    """A mix that hands out exactly each component's share of the sessions.

    Plain weighted sampling lets the census drift from seed to seed — 2 to
    8 flooding zombies among 100 robot sessions — and with it every
    metric.  Here the census is the design fractions (largest remainder)
    on every seed; which agent of a kind is drawn, its identity and its
    walk still come from the seed.
    """

    def sample_many(self, rng: RngStream, entry_url: str, count: int):
        exact = {spec.name: self.fraction(spec.name) * count for spec in self.specs}
        quotas = {kind: int(share) for kind, share in exact.items()}
        by_remainder = sorted(
            exact, key=lambda kind: exact[kind] - quotas[kind], reverse=True
        )
        for kind in by_remainder[: count - sum(quotas.values())]:
            quotas[kind] += 1
        # Draw more than needed and keep, in draw order, the first of each
        # kind up to its quota; draw again, larger, if a rare kind ran short.
        draw = count
        while True:
            draw *= 4
            left = dict(quotas)
            chosen = []
            for agent in super().sample_many(
                rng.split(f"draw-{draw}"), entry_url, draw
            ):
                if left[agent.kind] > 0:
                    left[agent.kind] -= 1
                    chosen.append(agent)
            if len(chosen) == count:
                return chosen


def _mix(name: str, weights: dict[str, float]) -> StratifiedMix:
    """``CODEEN_WEEK`` components under the given weights."""
    specs = {spec.name: spec for spec in CODEEN_WEEK.specs}
    return StratifiedMix(
        name,
        [replace(specs[kind], weight=weight) for kind, weight in weights.items()],
    )


_CODEEN_WEEK = StratifiedMix("e2e_codeen_week", CODEEN_WEEK.specs)


@dataclass(frozen=True)
class LiveWorkload:
    """Scripted traffic through ``DetectorServer`` over loopback TCP."""

    name: str
    mix: PopulationMix
    sessions: int
    #: Requests after which a session's script is cut.
    max_requests: int
    serve_config: Callable[[], ServeConfig] = ServeConfig


@dataclass(frozen=True)
class ReplayWorkload:
    """A recorded access log replayed through ``TraceReplayEngine``."""

    name: str
    mix: PopulationMix
    sessions: int


WORKLOADS: dict[str, LiveWorkload | ReplayWorkload] = {
    w.name: w
    for w in (
        LiveWorkload(
            "live_browse",
            _mix(
                "e2e_browse",
                {
                    "human_js": 70.0,
                    "human_nojs": 10.0,
                    "offline_browser": 5.0,
                    "engine_bot": 15.0,
                },
            ),
            sessions=30,
            max_requests=500,
        ),
        LiveWorkload(
            "live_abuse",
            _mix(
                "e2e_abuse",
                {
                    "crawler_hidden": 1.0,
                    "crawler": 19.0,
                    "email_harvester": 12.0,
                    "referrer_spammer": 18.5,
                    "click_fraud": 20.0,
                    "vuln_scanner": 6.0,
                    "ddos_zombie": 3.3,
                },
            ),
            sessions=60,
            max_requests=500,
            serve_config=lambda: ServeConfig(
                policy="adaptive", ladder=LadderConfig()
            ),
        ),
        LiveWorkload(
            "live_churn", _CODEEN_WEEK, sessions=700, max_requests=3
        ),
        ReplayWorkload(
            "replay_offline",
            _mix(
                "e2e_replay",
                {
                    **{spec.name: spec.weight for spec in CODEEN_WEEK.specs},
                    "human_js": 80.0,
                },
            ),
            sessions=60,
        ),
    )
}


def generate_site():
    return SiteGenerator(SiteConfig(n_pages=SITE_PAGES)).generate(
        RngStream(SITE_SEED, "e2e-site")
    )


# -- live deployments --------------------------------------------------------


@dataclass
class LiveDeployment:
    """One freshly built site + proxy network + front door."""

    network: ProxyNetwork
    server: DetectorServer
    entry_url: str
    #: Wall seconds of each construction step, in build order.
    build_seconds: dict[str, float]


async def build_live(workload: LiveWorkload, seed: int) -> LiveDeployment:
    """Build and start the deployment under test (this is ``setup_s``)."""
    rng = RngStream(seed, "e2e-deployment")
    t0 = perf_counter()
    website = generate_site()
    t1 = perf_counter()
    network = ProxyNetwork(
        origins={website.host: OriginServer(website)},
        rng=rng.split("proxies"),
        n_nodes=N_NODES,
    )
    t2 = perf_counter()
    server = DetectorServer(
        network, default_host=website.host, config=workload.serve_config()
    )
    await server.start()
    t3 = perf_counter()
    return LiveDeployment(
        network=network,
        server=server,
        entry_url=f"http://{website.host}{website.home_path}",
        build_seconds={
            "site.generate": t1 - t0,
            "proxy.build": t2 - t1,
            "serve.start": t3 - t2,
        },
    )


def sample_agents(
    workload: LiveWorkload, seed: int, entry_url: str, sessions: int
) -> list[Agent]:
    return workload.mix.sample_many(
        RngStream(seed, "e2e-agents"), entry_url, sessions
    )


# -- the offline replay ------------------------------------------------------


@dataclass
class RecordedTrace:
    """What recording the offline workload left behind."""

    trace_path: str
    probes_path: str
    lines: int
    kind_census: dict[str, int]
    summary: object


def record_trace(
    workload: ReplayWorkload,
    seed: int,
    sessions: int,
    trace_path: str,
    probes_path: str,
) -> RecordedTrace:
    """Run the population in-process once and export its access log."""
    rng = RngStream(seed, "e2e-record")
    website = generate_site()
    network = ProxyNetwork(
        origins={website.host: OriginServer(website)},
        rng=rng.split("proxies"),
        n_nodes=N_NODES,
    )
    engine = WorkloadEngine(
        network,
        workload.mix,
        f"http://{website.host}{website.home_path}",
        rng.split("workload"),
        # CAPTCHA outcomes leave no log footprint, so a trace meant for
        # round-trip comparison is recorded without them.
        WorkloadConfig(
            n_sessions=sessions, mode="interleaved", captcha_enabled=False
        ),
    )
    result, recorder = record_workload(engine, trace_path, probes_path)
    return RecordedTrace(
        trace_path=trace_path,
        probes_path=probes_path,
        lines=len(recorder.records),
        kind_census=result.kind_census(),
        summary=result.summary,
    )


@dataclass
class ReplayDeployment:
    engine: TraceReplayEngine
    network: ProxyNetwork
    build_seconds: dict[str, float]


def build_replay(seed: int) -> ReplayDeployment:
    """Build the analyst's deployment: network, fitted model, engine."""
    t0 = perf_counter()
    network = ProxyNetwork(
        origins={},
        rng=RngStream(seed, "e2e-replay"),
        n_nodes=N_NODES,
        instrument_enabled=False,
    )
    t1 = perf_counter()
    generator = np.random.default_rng(seed)
    x = generator.random((MODEL_SAMPLES, N_ATTRIBUTES))
    # Labels follow two attributes plus noise so that boosting keeps
    # finding useful stumps for all its rounds.
    y = np.where(
        x[:, 0] + 0.5 * x[:, 3] + 0.2 * generator.standard_normal(MODEL_SAMPLES)
        > 0.75,
        1.0,
        -1.0,
    )
    model = AdaBoostClassifier(MODEL_ROUNDS).fit(x, y)
    t2 = perf_counter()
    model.compile()
    t3 = perf_counter()
    engine = TraceReplayEngine(
        network,
        ReplayConfig(
            assume_sorted=True,
            executor="serial",
            queue_depth=1024,
            shards=4,
            scorer_model=model,
        ),
    )
    t4 = perf_counter()
    return ReplayDeployment(
        engine=engine,
        network=network,
        build_seconds={
            "proxy.build": (t1 - t0) + (t4 - t3),
            "ml.fit": t2 - t1,
            "ml.compile": t3 - t2,
        },
    )
