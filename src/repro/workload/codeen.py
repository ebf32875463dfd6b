"""The CoDeeN-week experiment: Table 1 and the §3.1 headline numbers.

One call builds the whole deployment — synthetic site, origin server,
multi-node proxy network with instrumentation and detection — replays a
scaled week of the ``CODEEN_WEEK`` population through it, and reduces the
result to the Table 1 census, the human-fraction bounds, the CAPTCHA
cross-check (what fraction of CAPTCHA passers ran JavaScript / fetched
CSS) and the Figure 2 latency samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.agents.population import PopulationMix
from repro.detection.session import DetectionLatency, SessionState
from repro.detection.set_algebra import SetAlgebraSummary
from repro.instrument.rewriter import InstrumentConfig
from repro.proxy.network import ProxyNetwork
from repro.proxy.node import NodeStats
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.util.rng import RngStream
from repro.util.timeutil import WEEK
from repro.workload.engine import WorkloadConfig, WorkloadEngine, WorkloadResult
from repro.workload.mixes import CODEEN_WEEK

#: The paper observed 929,922 sessions in one week; full scale is slow in
#: a simulator, so experiments default to a fraction and report both.
PAPER_TOTAL_SESSIONS = 929_922


@dataclass(frozen=True)
class CodeenWeekConfig:
    """Experiment parameters."""

    n_sessions: int = 3000
    n_nodes: int = 4
    seed: int = 2006
    duration: float = WEEK
    site: SiteConfig = field(default_factory=SiteConfig)
    instrument: InstrumentConfig = field(default_factory=InstrumentConfig)
    collect_features: bool = False
    #: Virtual-time flight-recorder sampling interval (None = off);
    #: forwarded to the workload engine so experiment CLI runs can
    #: archive overload timelines next to their metrics snapshot.
    flight_interval: float | None = None

    def __post_init__(self) -> None:
        if self.n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.flight_interval is not None and self.flight_interval <= 0:
            raise ValueError(
                "flight_interval must be positive (or None to disable)"
            )


@dataclass
class CaptchaCrossCheck:
    """§3.1: behaviour of CAPTCHA passers (95.8% ran JS, 99.2% got CSS)."""

    passers: int
    passers_with_js: int
    passers_with_css: int

    @property
    def js_fraction(self) -> float:
        """Fraction of passers that executed JavaScript."""
        return self.passers_with_js / self.passers if self.passers else 0.0

    @property
    def css_fraction(self) -> float:
        """Fraction of passers that fetched the beacon CSS."""
        return self.passers_with_css / self.passers if self.passers else 0.0

    @property
    def js_disabled_fraction(self) -> float:
        """The paper's 3.4%: passers who fetched CSS but never ran JS."""
        return max(0.0, self.css_fraction - self.js_fraction)


@dataclass
class CodeenWeekResult:
    """Everything the Table 1 experiment reports."""

    config: CodeenWeekConfig
    summary: SetAlgebraSummary
    stats: NodeStats
    latencies: list[DetectionLatency]
    sessions: list[SessionState]
    captcha_check: CaptchaCrossCheck
    workload: WorkloadResult

    @property
    def scale(self) -> float:
        """Fraction of the paper's session count this run used."""
        return self.config.n_sessions / PAPER_TOTAL_SESSIONS


class CodeenWeekExperiment:
    """Builds and runs the full §3 deployment."""

    def __init__(
        self,
        config: CodeenWeekConfig | None = None,
        mix: PopulationMix | None = None,
    ) -> None:
        self._config = config or CodeenWeekConfig()
        self._mix = mix or CODEEN_WEEK

    @property
    def config(self) -> CodeenWeekConfig:
        """The experiment parameters."""
        return self._config

    def build_network(self, rng: RngStream) -> tuple[ProxyNetwork, str]:
        """Construct the site, origin and proxy network."""
        cfg = self._config
        website = SiteGenerator(cfg.site).generate(rng.split("site"))
        origin = OriginServer(website)
        network = ProxyNetwork(
            origins={website.host: origin},
            rng=rng.split("proxies"),
            n_nodes=cfg.n_nodes,
            instrument_config=cfg.instrument,
        )
        entry_url = f"http://{website.host}{website.home_path}"
        return network, entry_url

    def run(self) -> CodeenWeekResult:
        """Run the experiment end to end."""
        cfg = self._config
        rng = RngStream(cfg.seed, "codeen-week")
        network, entry_url = self.build_network(rng)
        engine = WorkloadEngine(
            network,
            self._mix,
            entry_url,
            rng.split("workload"),
            WorkloadConfig(
                n_sessions=cfg.n_sessions,
                duration=cfg.duration,
                collect_features=cfg.collect_features,
                flight_interval=cfg.flight_interval,
            ),
        )
        workload = engine.run()
        return CodeenWeekResult(
            config=cfg,
            summary=workload.summary,
            stats=workload.stats,
            latencies=workload.latencies,
            sessions=workload.sessions,
            captcha_check=_cross_check(workload.sessions),
            workload=workload,
        )


def _cross_check(sessions: list[SessionState]) -> CaptchaCrossCheck:
    passers = [s for s in sessions if s.passed_captcha]
    return CaptchaCrossCheck(
        passers=len(passers),
        passers_with_js=sum(1 for s in passers if s.in_js_set),
        passers_with_css=sum(1 for s in passers if s.in_css_set),
    )
