"""repro — a reproduction of "Securing Web Service by Automatic Robot
Detection" (Park, Pai, Lee, Calo; USENIX ATC 2006).

The package implements the paper's two online human/robot classifiers —
JavaScript mouse-activity beacons and standard-browser testing — together
with every substrate they ran on: a CoDeeN-like proxy network, synthetic
origin sites, behavioural client models (browsers and eight robot
families), the CAPTCHA funnel, and the §4.2 AdaBoost study, plus the
experiment harness that regenerates every table and figure and a trace
subsystem (:mod:`repro.trace`) that exports any workload as a Combined
Log Format access log and replays logs — recorded or real — through the
detection pipeline in global timestamp order.  The ingress subsystem
(:mod:`repro.ingress`) puts an explicit admission stage in front of it
all: hash routing onto per-client lanes, micro-batched ensemble
scoring, and lanes that run inline or each in its own process (behind a
bounded pipe with backpressure or counted load shedding) without ever
changing results — only wall-clock.

Quickstart::

    from repro import CodeenWeekExperiment, CodeenWeekConfig

    result = CodeenWeekExperiment(CodeenWeekConfig(n_sessions=500)).run()
    print(result.summary.lower_bound, result.summary.upper_bound)

See README.md (repository root) for the architecture tour and the
``repro record`` / ``repro replay`` command-line usage.
"""

from repro.detection import (
    DetectionService,
    Label,
    OnlineClassifier,
    SessionSets,
    SessionState,
    SessionTracker,
    ShardedDetectionService,
    Verdict,
)
from repro.ingress import (
    IngressConfig,
    IngressPipeline,
    MicroBatchConfig,
    ShedPolicy,
)
from repro.instrument import (
    InstrumentConfig,
    InstrumentationRegistry,
    PageInstrumenter,
)
from repro.ml import (
    ATTRIBUTE_NAMES,
    AdaBoostClassifier,
    BatchScorer,
    FeatureAccumulator,
)
from repro.proxy import ProxyNetwork, ProxyNode
from repro.site import OriginServer, SiteConfig, SiteGenerator
from repro.trace import (
    BurstArrival,
    DiurnalArrival,
    TraceRecord,
    TraceRecorder,
    TraceReplayEngine,
    UniformArrival,
    read_trace,
    record_workload,
    replay_trace,
    write_trace,
)
from repro.util import RngStream
from repro.workload import (
    CODEEN_WEEK,
    CodeenWeekExperiment,
    WorkloadConfig,
    WorkloadEngine,
)
from repro.workload.codeen import CodeenWeekConfig

__version__ = "1.3.0"

__all__ = [
    "ATTRIBUTE_NAMES",
    "AdaBoostClassifier",
    "BatchScorer",
    "BurstArrival",
    "CODEEN_WEEK",
    "CodeenWeekConfig",
    "CodeenWeekExperiment",
    "DetectionService",
    "DiurnalArrival",
    "FeatureAccumulator",
    "IngressConfig",
    "IngressPipeline",
    "InstrumentConfig",
    "InstrumentationRegistry",
    "Label",
    "MicroBatchConfig",
    "OnlineClassifier",
    "OriginServer",
    "PageInstrumenter",
    "ProxyNetwork",
    "ProxyNode",
    "RngStream",
    "ShedPolicy",
    "SessionSets",
    "SessionState",
    "SessionTracker",
    "ShardedDetectionService",
    "SiteConfig",
    "SiteGenerator",
    "TraceRecord",
    "TraceRecorder",
    "TraceReplayEngine",
    "UniformArrival",
    "Verdict",
    "WorkloadConfig",
    "WorkloadEngine",
    "__version__",
    "read_trace",
    "record_workload",
    "replay_trace",
    "write_trace",
]
