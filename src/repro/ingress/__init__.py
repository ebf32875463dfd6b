"""Ingress subsystem: admission, lane executors, and micro-batched
scoring.

This package is the stage between *arrival* and *shard* that web-scale
detectors (BOTracle, BotGraph) stage explicitly, and the one path both
engines — trace replay and synthetic workloads — drive every run
through:

* :mod:`repro.ingress.executors` — where a lane runs: inline
  (``serial``) or in its own ``process`` behind a bounded pipe, with
  backpressure or counted load shedding (:class:`ShedPolicy`);
* :mod:`repro.ingress.batcher` — per-lane micro-batching of ensemble
  scoring (count / virtual-latency flush budgets over
  :class:`~repro.ml.batch.BatchScorer`);
* :mod:`repro.ingress.workers` — the replay and workload lane workers;
* :mod:`repro.ingress.pipeline` — admission, hash routing, and the
  deterministic merge.

Everything is deterministic by construction: lanes partition mutable
state totally, each lane consumes its events in admission order, and
merges happen in lane order — so executors and queue depths change
wall-clock behaviour, never results (the invariant the test suite pins
across ``{serial, process}`` × queue depths).
"""

from repro.ingress.batcher import MicroBatchConfig, MicroBatcher
from repro.ingress.executors import (
    EXECUTOR_KINDS,
    ProcessLaneExecutor,
    SerialLaneExecutor,
    ShedPolicy,
    build_executor,
)
from repro.ingress.pipeline import (
    IngressConfig,
    IngressPipeline,
    IngressResult,
    replay_workers,
)
from repro.ingress.workers import (
    LaneResult,
    ReplayLaneWorker,
    WorkloadLaneWorker,
)

__all__ = [
    "EXECUTOR_KINDS",
    "IngressConfig",
    "IngressPipeline",
    "IngressResult",
    "LaneResult",
    "MicroBatchConfig",
    "MicroBatcher",
    "ProcessLaneExecutor",
    "ReplayLaneWorker",
    "SerialLaneExecutor",
    "ShedPolicy",
    "WorkloadLaneWorker",
    "build_executor",
    "replay_workers",
]
