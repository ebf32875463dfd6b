"""Ingress subsystem: admission, per-lane queues, micro-batched
scoring, and true parallel lane executors.

This package is the stage between *arrival* and *shard* that web-scale
detectors (BOTracle, BotGraph) stage explicitly, and the one path both
engines — trace replay and synthetic workloads — drive every run
through:

* :mod:`repro.ingress.queues` — bounded per-lane FIFOs with
  backpressure and counted load shedding;
* :mod:`repro.ingress.executors` — pluggable lane executors: serial,
  thread, and a process pool with picklable lane state that delivers
  real parallelism past the GIL;
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
across ``{serial, thread, process}`` × queue depths).
"""

from repro.ingress.batcher import MicroBatchConfig, MicroBatcher
from repro.ingress.executors import (
    EXECUTOR_KINDS,
    ProcessLaneExecutor,
    SerialLaneExecutor,
    ThreadLaneExecutor,
    build_executor,
)
from repro.ingress.pipeline import (
    IngressConfig,
    IngressPipeline,
    IngressResult,
    replay_workers,
)
from repro.ingress.queues import CLOSED, LaneQueue, QueueClosed, ShedPolicy
from repro.ingress.workers import (
    LaneResult,
    ReplayLaneWorker,
    WorkloadLaneWorker,
)

__all__ = [
    "CLOSED",
    "EXECUTOR_KINDS",
    "IngressConfig",
    "IngressPipeline",
    "IngressResult",
    "LaneQueue",
    "LaneResult",
    "MicroBatchConfig",
    "MicroBatcher",
    "ProcessLaneExecutor",
    "QueueClosed",
    "ReplayLaneWorker",
    "SerialLaneExecutor",
    "ShedPolicy",
    "ThreadLaneExecutor",
    "WorkloadLaneWorker",
    "build_executor",
    "replay_workers",
]
