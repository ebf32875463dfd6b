"""Trace subsystem: access-log ingestion, recording, and replay.

Connects the simulator to real-world request logs in both directions:

* :mod:`repro.trace.clf` — Common/Combined Log Format records, with
  streaming gzip-transparent reading and malformed-line accounting;
* :mod:`repro.trace.recorder` — a network tap that exports any workload
  as a CLF trace plus the probe journal replays need for full detection
  fidelity;
* :mod:`repro.trace.replay` — heap-merged, timestamp-ordered streaming
  replay of traces through the detection pipeline, reduced to the same
  census shape the synthetic engine emits;
* :mod:`repro.trace.arrival` — uniform / diurnal / flash-crowd session
  arrival profiles;
* :mod:`repro.trace.interleave` — the event-ordered scheduler that
  drives synthetic sessions the way the replay engine drives recorded
  ones.
"""

from repro.trace.arrival import (
    ArrivalProfile,
    BurstArrival,
    DiurnalArrival,
    UniformArrival,
    profile_by_name,
)
from repro.trace.clf import (
    ParseStats,
    TraceParseError,
    TraceRecord,
    format_clf_line,
    parse_clf_line,
    read_trace,
    write_trace,
)
from repro.trace.interleave import InterleavedScheduler
from repro.trace.recorder import (
    TraceRecorder,
    read_probe_journal,
    record_workload,
    write_probe_journal,
)
from repro.trace.replay import (
    ReplayConfig,
    ReplayResult,
    TraceReplayEngine,
    replay_trace,
)

__all__ = [
    "ArrivalProfile",
    "BurstArrival",
    "DiurnalArrival",
    "InterleavedScheduler",
    "ParseStats",
    "ReplayConfig",
    "ReplayResult",
    "TraceParseError",
    "TraceRecord",
    "TraceRecorder",
    "TraceReplayEngine",
    "UniformArrival",
    "format_clf_line",
    "parse_clf_line",
    "profile_by_name",
    "read_probe_journal",
    "read_trace",
    "record_workload",
    "replay_trace",
    "write_probe_journal",
    "write_trace",
]
