"""``repro.obs`` — unified metrics, stage timing, and the flight recorder.

The paper's detector ran inline on live CoDeeN proxies, where operators
judged it by latency overhead and drop behaviour under real load.  This
package is the reproduction's equivalent instrument panel: one
process-wide metric model (:class:`MetricsRegistry` — counters, gauges,
fixed-bucket histograms keyed by ``(name, labels)``), deterministic
merging across ingress lanes and detection shards
(:func:`merge_snapshots`), Prometheus and JSON exporters, and a
virtual-time flight recorder
(:class:`FlightRecorder`) that makes overload episodes — shed bursts,
queue-depth spikes, batch-latency blowups — reconstructable after the
fact.

:mod:`repro.obs.spans` adds the causal layer on top: per-request span
trees in both clock domains, tail-based exemplar sampling
(:class:`TailSampler`), a Chrome trace-event exporter
(:func:`to_trace_events`), critical-path profiling
(:func:`profile_stages`) and the live :class:`QueueDelayEstimator`.

Two metric domains, one registry:

* **deterministic** metrics (the default) are pure functions of the
  admitted event stream — counts, event-time histograms, end-of-run
  gauges.  Snapshots of this domain are byte-identical across the
  ``serial``/``process`` ingress executors and every queue
  depth, which the test suite pins (the same contract the result merge
  already honours).
* **wall** metrics (``wall=True``) measure real elapsed time or live
  backlog — stage timings, queue waits, depth gauges.  They are the
  numbers capacity planning wants and are excluded from deterministic
  snapshots (``include_wall=False``).
"""

from repro.obs.export import (
    render_table,
    snapshot_from_json,
    to_json,
    to_prometheus,
)
from repro.obs.flight import FlightFrame, FlightRecorder, merge_flight
from repro.obs.registry import (
    EVENT_SECONDS_BUCKETS,
    SIZE_BUCKETS,
    WALL_SECONDS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricPoint,
    MetricsRegistry,
    MetricsSnapshot,
    merge_snapshots,
)
from repro.obs.spans import (
    NULL_SPAN,
    ProfileReport,
    QueueDelayEstimator,
    Span,
    SpanConfig,
    SpanTracer,
    SpanTree,
    StageStats,
    TailSampler,
    merge_traces,
    profile_stages,
    to_trace_events,
    trace_trees_from_json,
)

__all__ = [
    "Counter",
    "EVENT_SECONDS_BUCKETS",
    "FlightFrame",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricPoint",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_SPAN",
    "ProfileReport",
    "QueueDelayEstimator",
    "SIZE_BUCKETS",
    "Span",
    "SpanConfig",
    "SpanTracer",
    "SpanTree",
    "StageStats",
    "TailSampler",
    "WALL_SECONDS_BUCKETS",
    "merge_flight",
    "merge_snapshots",
    "merge_traces",
    "profile_stages",
    "render_table",
    "snapshot_from_json",
    "to_json",
    "to_prometheus",
    "to_trace_events",
    "trace_trees_from_json",
]
