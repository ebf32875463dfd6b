#!/usr/bin/env python
"""Record a workload, then replay it on both ingress executors.

Demonstrates the ingress subsystem end to end:

1. build a deployment, drive a diurnal time-interleaved workload
   through it, and export the traffic as a CLF trace + probe journal;
2. replay the log through the **ingress lanes** (one lane per node
   shard, routed by the stable client-IP hash): inline on the serial
   executor, then with every lane in its own process behind a bounded
   pipe — and the census comes out byte-identical on both executors and
   at every queue depth;
3. replay once more on process lanes with a tiny pipe and the
   load-shedding policy to show overload handling: shed requests are
   *counted* in the network stats, never silently dropped;
4. replay with **span tracing** on: every admitted event carries a trace
   context through admission -> queue wait -> handle -> detection ->
   batch flush, a tail sampler keeps exemplar traces under a bounded
   budget, and the export is Chrome trace-event JSON you can drop into
   https://ui.perfetto.dev — plus the same per-stage critical-path
   table ``repro profile`` prints.

Run:  python examples/pipelined_replay.py
"""

from __future__ import annotations

import os
import tempfile
from itertools import groupby

from repro.obs.spans import (
    SpanConfig,
    profile_stages,
    to_trace_events,
    trace_trees_from_json,
)
from repro.proxy.network import ProxyNetwork
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.trace.arrival import DiurnalArrival
from repro.trace.recorder import record_workload
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.util.timeutil import DAY
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import CODEEN_WEEK


def replay(trace: str, probes: str, **config_kwargs):
    network = ProxyNetwork(
        origins={},  # replays need no origin: unrouted requests 502
        rng=RngStream(0, "replay"),
        n_nodes=4,
        instrument_enabled=False,
    )
    engine = TraceReplayEngine(
        network, ReplayConfig(assume_sorted=True, **config_kwargs)
    )
    return engine.replay(trace, probes=probes)


def main() -> None:
    rng = RngStream(2006, "pipelined-replay")

    website = SiteGenerator(SiteConfig(n_pages=20)).generate(rng.split("site"))
    network = ProxyNetwork(
        origins={website.host: OriginServer(website)},
        rng=rng.split("proxies"),
        n_nodes=4,
    )
    entry = f"http://{website.host}{website.home_path}"

    engine = WorkloadEngine(
        network,
        CODEEN_WEEK,
        entry,
        rng.split("workload"),
        WorkloadConfig(
            n_sessions=300,
            duration=DAY,
            arrival=DiurnalArrival(peak_ratio=5.0),
            captcha_enabled=False,  # out-of-band; leaves no log footprint
        ),
    )

    with tempfile.TemporaryDirectory() as tmp:
        trace = os.path.join(tmp, "day.log.gz")
        probes = os.path.join(tmp, "day.keys.gz")
        recorded, recorder = record_workload(engine, trace, probes)
        print(
            f"recorded {len(recorder.records)} requests, "
            f"{len(recorder.probes)} probe registrations"
        )
        print(f"live census: {sorted(recorded.kind_census().items())}")

        # The default replay — lanes inline on the serial executor — is
        # the reference, and process lanes match it at any pipe depth.
        baseline = replay(trace, probes)
        assert baseline.kind_census() == recorded.kind_census()
        print(
            f"\nreplayed {baseline.requests_replayed} requests, "
            f"{baseline.analyzable_count} analyzable sessions"
        )
        for depth in (16, 256):
            result = replay(
                trace, probes, executor="process", queue_depth=depth
            )
            assert result.summary == baseline.summary
            assert result.kind_census() == baseline.kind_census()
            assert result.stats == baseline.stats
            print(
                f"  executor=process depth={depth:3d} "
                f"queued={result.stats.queued:6d} census identical: True"
            )

        # Overload: a depth-4 pipe with shedding enabled (a shedding
        # policy needs the process executor — inline lanes have no
        # backlog).  Requests are refused when admission outruns the
        # lanes — and every one of them shows up in the stats.
        shed_run = replay(
            trace,
            probes,
            executor="process",
            queue_depth=4,
            shed=True,
        )
        stats = shed_run.stats
        # Admission counts each request, and each journalled page (its
        # probe lines share one issue time and client IP) as one event.
        pages = sum(
            1 for _ in groupby(
                recorder.sorted_probes(),
                key=lambda record: (record.issued_at, record.client_ip),
            )
        )
        total = len(recorder.records) + pages
        print(
            f"\noverload replay (depth=4, shed): handled "
            f"{shed_run.requests_replayed}, shed {stats.shed}, "
            f"queued {stats.queued}  (balance: "
            f"{stats.queued + stats.shed} == {total} admitted)"
        )
        assert stats.queued + stats.shed == total

        print(
            f"\nhuman bounds from the replay: "
            f"{baseline.summary.lower_bound:.1%} .. "
            f"{baseline.summary.upper_bound:.1%}"
        )

        # Span tracing: the same replay with causal traces attached.
        # ``SpanConfig.uniform(8)`` keeps at most 8 exemplar traces per
        # category per lane (16 for robot verdicts) — budget-bounded no
        # matter how long the trace is.
        traced = replay(
            trace,
            probes,
            executor="process",
            queue_depth=256,
            spans=SpanConfig.uniform(8),
        )
        span_path = os.path.join(tmp, "spans.json")
        with open(span_path, "w", encoding="utf-8") as handle:
            handle.write(to_trace_events(traced.spans, clock="wall"))
        print(
            f"\nspan tracing: kept {len(traced.spans)} exemplar traces "
            f"-> {span_path} (open in https://ui.perfetto.dev)"
        )

        # ... and the ``repro profile`` view of the same file: per-stage
        # totals, self time, p50/p95/p99 and the share of end-to-end
        # handle time each named stage accounts for.
        with open(span_path, encoding="utf-8") as handle:
            trees, clock = trace_trees_from_json(handle.read())
        print()
        print(profile_stages(trees, clock=clock).render(limit=6))

        # The virtual-domain export is part of the determinism contract:
        # byte-identical across executors, like the census above.
        virtual = {
            executor: to_trace_events(
                replay(
                    trace,
                    probes,
                    executor=executor,
                    queue_depth=256,
                    spans=SpanConfig.uniform(8),
                ).spans,
                clock="virtual",
            )
            for executor in ("serial", "process")
        }
        assert len(set(virtual.values())) == 1
        print(
            "\nvirtual-clock span trees byte-identical across "
            "serial/process executors: True"
        )


if __name__ == "__main__":
    main()
