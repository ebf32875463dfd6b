#!/usr/bin/env python
"""Record a flash-crowd workload as an access log, then replay it.

Demonstrates the trace subsystem end to end:

1. build a deployment and drive a burst-shaped, time-interleaved
   workload through it with a recorder tapped into the network;
2. export the traffic as a gzipped Combined Log Format trace plus the
   probe journal (the server-side key table a faithful replay needs);
3. replay the log through a *fresh* deployment — no origin site, no
   instrumenter — and show the detection census coming out identical.

Run:  python examples/record_replay.py
"""

from __future__ import annotations

import os
import tempfile

from repro.proxy.network import ProxyNetwork
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.trace.arrival import BurstArrival
from repro.trace.recorder import record_workload
from repro.trace.replay import ReplayConfig, TraceReplayEngine
from repro.util.rng import RngStream
from repro.util.timeutil import DAY
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import CODEEN_WEEK


def main() -> None:
    rng = RngStream(2006, "record-replay")

    # 1. The deployment: synthetic site behind a 4-node proxy network.
    website = SiteGenerator(SiteConfig(n_pages=20)).generate(rng.split("site"))
    network = ProxyNetwork(
        origins={website.host: OriginServer(website)},
        rng=rng.split("proxies"),
        n_nodes=4,
    )
    entry = f"http://{website.host}{website.home_path}"

    # A flash crowd: half the day's sessions land in a ~30-minute spike.
    # Sessions overlap — every node steps its live sessions by next-event
    # time — so each node sees its requests in true timestamp order.
    engine = WorkloadEngine(
        network,
        CODEEN_WEEK,
        entry,
        rng.split("workload"),
        WorkloadConfig(
            n_sessions=300,
            duration=DAY,
            arrival=BurstArrival(burst_share=0.5, burst_width=0.02),
            captcha_enabled=False,  # out-of-band; leaves no log footprint
        ),
    )

    # 2. Record: trace + probe journal land next to each other.
    outdir = tempfile.mkdtemp(prefix="repro-trace-")
    trace_path = os.path.join(outdir, "burst.log.gz")
    probes_path = os.path.join(outdir, "burst.keys.gz")
    result, recorder = record_workload(engine, trace_path, probes_path)
    print(f"recorded {len(recorder.records)} requests -> {trace_path}")
    print(f"journalled {len(recorder.probes)} probes -> {probes_path}")
    print(f"live census: {dict(sorted(result.kind_census().items()))}")

    # 3. Replay through a fresh, origin-less, uninstrumented network.
    replayed = TraceReplayEngine(
        ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=4,
            instrument_enabled=False,
        ),
        ReplayConfig(assume_sorted=True),
    ).replay(trace_path, probes=probes_path)

    print(f"replayed {replayed.requests_replayed} requests "
          f"({replayed.parse_stats.malformed} malformed)")
    print(f"replay census: {dict(sorted(replayed.kind_census().items()))}")

    same = (replayed.kind_census() == result.kind_census()
            and replayed.summary == result.summary)
    print(f"census + set-algebra summary identical: {same}")
    summary = replayed.summary
    print(f"human fraction bounds from the log alone: "
          f"{summary.lower_bound:.1%} .. {summary.upper_bound:.1%} "
          f"(max FPR {summary.max_false_positive_rate:.1%})")


if __name__ == "__main__":
    main()
