#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload live_browse --seed 7 \\
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that yields the per-layer
ledger and the exact counts, and writes its spans as JSON lines under
``benchmarks/e2e/out/``.  Metric names, units and bounds are those of
``BENCHMARK.json`` at the root of the checkout.  The last line of
standard output is one JSON object — ``correct``, ``attempted``,
``failed``, ``metrics`` — and the exit code is non-zero when any
operation failed its check.  ``README.md`` has the method.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in contract["workloads"]],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, default=contract["run_seconds"]
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One process, one CPU — and before numpy is imported, so that it
    # sizes its thread pool for the one CPU it will get.  The server is
    # GIL-bound: its event-loop thread and its handler thread landing on
    # different vCPUs is what makes unpinned runs bimodal.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness

    result = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(result["environment"]))
    print(
        f"{result['workload']} seed={result['seed']}: "
        f"{result['requests']} requests per trial, "
        f"{result['trials']} untraced + {result['traced_trials']} traced "
        "trials"
    )
    if result["spans_path"]:
        print(f"spans: {os.path.relpath(result['spans_path'], ROOT)}")
    listed = contract["per_layer" if args.trace else "end_to_end"]
    metrics = {
        m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
        for m in listed
    }
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:14.6f} {metric['unit']}")
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def _terminate(signum, frame):
    # Leave as an exception, so that a run that is told to stop takes
    # the child process that prepares its inputs with it.
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
