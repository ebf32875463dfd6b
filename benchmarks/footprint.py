#!/usr/bin/env python3
"""The byte ledger: where one benchmark workload's memory goes.

    python3 benchmarks/footprint.py --workload live_churn --seed 7

``benchmarks/e2e`` gates ``peak_rss_mib`` but cannot say what it is made
of.  This script builds the same deployment from the same inputs — it
imports ``e2e/workloads.py``, ``e2e/loadgen.py`` and the harness's
preparation step unchanged — and plays the workload twice in one process:

1. untraced, reading the process's resident set after each stage
   (imports, prepared inputs loaded, deployment built, first trial's
   traffic done);
2. under ``tracemalloc``, taking a snapshot when the traffic ends, while
   the deployment and every session are still alive.

The snapshot is grouped by the package under ``src/repro/`` whose code
asked for the memory: the innermost frame of each allocation that lies
in ``src/repro/`` owns it, so a named tuple (allocated in ``<string>``)
or a ``dict`` grown inside the standard library counts toward its
caller.  The package rows add up to the traced total, which is printed
against the resident-set growth over the same two stages; what
``tracemalloc`` cannot see (allocator slack, memory obtained outside
``PyMem``) is the gap between the two.

Nothing here is timed and nothing in ``src/`` or ``benchmarks/e2e``
knows this file exists.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
E2E = os.path.join(HERE, "e2e")
SRC = os.path.join(ROOT, "src", "repro") + os.sep
sys.path[:0] = [os.path.join(ROOT, "src"), E2E]

import harness  # noqa: E402
from loadgen import play_script  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ReplayWorkload,
    build_live,
    build_replay,
)

BUILT = "deployment built"
TRAFFIC = "first trial's traffic done"
#: Frames kept per allocation: enough to walk out of the standard
#: library (asyncio, re, dataclasses) to the repo code that called it.
FRAMES = 16
TOP_LINES = 12
MIB = 1024 * 1024


def rss_mib() -> float:
    """Resident set now, read the way the harness reads it."""
    return harness._rss_kib() / 1024


def prepare(name: str, seed: int, sessions: int, directory: str):
    """The run's inputs, made in a child process as the timed run does."""
    subprocess.run(
        [
            sys.executable,
            os.path.join(E2E, "prepare.py"),
            name,
            str(seed),
            str(sessions),
            directory,
        ],
        check=True,
    )
    with open(os.path.join(directory, harness.PREPARED), "rb") as handle:
        return pickle.load(handle)


async def _live_pass(workload, seed, prepared, checkpoint) -> int:
    script, _ = prepared
    deployment = await build_live(workload, seed)
    checkpoint(BUILT)
    playback = await play_script(script, harness.HOST, deployment.server.port)
    checkpoint(TRAFFIC)
    await deployment.server.close()
    return playback.failed


def one_pass(workload, seed, prepared, checkpoint) -> int:
    """Build, play once, call ``checkpoint`` after each; failed operations."""
    if not isinstance(workload, ReplayWorkload):
        return asyncio.run(_live_pass(workload, seed, prepared, checkpoint))
    deployment = build_replay(seed)
    checkpoint(BUILT)
    result = deployment.engine.replay(
        prepared.trace_path, probes=prepared.probes_path
    )
    checkpoint(TRAFFIC)
    return int(
        result.requests_replayed != prepared.lines
        or result.kind_census() != prepared.kind_census
    )


def owner(traceback) -> tuple[str, str]:
    """``(package, file:line)`` of the repo code behind one allocation."""
    for frame in reversed(traceback):  # innermost first
        path = frame.filename
        if path.startswith(SRC):
            inside = path[len(SRC):]
            package = inside.split(os.sep)[0].removesuffix(".py")
            return f"repro.{package}", f"{inside}:{frame.lineno}"
        if path.startswith(HERE):
            inside = os.path.relpath(path, ROOT)
            return "benchmarks", f"{inside}:{frame.lineno}"
    return "(python)", "(standard library, numpy, no repo frame in reach)"


def measure(name: str, seed: int, sessions: int | None) -> dict:
    workload = WORKLOADS[name]
    sessions = workload.sessions if sessions is None else sessions
    stages = {"imports": rss_mib()}
    traced: dict = {}

    def read_rss(stage: str) -> None:
        stages[stage] = rss_mib()

    def snapshot(stage: str) -> None:
        if stage == TRAFFIC:
            traced["total"] = tracemalloc.get_traced_memory()[0]
            traced["snapshot"] = tracemalloc.take_snapshot()

    with tempfile.TemporaryDirectory() as directory:
        prepared = prepare(name, seed, sessions, directory)
        gc.collect()
        stages["prepared inputs"] = rss_mib()
        failed = one_pass(workload, seed, prepared, read_rss)
        gc.collect()
        tracemalloc.start(FRAMES)
        try:
            failed += one_pass(workload, seed, prepared, snapshot)
        finally:
            tracemalloc.stop()

    packages: Counter = Counter()
    lines: Counter = Counter()
    for stat in traced["snapshot"].statistics("traceback"):
        package, line = owner(stat.traceback)
        packages[package] += stat.size
        lines[package, line] += stat.size
    return {
        "workload": name,
        "seed": seed,
        "sessions": sessions,
        "failed": failed,
        "rss_mib": stages,
        "rss_growth_mib": stages[TRAFFIC] - stages["prepared inputs"],
        "traced_mib": traced["total"] / MIB,
        "packages_mib": {
            package: size / MIB for package, size in packages.most_common()
        },
        "top_lines_mib": [
            {"package": package, "line": line, "mib": size / MIB}
            for (package, line), size in lines.most_common(TOP_LINES)
        ],
    }


def report(result: dict) -> str:
    out = [
        f"{result['workload']} seed={result['seed']} "
        f"sessions={result['sessions']}: {result['failed']} failed operations",
        "",
        f"{'stage':30s} {'rss MiB':>9s} {'growth':>9s}",
    ]
    before = None
    for stage, value in result["rss_mib"].items():
        growth = "" if before is None else f"{value - before:+9.1f}"
        out.append(f"{stage:30s} {value:9.1f} {growth}")
        before = value
    traced, growth = result["traced_mib"], result["rss_growth_mib"]
    rows = sum(result["packages_mib"].values())
    out += [
        "",
        f"traced at end of traffic: {traced:.1f} MiB "
        f"(package rows sum to {rows:.1f}) against {growth:.1f} MiB of "
        f"resident-set growth since the inputs were loaded",
        "",
        f"{'package':30s} {'MiB':>9s} {'share':>9s}",
    ]
    for package, size in result["packages_mib"].items():
        out.append(f"{package:30s} {size:9.2f} {size / traced:9.1%}")
    out += ["", f"largest lines{'':18s} {'MiB':>9s}"]
    for row in result["top_lines_mib"]:
        out.append(f"{row['line']:30s} {row['mib']:9.2f}")
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--sessions",
        type=int,
        help="sessions to prepare (default: the workload's own count)",
    )
    parser.add_argument("--json", help="also write the result to this file")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.sessions)
    print(report(result))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2)
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
