#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself on one tree?

    python3 benchmarks/e2e/aa.py --pairs 3 --seeds 10 --write-readme

A *run-set* is every workload run once on each of ``--seeds`` seeds
(end-to-end metrics, tracing off); per (workload, metric) it yields a
median and a spread — the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  A
*pair* is two run-sets of the same tree on the same seeds.  For every
pair the tool prints, beside the metric's bound from ``BENCHMARK.json``,
by how much the second median is worse than the first and both spreads.

The rule the bounds are kept by: every pair agrees within half the
bound, and every spread stays below the bound.  ``--write-readme``
replaces the table between the ``aa`` markers of ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BEGIN, END = "<!-- aa:begin -->", "<!-- aa:end -->"


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """One benchmark run; returns (environment, metric values)."""
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return json.loads(lines[0]), values


def run_set(contract: dict, seeds: list[int], seconds: int, label: str):
    """{workload: {metric: [value per seed]}} for one run-set."""
    values: dict[str, dict[str, list[float]]] = {}
    environment = {}
    for workload in (w["name"] for w in contract["workloads"]):
        per_metric = values.setdefault(workload, {})
        for seed in seeds:
            environment, metrics = run_once(workload, seed, seconds)
            for name, value in metrics.items():
                per_metric.setdefault(name, []).append(value)
            print(f"  {label} {workload} seed {seed} done", file=sys.stderr)
    return environment, values


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(contract: dict, pairs: list[tuple[dict, dict]]) -> tuple[list[str], bool]:
    """The markdown table and whether every row kept the rule."""
    header = "| workload | metric | bound |" + "".join(
        f" pair {i + 1}: B worse by | spreads A / B |"
        for i in range(len(pairs))
    ) + " verdict |"
    rows = [header, "|" + "---|" * (header.count("|") - 1)]
    all_kept = True
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells = []
            kept = True
            for first, second in pairs:
                a, b = first[workload][name], second[workload][name]
                drift = worse_by(
                    statistics.median(a), statistics.median(b),
                    metric["better"],
                )
                spreads = (spread(a), spread(b))
                kept &= abs(drift) <= bound / 2
                # The driver does not hold ``setup_s`` to its spread.
                if name != "setup_s":
                    kept &= max(spreads) <= bound
                cells.append(
                    f" {drift:+.1%} | {spreads[0]:.1%} / {spreads[1]:.1%} |"
                )
            all_kept &= kept
            rows.append(
                f"| {workload} | {name} | {bound:.0%} |"
                + "".join(cells)
                + (" ok |" if kept else " **over** |")
            )
    return rows, all_kept


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    parser.add_argument("--write-readme", action="store_true")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("a spread needs at least two seeds")

    pairs = []
    environment = {}
    for pair in range(args.pairs):
        # Fresh seeds per pair, the same seeds within one.
        start = args.first_seed + pair * args.seeds
        seeds = list(range(start, start + args.seeds))
        halves = []
        for half in "AB":
            environment, values = run_set(
                contract, seeds, args.seconds, f"pair {pair + 1}{half}"
            )
            halves.append(values)
        pairs.append(tuple(halves))

    rows, kept = compare(contract, pairs)
    lines = [
        f"{args.pairs} pair(s) of run-sets, {args.seeds} seeds per workload "
        f"(from seed {args.first_seed}), {args.seconds} s per run; "
        f"python {environment['python']}, nproc {environment['nproc']}, "
        f"pinned to CPU {environment['affinity']}, {environment['cpu']}.",
        "",
        *rows,
    ]
    print("\n".join(lines))
    if args.write_readme:
        path = os.path.join(HERE, "README.md")
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        before, rest = text.split(BEGIN, 1)
        after = rest.split(END, 1)[1]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                before + BEGIN + "\n" + "\n".join(lines) + "\n" + END + after
            )
    return 0 if kept else 1


if __name__ == "__main__":
    sys.exit(main())
