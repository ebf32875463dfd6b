"""Trials, estimators and the per-layer ledger of the e2e benchmark.

A run is K identical trials of one workload.  Every trial builds a fresh
deployment from the run's seed, replays the identical inputs and checks
the outputs against the reference taken at preparation.  Interference on
a shared sandbox only ever slows a request, so the estimate of each
request's time is its minimum over the trials; throughput and the
latency percentiles are computed from those per-request floors.
``README.md`` describes the method and every metric.
"""

from __future__ import annotations

import asyncio
import gc
import os
import pickle
import platform
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from loadgen import Script, measure_floor, play_script, record_script
from tracing import Tracer, write_spans
from workloads import (
    WORKLOADS,
    LiveWorkload,
    RecordedTrace,
    ReplayWorkload,
    build_live,
    build_replay,
    record_trace,
    sample_agents,
)

HOST = "127.0.0.1"
#: Trials per run: as many as the time budget holds, between these.
MAX_TRIALS = 32
MIN_TRIALS = 3
#: A traced run alternates untraced and traced trials, at most this
#: many of each.
MAX_TRACED_TRIALS = 8
FLOOR_PASSES = 5

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
#: The file ``prepare.py`` leaves a run's inputs in.
PREPARED = "prepared.pickle"


def environment() -> dict:
    """Where the numbers were taken: recorded with every result."""
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": model,
    }


# -- preparation (runs in a child process: prepare.py) -----------------------


@dataclass
class Reference:
    """What the reference run concluded; every trial must agree."""

    kind_census: dict[str, int]
    summary: object


def _census(sessions) -> dict[str, int]:
    return dict(Counter(state.agent_kind for state in sessions))


async def _drain(server) -> None:
    """Let the server notice that every client has hung up."""
    for _ in range(1000):
        if server.metrics.open_connections.value == 0:
            return
        await asyncio.sleep(0.001)


async def _record_live(
    workload: LiveWorkload, seed: int, sessions: int
) -> tuple[Script, Reference]:
    deployment = await build_live(workload, seed)
    server = deployment.server
    agents = sample_agents(workload, seed, deployment.entry_url, sessions)
    script = await record_script(
        agents, HOST, server.port, workload.max_requests
    )
    await _drain(server)
    await server.close()
    server.annotate_ground_truth(script.identities)
    reference = Reference(
        _census(server.finalize_sessions()), server.session_summary()
    )
    return script, reference


def prepare(name: str, seed: int, sessions: int, directory: str):
    """Make a run's inputs from its seed (the load generator's cost).

    Runs in a child process, so that neither the agents' memory nor the
    reference deployment's counts toward the parent's ``peak_rss_mib``.
    """
    workload = WORKLOADS[name]
    if isinstance(workload, ReplayWorkload):
        return record_trace(
            workload,
            seed,
            sessions,
            os.path.join(directory, "trace.log.gz"),
            os.path.join(directory, "trace.keys.gz"),
        )
    return asyncio.run(_record_live(workload, seed, sessions))


# -- trials ------------------------------------------------------------------


@dataclass
class Trial:
    """One pass of the workload over a fresh deployment."""

    #: Seconds per cycle.  Live: one per request.  Replay: head, then
    #: tap-to-tap, then tail — one more than there are requests.
    cycles: np.ndarray
    #: Seconds per request the latency percentiles are taken over.
    latencies: np.ndarray
    failed: int
    build_seconds: dict[str, float]
    #: Counts that must repeat exactly from trial to trial.
    counts: dict[str, float]
    #: RSS growth while the trial's traffic ran, in KiB.
    rss_growth_kib: float
    #: Traced trials only: per ledger row, self seconds per cycle, plus
    #: one slot at the end for what ran after the clock stopped.
    rows: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def setup_seconds(self) -> float:
        return sum(self.build_seconds.values())


def _rss_kib() -> float:
    with open("/proc/self/statm", encoding="utf-8") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 1024


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


async def _live_trial(
    workload: LiveWorkload,
    seed: int,
    script: Script,
    reference: Reference,
    tracer: Tracer | None,
) -> Trial:
    deployment = await build_live(workload, seed)
    server, network = deployment.server, deployment.network
    rss_before = _rss_kib()
    playback = await play_script(
        script,
        HOST,
        server.port,
        on_cycle=tracer.begin_cycle if tracer is not None else None,
    )
    rss_growth = _rss_kib() - rss_before
    live_sessions = sum(
        node.detection.tracker.live_count for node in network.nodes
    )
    await _drain(server)
    await server.close()
    server.annotate_ground_truth(script.identities)
    census = _census(server.finalize_sessions())
    failed = playback.failed
    failed += census != reference.kind_census
    failed += server.session_summary() != reference.summary

    n = script.n_requests
    stats = network.stats()
    handled = server.requests_handled
    gated = stats.throttled + stats.challenged + stats.ladder_blocked
    counts = {
        "serve.requests": handled,
        "serve.connections": server.metrics.connections.value,
        "serve.keepalive_reuse_ratio": _ratio(
            server.metrics.keepalive_reuses.value, n
        ),
        "serve.req_bytes_mean": _ratio(
            sum(len(r.wire) for r in script.requests()), n
        ),
        "serve.resp_bytes_mean": _ratio(playback.bytes_received, n),
        "serve.status_200_ratio": _ratio(
            sum(r.status == 200 for r in script.requests()), n
        ),
        "serve.parse_errors": server.parse_errors,
        "serve.shed": server.shed_count,
        "proxy.cache_hit_ratio": _ratio(stats.cache_hits, handled),
        "proxy.origin_request_ratio": _ratio(stats.origin_requests, handled),
        "instrument.pages_ratio": _ratio(stats.pages_instrumented, handled),
        "instrument.added_bytes_per_page": _ratio(
            stats.instrumentation_markup_bytes, stats.pages_instrumented
        ),
        "detection.sessions_started": sum(
            node.detection.tracker.total_started for node in network.nodes
        ),
        "detection.beacon_hit_ratio": _ratio(stats.beacon_requests, handled),
        "detection.blocked_ratio": _ratio(stats.policy_blocked, handled),
        "overload.gated_ratio": _ratio(gated, handled),
        "state.sessions_live_peak": live_sessions,
        "state.probes_registered": len(server.probes),
        "trace.lines": len(server.records),
    }
    ends = np.array(playback.ends)
    trial = Trial(
        cycles=np.diff(ends),
        latencies=ends[1:] - np.array(playback.sent),
        failed=failed,
        build_seconds=deployment.build_seconds,
        counts=counts,
        rss_growth_kib=rss_growth,
    )
    if tracer is not None:
        trial.rows = tracer.reduce(n + 1)
    return trial


def _replay_trial(
    seed: int, recorded: RecordedTrace, tracer: Tracer | None
) -> Trial:
    deployment = build_replay(seed)
    rss_before = _rss_kib()
    ticks: list[float] = []
    if tracer is None:

        def tap(request, response) -> None:
            ticks.append(perf_counter())

    else:
        tracer.begin_cycle(0)

        def tap(request, response) -> None:
            ticks.append(perf_counter())
            tracer.begin_cycle(len(ticks))

    deployment.network.add_tap(tap)
    started = perf_counter()
    result = deployment.engine.replay(
        recorded.trace_path, probes=recorded.probes_path
    )
    ended = perf_counter()
    rss_growth = _rss_kib() - rss_before

    failed = int(result.kind_census() != recorded.kind_census)
    failed += result.summary != recorded.summary
    failed += result.requests_replayed != recorded.lines
    failed += len(ticks) != recorded.lines

    stats = result.stats
    handled = result.requests_replayed
    flush_sizes = result.metrics.series("repro_batch_flush_sessions")
    counts = {
        "proxy.cache_hit_ratio": _ratio(stats.cache_hits, handled),
        "proxy.origin_request_ratio": _ratio(stats.origin_requests, handled),
        "detection.sessions_started": sum(
            node.detection.tracker.total_started
            for node in deployment.network.nodes
        ),
        "detection.beacon_hit_ratio": _ratio(stats.beacon_requests, handled),
        "detection.blocked_ratio": _ratio(stats.policy_blocked, handled),
        "state.probes_registered": result.probes_loaded,
        "trace.lines": result.parse_stats.lines
        + result.probe_parse_stats.lines,
        "trace.malformed": result.parse_stats.malformed
        + result.probe_parse_stats.malformed,
        "ingress.events": stats.queued,
        "ingress.high_watermark": max(
            (
                point.value
                for point in result.metrics.series(
                    "repro_ingress_queue_high_watermark"
                )
            ),
            default=0,
        ),
        "ml.flushes": result.metrics.total("repro_batch_flush_total"),
        "ml.batch_size_mean": _ratio(
            sum(point.sum for point in flush_sizes),
            sum(point.count for point in flush_sizes),
        ),
        "ml.sessions_scored": len(result.ml_verdicts),
    }
    cycles = np.diff(np.array([started, *ticks, ended]))
    trial = Trial(
        cycles=cycles,
        latencies=cycles[1:-1],
        failed=failed,
        build_seconds=deployment.build_seconds,
        counts=counts,
        rss_growth_kib=rss_growth,
    )
    if tracer is not None:
        trial.rows = tracer.reduce(len(cycles) + 1)
    return trial


def _run_trials(one_trial, seconds: float, most: int) -> list:
    """Run trials until an average one more would overrun ``seconds``."""
    trials = []
    started = perf_counter()
    while len(trials) < most:
        spent = perf_counter() - started
        if (
            len(trials) >= MIN_TRIALS
            and spent + spent / len(trials) > seconds
        ):
            break
        gc.collect()
        trials.append(one_trial())
    return trials


# -- estimators --------------------------------------------------------------


def _floor(trials: list[Trial], attribute: str) -> np.ndarray:
    """Element-wise minimum over the trials."""
    return np.min(np.stack([getattr(t, attribute) for t in trials]), axis=0)


def _check_counts(trials: list[Trial]) -> int:
    """Trials whose exact counts differ from the first trial's."""
    return sum(trial.counts != trials[0].counts for trial in trials[1:])


def end_to_end(trials: list[Trial], n_requests: int) -> dict[str, float]:
    cycles = _floor(trials, "cycles")
    latencies = _floor(trials, "latencies")
    return {
        "req_per_s": n_requests / cycles.sum(),
        "latency_p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "latency_p99_ms": float(np.percentile(latencies, 99)) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "setup_s": min(trial.setup_seconds for trial in trials),
    }


#: Ledger rows measured by spans, in the order the README lists them.
SPAN_ROWS = (
    "serve.accept",
    "serve.parse",
    "serve.hop",
    "serve.render",
    "serve.write",
    "trace.log",
    "overload.gate",
    "proxy.handle_self",
    "detection.update",
    "detection.account",
    "proxy.cache",
    "site.origin",
    "instrument.rewrite",
    "instrument.beacon",
    "trace.read",
    "trace.parse",
    "trace.to_request",
    "ingress.submit",
    "ingress.worker_self",
    "ml.observe",
    "ml.flush",
    "ingress.close",
    "detection.finalize",
)

#: Counts a workload does not produce are reported as 0 (its traffic
#: never reaches that layer), so every run prints every name.
EXACT_COUNTS = (
    "serve.requests",
    "serve.connections",
    "serve.keepalive_reuse_ratio",
    "serve.req_bytes_mean",
    "serve.resp_bytes_mean",
    "serve.status_200_ratio",
    "serve.parse_errors",
    "serve.shed",
    "proxy.cache_hit_ratio",
    "proxy.origin_request_ratio",
    "instrument.pages_ratio",
    "instrument.added_bytes_per_page",
    "detection.sessions_started",
    "detection.beacon_hit_ratio",
    "detection.blocked_ratio",
    "overload.gated_ratio",
    "state.sessions_live_peak",
    "state.probes_registered",
    "trace.lines",
    "trace.malformed",
    "ingress.events",
    "ingress.high_watermark",
    "ml.flushes",
    "ml.batch_size_mean",
    "ml.sessions_scored",
)


def ledger(
    traced: list[Trial],
    untraced: list[Trial],
    n_requests: int,
    floor_us: float | None,
) -> dict[str, float]:
    """The per-request cost ledger, in microseconds per request.

    For every cycle the rows are read from the traced trial in which
    that cycle was shortest — the same floor the end-to-end numbers
    use — so the rows of one cycle were measured together and add up to
    its time.  ``floor_us`` is the live workloads' load-generator floor
    (``None`` on the offline replay, whose clock has no client in it).
    """
    cycles = np.stack([trial.cycles for trial in traced])
    best = np.argmin(cycles, axis=0)
    columns = np.arange(cycles.shape[1])
    scale = 1e6 / n_requests
    mean_cycle_us = cycles[best, columns].sum() * scale
    metrics: dict[str, float] = {}
    attributed = 0.0
    for row in SPAN_ROWS:
        per_trial = np.stack(
            [
                trial.rows.get(row, np.zeros(cycles.shape[1] + 1))
                for trial in traced
            ]
        )
        value = per_trial[best, columns].sum() * scale
        metrics[f"{row}_us"] = value
        attributed += value
    # On the live workloads sessions are finalized after the clock has
    # stopped, so the row's in-clock part above is 0 there; report the
    # whole of it, amortised, without adding it to the sum.
    metrics["detection.finalize_us"] = scale * min(
        trial.rows["detection.finalize"].sum() for trial in traced
    )
    if floor_us is not None:
        metrics["loadgen.floor_us"] = floor_us
        metrics["serve.unattributed_us"] = unattributed = (
            mean_cycle_us - attributed - floor_us
        )
        metrics["trace.engine_self_us"] = 0.0
    else:
        metrics["loadgen.floor_us"] = 0.0
        metrics["serve.unattributed_us"] = 0.0
        metrics["trace.engine_self_us"] = unattributed = (
            mean_cycle_us - attributed
        )
    metrics["ledger.attributed_ratio"] = 1 - unattributed / mean_cycle_us
    metrics["ledger.cycle_mean_us"] = mean_cycle_us
    metrics["obs.trace_overhead_ratio"] = mean_cycle_us / (
        _floor(untraced, "cycles").sum() * scale
    )
    return metrics


# -- one run -----------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Prepare, measure and verify one workload; returns every number."""
    workload = WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as directory:
        prepare_started = perf_counter()
        # The one process a run starts; ``subprocess.run`` returns only
        # once it has ended, and kills it first if this process is
        # interrupted.
        subprocess.run(
            [
                sys.executable,
                os.path.join(HERE, "prepare.py"),
                name,
                str(seed),
                str(workload.sessions),
                directory,
            ],
            check=True,
        )
        with open(os.path.join(directory, PREPARED), "rb") as handle:
            prepared = pickle.load(handle)
        prepare_seconds = perf_counter() - prepare_started
        return _measure(
            workload, seed, seconds, trace, prepared, prepare_seconds
        )


def _measure(workload, seed, seconds, trace, prepared, prepare_seconds) -> dict:
    floor_us = None
    spans_path = None
    if isinstance(workload, ReplayWorkload):
        n_requests = prepared.lines

        def one_trial(tracer: Tracer | None = None) -> Trial:
            return _replay_trial(seed, prepared, tracer)

    else:
        script, reference = prepared
        n_requests = script.n_requests

        def one_trial(tracer: Tracer | None = None) -> Trial:
            return asyncio.run(
                _live_trial(workload, seed, script, reference, tracer)
            )

        if trace:
            passes = [
                asyncio.run(measure_floor(script))
                for _ in range(FLOOR_PASSES)
            ]
            floor_cycles = np.min(
                np.stack([np.diff(np.array(p.ends)) for p in passes]), axis=0
            )
            floor_us = floor_cycles.sum() * 1e6 / n_requests

    if not trace:
        trials = _run_trials(one_trial, seconds, MAX_TRIALS)
        metrics = end_to_end(trials, n_requests)
        traced: list[Trial] = []
    else:
        tracer = Tracer()

        def one_pair() -> tuple[Trial, Trial]:
            # Alternating keeps both kinds of trial under the same
            # weather, so their floors differ by the tracing alone.
            untraced = one_trial()
            with tracer.installed():
                return untraced, one_trial(tracer)

        pairs = _run_trials(
            one_pair, seconds, min(MAX_TRIALS, MAX_TRACED_TRIALS)
        )
        trials, traced = map(list, zip(*pairs))
        metrics = ledger(traced, trials, n_requests, floor_us)
        pages = traced[0].counts.get("instrument.pages_ratio", 0.0) * (
            traced[0].counts.get("serve.requests", 0)
        )
        metrics["instrument.us_per_page"] = _ratio(
            metrics["instrument.rewrite_us"] * n_requests, pages
        )
        spans_path = os.path.join(
            OUT_DIR, f"spans-{workload.name}-seed{seed}.jsonl"
        )
        write_spans(spans_path, tracer.nested)

    everything = trials + traced
    metrics.update(dict.fromkeys(EXACT_COUNTS, 0.0))
    metrics.update(everything[0].counts)
    metrics["state.rss_kib_per_session"] = _ratio(
        everything[0].rss_growth_kib,
        everything[0].counts["detection.sessions_started"],
    )
    metrics["loadgen.prepare_s"] = prepare_seconds
    for step in ("site.generate", "proxy.build", "serve.start", "ml.fit",
                 "ml.compile"):
        metrics[f"{step}_ms"] = 1e3 * min(
            trial.build_seconds.get(step, 0.0) for trial in everything
        )
    failed = sum(trial.failed for trial in everything)
    failed += _check_counts(everything)
    return {
        "workload": workload.name,
        "seed": seed,
        "requests": n_requests,
        "trials": len(trials),
        "traced_trials": len(traced),
        "attempted": n_requests * len(everything),
        "failed": failed,
        "metrics": metrics,
        "spans_path": spans_path,
        "environment": environment(),
    }
