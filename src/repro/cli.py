"""Command-line entry point: ``python -m repro <command> [options]``.

Two command families share the entry point:

* experiment commands regenerate the paper's tables and figures
  (``table1``, ``figure2``, ..., ``all``, ``list``);
* trace commands move workloads in and out of access logs:
  ``record`` exports a synthetic workload as a Combined Log Format
  trace (plus probe journal), ``replay`` streams a trace — recorded or
  real — through the detection pipeline, ``stats`` renders a metrics
  snapshot (``--metrics-out``) as a table, Prometheus text, or
  canonical JSON, ``profile`` prints per-stage critical-path
  attribution from a span trace (``--trace-out``), and ``serve``
  mounts the pipeline behind a live asyncio HTTP/1.1 socket with
  live CLF logging (``--swarm N`` drives agent sessions at it).

Examples::

    python -m repro list
    python -m repro table1 --sessions 2000 --seed 7 \
        --metrics-out metrics.json --flight-interval 3600
    python -m repro all --sessions 1000 --ml-sessions 800
    python -m repro record --out week.log.gz --probes week.keys.gz \
        --sessions 500 --arrival diurnal
    python -m repro replay --trace week.log.gz --probes week.keys.gz \
        --metrics-out metrics.json --flight-interval 3600 \
        --trace-out spans.json
    python -m repro stats metrics.json --format prometheus
    python -m repro profile spans.json --limit 10
    python -m repro serve --swarm 100 --trace live.log.gz \
        --probes live.keys.gz
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.analysis.report import generate_report
from repro.experiments.registry import EXPERIMENTS

_WORKLOAD_EXPERIMENTS = ("table1", "figure2", "figure3", "overhead")
_ML_EXPERIMENTS = ("table2", "figure4")

_TRACE_COMMANDS = ("record", "replay", "stats", "profile", "serve")


def build_parser() -> argparse.ArgumentParser:
    """The experiment-command argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce 'Securing Web Service by Automatic Robot "
            "Detection' (USENIX ATC 2006): regenerate any table or "
            "figure from the paper's evaluation.  Trace tooling: "
            "'repro record' exports a workload as an access log, "
            "'repro replay' runs a log through the detectors."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*sorted(EXPERIMENTS), "all", "list"],
        help="experiment id, 'all' for the full report, 'list' to enumerate",
    )
    parser.add_argument(
        "--sessions", type=int, default=1000,
        help="CoDeeN-week sessions (paper: 929,922; default 1000)",
    )
    parser.add_argument(
        "--ml-sessions", type=int, default=800,
        help="ML-study sessions (paper: 167,246; default 800)",
    )
    parser.add_argument(
        "--seed", type=int, default=2006, help="workload seed"
    )
    parser.add_argument(
        "--ml-seed", type=int, default=4242, help="ML-study seed"
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="write the experiment workload's metrics snapshot (and any "
             "flight frames) as repro.obs JSON (workload experiments)",
    )
    parser.add_argument(
        "--flight-interval", type=float, default=0,
        help="flight recorder: sample a metrics frame every N virtual "
             "seconds of workload time (0 disables; workload "
             "experiments that expose it)",
    )
    return parser


def build_record_parser() -> argparse.ArgumentParser:
    """Parser for ``repro record``."""
    parser = argparse.ArgumentParser(
        prog="repro record",
        description=(
            "Run a synthetic workload and export it as a Combined Log "
            "Format trace plus the probe journal a faithful replay "
            "needs.  The CAPTCHA funnel is disabled: its outcomes are "
            "out-of-band and leave no access-log footprint."
        ),
    )
    parser.add_argument(
        "--out", required=True,
        help="trace file to write (.gz compresses)",
    )
    parser.add_argument(
        "--probes", default=None,
        help="probe journal to write alongside the trace (.gz compresses)",
    )
    parser.add_argument(
        "--mix", default="codeen_week",
        help="population mix name (default codeen_week)",
    )
    parser.add_argument("--sessions", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument(
        "--duration", default="1w",
        help="experiment window, e.g. 90s / 1.5h / 1w (default 1w)",
    )
    parser.add_argument(
        "--mode", choices=("interleaved", "pipelined"),
        default="interleaved",
        help="where the ingress lanes run: 'interleaved' inline, "
             "'pipelined' on --executor (never changes results)",
    )
    parser.add_argument(
        "--arrival", choices=("uniform", "diurnal", "burst"),
        default="uniform",
        help="session arrival profile",
    )
    _add_lane_options(parser, unit="whole sessions", clock="workload")
    _add_trace_out_options(parser)
    return parser


def _add_lane_options(
    parser: argparse.ArgumentParser, unit: str, clock: str
) -> None:
    """The ingress-lane and telemetry options record and replay share."""
    parser.add_argument(
        "--shards", type=int, default=0,
        help="hash-partition detection state into N shards per node, "
             "one ingress lane each (0 = keep the network as built; "
             "every node has one shard by default; shard count never "
             "changes results)",
    )
    parser.add_argument(
        "--executor", choices=("serial", "process"),
        default=None,
        help="where an ingress lane runs (default serial: inline; "
             "'process': each lane in its own interpreter, in parallel, "
             "behind a pipe of --queue-depth events; executor choice "
             "never changes results)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=0,
        help="per-lane pipe bound in events for --executor process "
             "(0 = unbounded)",
    )
    parser.add_argument(
        "--shed", nargs="?", const="shed", default=None,
        choices=("shed", "adaptive"), metavar="POLICY",
        help="load-shedding policy, for --executor process (inline "
             "lanes have no backlog to shed from): 'shed' (the default "
             f"when the flag is given bare) drops and counts {unit} when "
             "a lane's pipe is full (needs --queue-depth); 'adaptive' "
             "sheds at the front door once a lane's predicted queue "
             "delay exceeds --delay-budget, with hysteresis and per-IP "
             "fairness",
    )
    parser.add_argument(
        "--delay-budget", type=float, default=1.0, metavar="SECONDS",
        help="predicted per-lane queue delay in wall seconds that "
             "triggers adaptive shedding (default 1.0; only with --shed "
             "adaptive)",
    )
    parser.add_argument(
        "--metrics-out", default=None,
        help="write the run's metrics snapshot (and any flight-recorder "
             "frames) as repro.obs JSON",
    )
    parser.add_argument(
        "--flight-interval", type=float, default=0,
        help="flight recorder: sample a metrics frame every N virtual "
             f"seconds of {clock} time (0 disables)",
    )


def _lane_config(args) -> dict:
    """Engine-config keywords for the :func:`_add_lane_options` flags."""
    adaptive = None
    if args.shed == "adaptive":
        from repro.overload.admission import AdaptiveConfig

        adaptive = AdaptiveConfig(delay_budget=args.delay_budget)
    return dict(
        shards=args.shards,
        executor=args.executor or "serial",
        queue_depth=args.queue_depth or None,
        shed=args.shed == "shed",
        adaptive=adaptive,
        flight_interval=args.flight_interval or None,
    )


def _add_trace_out_options(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace-out`` / ``--trace-sample`` / ``--trace-clock``."""
    parser.add_argument(
        "--trace-out", default=None,
        help="tail-sample span traces and write them as Chrome "
             "trace-event JSON for Perfetto / 'repro profile'",
    )
    parser.add_argument(
        "--trace-sample", type=int, default=None, metavar="N",
        help="per-category trace budget for --trace-out: keep N "
             "exemplar traces each for head/slow/error/shed and 2N for "
             "robot verdicts (default 16)",
    )
    parser.add_argument(
        "--trace-clock", choices=("wall", "virtual"), default="wall",
        help="clock domain for --trace-out: 'wall' for profiling, "
             "'virtual' for byte-identical deterministic traces "
             "(default wall)",
    )


def build_replay_parser() -> argparse.ArgumentParser:
    """Parser for ``repro replay``."""
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description=(
            "Stream one or more access logs through a fresh detection "
            "deployment in global timestamp order and report the "
            "session census and set-algebra bounds."
        ),
    )
    parser.add_argument(
        "--trace", required=True, nargs="+",
        help="trace file(s); several are heap-merged by timestamp",
    )
    parser.add_argument(
        "--probes", default=None,
        help="probe journal recorded with the trace (full fidelity)",
    )
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument(
        "--housekeeping", type=float, default=600.0,
        help="virtual seconds between maintenance sweeps (0 disables)",
    )
    parser.add_argument(
        "--default-host", default=None,
        help="host for origin-form request targets in real logs (GET /x)",
    )
    parser.add_argument(
        "--sorted", action="store_true", dest="assume_sorted",
        help="trust source ordering (constant-memory streaming)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="abort on the first malformed line instead of skipping",
    )
    parser.add_argument(
        "--ladder", action="store_true",
        help="graduated response ladder (throttle -> CAPTCHA -> "
             "block), escalated live from micro-batch checkpoint "
             "verdicts per client IP (needs --score-rounds)",
    )
    parser.add_argument(
        "--score-rounds", type=int, default=0,
        help="micro-batch ensemble scoring per lane with a seeded "
             "demonstration model of N stumps (0 disables; verdicts "
             "exercise the pipeline, they are not trained judgements)",
    )
    _add_lane_options(parser, unit="events", clock="trace")
    _add_trace_out_options(parser)
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    """Parser for ``repro stats``."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description=(
            "Render a repro.obs metrics snapshot (written by 'repro "
            "record/replay --metrics-out') as a human-readable table, "
            "Prometheus text exposition, or canonical JSON."
        ),
    )
    parser.add_argument(
        "metrics",
        help="metrics snapshot JSON file (schema repro.obs/v1)",
    )
    parser.add_argument(
        "--format", choices=("table", "prometheus", "json"),
        default="table",
        help="output format (default table)",
    )
    parser.add_argument(
        "--deterministic", action="store_true",
        help="restrict to the deterministic domain (drop wall-clock "
             "timings and depth gauges)",
    )
    parser.add_argument(
        "--flight", action="store_true",
        help="render each flight-recorder frame instead of the final "
             "snapshot",
    )
    return parser


def build_profile_parser() -> argparse.ArgumentParser:
    """Parser for ``repro profile``."""
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description=(
            "Read a span trace (written by 'repro record/replay "
            "--trace-out') and print per-stage critical-path "
            "attribution: count, total and self time plus p50/p95/p99 "
            "per named stage, in the clock domain the file was "
            "exported with."
        ),
    )
    parser.add_argument(
        "trace",
        help="Chrome trace-event JSON file (schema repro.spans/v1)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the top N stages by self time",
    )
    return parser


def _span_config(args):
    """Build the tail-sampling config the ``--trace-*`` flags describe.

    Returns ``None`` when tracing is off; raises ``ValueError`` on
    inconsistent flags so each command prints its own prefix.
    """
    from repro.obs.spans import SpanConfig

    if args.trace_out is None:
        if args.trace_sample is not None:
            raise ValueError("--trace-sample needs --trace-out")
        return None
    if args.trace_sample is not None:
        if args.trace_sample < 1:
            raise ValueError("--trace-sample must be >= 1")
        return SpanConfig.uniform(args.trace_sample)
    return SpanConfig()


def _write_trace(path: str, traces, clock: str) -> None:
    """Write retained span trees as canonical Chrome trace-event JSON."""
    from repro.obs.spans import to_trace_events

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_trace_events(traces, clock=clock))
        handle.write("\n")
    print(
        f"wrote {len(traces)} sampled span trace(s), {clock} clock "
        f"-> {path}"
    )


def run_record(argv: list[str]) -> int:
    """Execute ``repro record``."""
    from repro.trace.arrival import profile_by_name
    from repro.trace.recorder import record_workload
    from repro.util.rng import RngStream
    from repro.util.timeutil import parse_duration
    from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment
    from repro.workload.engine import WorkloadConfig, WorkloadEngine
    from repro.workload.mixes import mix_by_name

    args = build_record_parser().parse_args(argv)
    try:
        mix = mix_by_name(args.mix)
        duration = parse_duration(args.duration)
        spans = _span_config(args)
        experiment = CodeenWeekExperiment(
            CodeenWeekConfig(
                n_sessions=args.sessions, n_nodes=args.nodes,
                seed=args.seed, duration=duration,
            )
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro record: {message}", file=sys.stderr)
        return 2

    rng = RngStream(args.seed, "record")
    network, entry_url = experiment.build_network(rng)
    try:
        workload_config = WorkloadConfig(
            n_sessions=args.sessions,
            duration=duration,
            captcha_enabled=False,
            mode=args.mode,
            arrival=profile_by_name(args.arrival),
            spans=spans,
            **_lane_config(args),
        )
    except ValueError as exc:
        # e.g. --shed adaptive on lanes that run inline: nothing queues.
        print(f"repro record: {exc}", file=sys.stderr)
        return 2
    engine = WorkloadEngine(
        network, mix, entry_url, rng.split("workload"), workload_config
    )
    try:
        result, recorder = record_workload(engine, args.out, args.probes)
    except ValueError as exc:
        # e.g. --mode pipelined --executor process: the recorder's taps
        # cannot observe lanes running in child interpreters.
        print(f"repro record: {exc}", file=sys.stderr)
        return 2

    print(f"wrote {len(recorder.records)} requests -> {args.out}")
    if args.probes:
        print(f"wrote {len(recorder.probes)} probe registrations -> "
              f"{args.probes}")
    print(f"analyzable sessions: {result.analyzable_count}")
    for kind, count in sorted(result.kind_census().items()):
        print(f"  {kind:20s} {count}")
    if result.overload is not None:
        report = result.overload
        episodes = sum(lane.entered for lane in report.lanes)
        print(
            f"adaptive admission: {report.shed} shed / "
            f"{report.admitted} admitted over {episodes} overload "
            f"episode(s)"
        )
    if args.metrics_out:
        _write_metrics(args.metrics_out, result.metrics, result.flight)
    if args.trace_out:
        _write_trace(args.trace_out, result.spans, args.trace_clock)
    return 0


def _write_metrics(path: str, snapshot, flight=()) -> None:
    """Write a snapshot (plus flight frames) as repro.obs JSON."""
    from repro.obs.export import to_json

    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_json(snapshot, flight=flight))
        handle.write("\n")
    suffix = f" ({len(flight)} flight frames)" if flight else ""
    print(f"wrote metrics snapshot{suffix} -> {path}")


def _print_ingress_summary(metrics, lanes: bool) -> None:
    """Surface per-lane admission balance and cache-expiry telemetry."""
    if lanes:
        admitted = {
            dict(p.labels).get("lane", "?"): p.value
            for p in metrics.series("repro_ingress_admitted_total")
        }
        shed = {
            dict(p.labels).get("lane", "?"): p.value
            for p in metrics.series("repro_ingress_shed_total")
        }
        marks = {
            dict(p.labels).get("lane", "?"): p.value
            for p in metrics.series("repro_ingress_queue_high_watermark")
        }
        print("ingress lanes:")
        for lane in sorted(admitted, key=lambda v: int(v)):
            print(
                f"  lane {lane}: admitted={int(admitted[lane])} "
                f"shed={int(shed.get(lane, 0))} "
                f"queue high-watermark={int(marks.get(lane, 0))}"
            )
    flushes = metrics.total("repro_batch_flush_total")
    if flushes:
        scored = metrics.total("repro_batch_sessions_scored_total")
        print(
            f"micro-batch scoring: {int(scored)} session scores in "
            f"{int(flushes)} flushes"
        )
    expired = metrics.total("repro_cache_expired_total")
    if expired:
        print(f"cache: {int(expired)} expired entries swept")


def run_replay(argv: list[str]) -> int:
    """Execute ``repro replay``."""
    from repro.proxy.network import ProxyNetwork
    from repro.trace.replay import ReplayConfig, TraceReplayEngine
    from repro.util.rng import RngStream
    from repro.util.timeutil import format_duration

    args = build_replay_parser().parse_args(argv)
    if args.ladder and not args.score_rounds:
        print(
            "repro replay: --ladder needs --score-rounds (checkpoint "
            "verdicts from the micro-batch model drive the escalation)",
            file=sys.stderr,
        )
        return 2
    try:
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "replay"),
            n_nodes=args.nodes,
            instrument_enabled=False,
        )
        spans = _span_config(args)
        ladder = None
        if args.ladder:
            from repro.overload.ladder import LadderConfig

            ladder = LadderConfig()
        config = ReplayConfig(
            housekeeping_interval=args.housekeeping,
            assume_sorted=args.assume_sorted,
            default_host=args.default_host,
            strict=args.strict,
            ladder=ladder,
            scorer_model=(
                _demo_model(args.score_rounds) if args.score_rounds
                else None
            ),
            spans=spans,
            **_lane_config(args),
        )
    except ValueError as exc:
        print(f"repro replay: {exc}", file=sys.stderr)
        return 2
    engine = TraceReplayEngine(network, config)
    from repro.trace.clf import TraceParseError

    try:
        result = engine.replay(*args.trace, probes=args.probes)
    except OSError as exc:
        print(f"repro replay: {exc}", file=sys.stderr)
        return 2
    except TraceParseError as exc:
        print(f"repro replay: {exc}", file=sys.stderr)
        return 2

    stats = result.parse_stats
    print(
        f"replayed {result.requests_replayed} requests over "
        f"{format_duration(result.span)} "
        f"({stats.malformed} malformed lines skipped, "
        f"{result.probes_loaded} probes loaded)"
    )
    if result.stats.shed:
        print(
            f"load shed at admission: {result.stats.shed} events "
            f"({result.stats.queued} queued)"
        )
    if result.overload is not None:
        report = result.overload
        episodes = sum(lane.entered for lane in report.lanes)
        reasons = ", ".join(
            f"{reason}={count}"
            for reason, count in sorted(report.reasons.items())
        )
        print(
            f"adaptive admission: {report.shed} shed / "
            f"{report.admitted} admitted over {episodes} overload "
            f"episode(s)" + (f" [{reasons}]" if reasons else "")
        )
    if result.ladder is not None:
        stages = {}
        for record in result.ladder["ips"].values():
            stages[record["stage"]] = stages.get(record["stage"], 0) + 1
        staged = ", ".join(
            f"{stage}={count}" for stage, count in sorted(stages.items())
        )
        print(
            f"response ladder: {len(result.ladder['ips'])} tracked "
            f"IP(s), {len(result.ladder['transitions'])} transition(s)"
            + (f" [{staged}]" if staged else "")
        )
        print(
            f"  throttled={result.stats.throttled} "
            f"challenged={result.stats.challenged} "
            f"blocked={result.stats.ladder_blocked}"
        )
    for sample in stats.samples:
        print(f"  malformed: {sample}")
    if result.requests_replayed == 0 and stats.malformed > 0:
        print(
            "hint: origin-form request targets (GET /path) need "
            "--default-host <site host>"
        )
    if result.probe_parse_stats.malformed:
        print(
            f"probe journal: {result.probe_parse_stats.malformed} "
            "malformed lines skipped"
        )
        for sample in result.probe_parse_stats.samples:
            print(f"  malformed: {sample}")
    print(f"analyzable sessions: {result.analyzable_count}")
    census = result.kind_census()
    for kind, count in sorted(census.items()):
        print(f"  {kind or '(unlabeled)':20s} {count}")
    summary = result.summary
    print(f"downloaded CSS:      {summary.fraction('css_downloads'):6.1%}")
    print(f"executed JavaScript: {summary.fraction('js_executions'):6.1%}")
    print(f"mouse movement:      {summary.fraction('mouse_movements'):6.1%}")
    print(f"human lower bound:   {summary.lower_bound:6.1%}")
    print(f"human upper bound:   {summary.upper_bound:6.1%}")
    print(f"max false positives: {summary.max_false_positive_rate:6.1%}")
    # Per-lane admission lines only when lanes were asked for by name:
    # the default run's output stays the census.
    _print_ingress_summary(result.metrics, lanes=args.executor is not None)
    if args.metrics_out:
        _write_metrics(args.metrics_out, result.metrics, result.flight)
    if args.trace_out:
        _write_trace(args.trace_out, result.spans, args.trace_clock)
    return 0


def _demo_model(rounds: int):
    from repro.ml.adaboost import demo_ensemble

    return demo_ensemble(rounds)


def run_stats(argv: list[str]) -> int:
    """Execute ``repro stats``."""
    from repro.obs.export import (
        render_table,
        snapshot_from_json,
        to_json,
        to_prometheus,
    )

    args = build_stats_parser().parse_args(argv)
    try:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            snapshot, flight = snapshot_from_json(handle.read())
    except (OSError, ValueError) as exc:
        print(f"repro stats: {exc}", file=sys.stderr)
        return 2

    if args.flight and not flight:
        print("repro stats: snapshot has no flight frames "
              "(replay with --flight-interval)", file=sys.stderr)
        return 2

    frames = flight if args.flight else [None]
    for frame in frames:
        snap = snapshot if frame is None else frame.metrics
        if args.deterministic:
            snap = snap.deterministic()
        if frame is not None:
            print(f"--- t={frame.tick:g} ---")
        if args.format == "prometheus":
            print(to_prometheus(snap), end="")
        elif args.format == "json":
            print(to_json(snap))
        else:
            print(render_table(snap))
    return 0


def run_profile(argv: list[str]) -> int:
    """Execute ``repro profile``."""
    from repro.obs.spans import profile_stages, trace_trees_from_json

    args = build_profile_parser().parse_args(argv)
    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            trees, clock = trace_trees_from_json(handle.read())
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 2
    if not trees:
        print(
            "repro profile: no span traces in file (record/replay with "
            "--trace-out)",
            file=sys.stderr,
        )
        return 2
    print(profile_stages(trees, clock=clock).render(limit=args.limit))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for ``repro serve``."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=(
            "Mount the detection pipeline behind a live asyncio "
            "HTTP/1.1 socket: a generated site, sharded detection and "
            "the CAPTCHA funnel, with live CLF logging.  --swarm N "
            "drives N agent sessions from a population mix against the "
            "server and exits; without it the server runs until "
            "interrupted."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="listening port (default 0: bind an ephemeral port)",
    )
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument(
        "--mix", default="codeen_week",
        help="population mix for --swarm (default codeen_week)",
    )
    parser.add_argument(
        "--swarm", type=int, default=0,
        help="drive N agent sessions against the server, then exit "
             "(default 0: serve until interrupted)",
    )
    parser.add_argument(
        "--concurrency", type=int, default=16,
        help="concurrent swarm sessions (default 16)",
    )
    parser.add_argument(
        "--trace", default=None,
        help="live CLF access log to write (.gz compresses)",
    )
    parser.add_argument(
        "--probes", default=None,
        help="probe journal to write at shutdown (.gz compresses)",
    )
    parser.add_argument(
        "--shed", choices=("block", "shed", "adaptive"), default="block",
        help="admission policy at the front door (default block: "
             "admit everything, unread sockets are the queue)",
    )
    parser.add_argument(
        "--delay-budget", type=float, default=0.05,
        help="adaptive admission: per-lane queue-delay budget in wall "
             "seconds (default 0.05)",
    )
    parser.add_argument(
        "--keep-alive-timeout", type=float, default=15.0,
        help="idle seconds before a keep-alive connection drops",
    )
    return parser


def run_serve(argv: list[str]) -> int:
    """Execute ``repro serve``."""
    import asyncio
    from dataclasses import replace

    from repro.http.uri import Url
    from repro.serve.server import DetectorServer, ServeConfig
    from repro.serve.swarm import SwarmConfig, run_swarm
    from repro.util.rng import RngStream
    from repro.workload.codeen import CodeenWeekConfig, CodeenWeekExperiment
    from repro.workload.mixes import mix_by_name

    args = build_serve_parser().parse_args(argv)
    try:
        mix_by_name(args.mix)
        adaptive = None
        if args.shed == "adaptive":
            from repro.overload.admission import AdaptiveConfig

            adaptive = AdaptiveConfig(delay_budget=args.delay_budget)
        config = ServeConfig(
            host=args.host,
            port=args.port,
            keep_alive_timeout=args.keep_alive_timeout,
            trace_path=args.trace,
            probes_path=args.probes,
            policy=args.shed,
            adaptive=adaptive,
        )
        experiment = CodeenWeekExperiment(
            CodeenWeekConfig(
                n_sessions=max(args.swarm, 1), n_nodes=args.nodes,
                seed=args.seed,
            )
        )
        # The port is known once the server is bound; everything else
        # is checked here, before the socket exists.
        swarm_config = SwarmConfig(
            host=args.host,
            sessions=args.swarm,
            mix_name=args.mix,
            seed=args.seed,
            concurrency=args.concurrency,
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"repro serve: {message}", file=sys.stderr)
        return 2

    network, entry_url = experiment.build_network(
        RngStream(args.seed, "serve")
    )
    default_host = Url.parse(entry_url).host

    async def serve() -> int:
        server = DetectorServer(
            network, default_host=default_host, config=config
        )
        await server.start()
        print(f"serving {entry_url} on {server.address}")
        if not args.swarm:
            try:
                await server.serve_forever()
            finally:
                await server.close()
            return 0
        result = await run_swarm(
            replace(swarm_config, port=server.port), entry_url
        )
        server.annotate_ground_truth(result.identities())
        await server.close()
        print(
            f"swarm: {result.requests} requests over "
            f"{len(result.reports)} sessions "
            f"({result.errors} transport errors)"
        )
        if args.trace:
            print(f"wrote {len(server.records)} requests -> {args.trace}")
        if args.probes:
            print(
                f"wrote {len(server.probes)} probe registrations -> "
                f"{args.probes}"
            )
        sessions = server.finalize_sessions()
        census: dict[str, int] = {}
        for state in sessions:
            census[state.agent_kind] = census.get(state.agent_kind, 0) + 1
        print(f"analyzable sessions: {len(sessions)}")
        for kind, count in sorted(census.items()):
            print(f"  {kind:20s} {count}")
        if server.shed_count:
            print(f"admission: {server.shed_count} request(s) shed")
        if server.parse_errors:
            print(f"malformed requests refused: {server.parse_errors}")
        return 0

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted", file=sys.stderr)
        return 130


def _experiment_workload(result):
    """The WorkloadResult an experiment result wraps, if it keeps one."""
    workload = getattr(result, "workload", None)
    if workload is None:
        workload = getattr(getattr(result, "result", None), "workload", None)
    return workload


def main(argv: list[str] | None = None) -> int:
    """Run the CLI; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _TRACE_COMMANDS:
        runner = {
            "record": run_record,
            "replay": run_replay,
            "stats": run_stats,
            "profile": run_profile,
            "serve": run_serve,
        }[argv[0]]
        return runner(argv[1:])

    args = build_parser().parse_args(argv)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    for flag, value in (
        ("--sessions", args.sessions), ("--ml-sessions", args.ml_sessions)
    ):
        if value < 1:
            print(
                f"repro {args.experiment}: {flag} must be >= 1",
                file=sys.stderr,
            )
            return 2

    if args.experiment == "all":
        if args.metrics_out or args.flight_interval:
            print(
                "repro: --metrics-out/--flight-interval need a single "
                "workload experiment (e.g. table1), not 'all'",
                file=sys.stderr,
            )
            return 2
        report = generate_report(
            n_sessions=args.sessions,
            ml_sessions=args.ml_sessions,
            seed=args.seed,
            ml_seed=args.ml_seed,
        )
        print(report.render())
        print(f"\ntotal: {report.total_seconds:.1f}s")
        return 0

    runner = EXPERIMENTS[args.experiment]
    if args.flight_interval and (
        "flight_interval" not in inspect.signature(runner).parameters
    ):
        print(
            f"repro: {args.experiment} does not take --flight-interval "
            "(its runner drives no instrumented workload)",
            file=sys.stderr,
        )
        return 2
    if args.experiment in _ML_EXPERIMENTS:
        result = runner(n_sessions=args.ml_sessions, seed=args.ml_seed)
    else:
        kwargs = {"n_sessions": args.sessions, "seed": args.seed}
        if args.flight_interval:
            kwargs["flight_interval"] = args.flight_interval
        result = runner(**kwargs)
    print(result.render())
    if args.metrics_out:
        workload = _experiment_workload(result)
        if workload is None:
            print(
                f"repro: {args.experiment} keeps no workload result; "
                "--metrics-out has nothing to write",
                file=sys.stderr,
            )
            return 2
        _write_metrics(args.metrics_out, workload.metrics, workload.flight)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
