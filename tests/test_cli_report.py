"""Tests for repro.cli and repro.analysis.report."""

from __future__ import annotations

import pytest

from repro.analysis.report import generate_report
from repro.cli import build_parser, main


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1", "--sessions", "50"])
        assert args.experiment == "table1"
        assert args.sessions == 50

    def test_rejects_unknown(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure9"])

    def test_defaults(self):
        args = build_parser().parse_args(["all"])
        assert args.sessions == 1000
        assert args.ml_sessions == 800


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "figure4" in out

    def test_run_table1(self, capsys):
        assert main(["table1", "--sessions", "120", "--seed", "61"]) == 0
        out = capsys.readouterr().out
        assert "Downloaded CSS" in out

    def test_run_figure3_reuses_cache(self, capsys):
        assert main(["figure3", "--sessions", "120", "--seed", "61"]) == 0
        out = capsys.readouterr().out
        assert "Robot" in out


class TestTraceCommands:
    def test_record_then_replay_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "t.log.gz")
        probes = str(tmp_path / "t.keys.gz")
        assert main([
            "record", "--out", trace, "--probes", probes,
            "--mix", "smoke", "--sessions", "40", "--seed", "61",
            "--nodes", "2",
        ]) == 0
        recorded = capsys.readouterr().out
        assert "analyzable sessions:" in recorded

        assert main([
            "replay", "--trace", trace, "--probes", probes,
            "--nodes", "2", "--sorted",
        ]) == 0
        replayed = capsys.readouterr().out
        assert "0 malformed lines skipped" in replayed
        # The replayed census reproduces the recorded census verbatim.
        census = lambda text: sorted(
            line.strip() for line in text.splitlines()
            if line.startswith("  ") and not line.startswith("  malformed")
        )
        assert census(replayed) == census(recorded.split("sessions:")[-1])

    def test_record_parser_defaults(self):
        from repro.cli import build_record_parser

        args = build_record_parser().parse_args(["--out", "x.log"])
        assert args.mix == "codeen_week"
        assert args.mode == "interleaved"
        assert args.arrival == "uniform"
        with pytest.raises(SystemExit):
            build_record_parser().parse_args(
                ["--out", "x.log", "--mode", "sequential"]
            )

    def test_record_and_replay_share_the_lane_options(self):
        from repro.cli import build_record_parser, build_replay_parser

        lane_flags = [
            "--shards", "2", "--executor", "process", "--queue-depth", "8",
            "--shed", "adaptive", "--delay-budget", "0.5",
            "--lanes-per-node", "2", "--metrics-out", "m.json",
            "--flight-interval", "60",
        ]
        shared = (
            "shards", "executor", "queue_depth", "shed", "delay_budget",
            "lanes_per_node", "metrics_out", "flight_interval",
        )
        record = build_record_parser().parse_args(
            ["--out", "x.log", *lane_flags]
        )
        replay = build_replay_parser().parse_args(
            ["--trace", "x.log", *lane_flags]
        )
        for name in shared:
            assert getattr(record, name) == getattr(replay, name)

    def test_shedding_needs_the_process_executor(self, capsys):
        # On the default inline lanes --shed could never shed: refused
        # like its neighbours, before any file is opened.
        for command in (
            ["replay", "--trace", "x.log"],
            ["record", "--out", "x.log", "--mode", "pipelined"],
        ):
            assert main([*command, "--shed", "--queue-depth", "8"]) == 2
            assert "process executor" in capsys.readouterr().err

    def test_executor_thread_is_refused_naming_the_two_that_exist(
        self, capsys
    ):
        with pytest.raises(SystemExit) as refused:
            main(["replay", "--trace", "x.log", "--executor", "thread"])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert "'serial'" in err and "'process'" in err

    def test_replay_parser_merges_multiple_traces(self):
        from repro.cli import build_replay_parser

        args = build_replay_parser().parse_args(
            ["--trace", "a.log", "b.log", "--strict"]
        )
        assert args.trace == ["a.log", "b.log"]
        assert args.strict

    def test_score_rounds_runs_on_the_default_executor(
        self, capsys, tmp_path
    ):
        trace = str(tmp_path / "t.log.gz")
        assert main([
            "record", "--out", trace, "--mix", "smoke",
            "--sessions", "20", "--seed", "61", "--nodes", "2",
        ]) == 0
        capsys.readouterr()
        assert main([
            "replay", "--trace", trace, "--nodes", "2", "--sorted",
            "--score-rounds", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "micro-batch scoring:" in out
        # Per-lane admission lines stay tied to an explicit --executor.
        assert "ingress lanes:" not in out


class TestMetricsCommands:
    """The observability acceptance path: --metrics-out + repro stats."""

    @pytest.fixture(scope="class")
    def replayed(self, tmp_path_factory):
        import contextlib
        import io

        tmp_path = tmp_path_factory.mktemp("metrics")
        trace = str(tmp_path / "t.log.gz")
        probes = str(tmp_path / "t.keys.gz")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main([
                "record", "--out", trace, "--probes", probes,
                "--mix", "smoke", "--sessions", "40", "--seed", "61",
                "--nodes", "2",
            ]) == 0
        out = str(tmp_path / "m.json")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main([
                "replay", "--trace", trace, "--probes", probes,
                "--nodes", "2", "--sorted", "--shards", "2",
                "--executor", "process", "--score-rounds", "8",
                "--flight-interval", "3600",
                "--metrics-out", out,
            ]) == 0
        return out, sink.getvalue()

    @pytest.fixture(scope="class")
    def metrics_file(self, replayed):
        return replayed[0]

    def test_snapshot_has_advertised_content(self, metrics_file):
        from repro.obs.export import snapshot_from_json

        with open(metrics_file, encoding="utf-8") as handle:
            snap, flight = snapshot_from_json(handle.read())
        assert sum(
            p.count for p in snap.series("repro_ingress_queue_wait_seconds")
        ) > 0
        shard_timers = snap.series("repro_detection_seconds")
        assert {dict(p.labels)["shard"] for p in shard_timers} == {"00", "01"}
        assert sum(p.count for p in shard_timers) > 0
        assert sum(
            p.count for p in snap.series("repro_batch_flush_sessions")
        ) > 0
        assert flight  # --flight-interval actually sampled

    def test_replay_summary_surfaces_lane_telemetry(self, replayed):
        _, out = replayed
        assert "ingress lanes:" in out
        assert "lane 0: admitted=" in out
        assert "queue high-watermark=" in out
        assert "micro-batch scoring:" in out
        assert "wrote metrics snapshot" in out

    @pytest.mark.parametrize("fmt", ["table", "prometheus", "json"])
    def test_stats_formats(self, metrics_file, capsys, fmt):
        assert main(["stats", metrics_file, "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert "repro_detection_seconds" in out
        if fmt == "prometheus":
            assert "# TYPE repro_detection_seconds histogram" in out
            assert 'le="+Inf"' in out

    def test_stats_deterministic_filter(self, metrics_file, capsys):
        assert main([
            "stats", metrics_file, "--format", "json", "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert '"wall":true' not in out

    def test_stats_flight_frames(self, metrics_file, capsys):
        assert main(["stats", metrics_file, "--flight"]) == 0
        out = capsys.readouterr().out
        assert "--- t=" in out

    def test_stats_rejects_non_snapshot(self, tmp_path, capsys):
        bogus = tmp_path / "not_metrics.json"
        bogus.write_text('{"points": []}')
        assert main(["stats", str(bogus)]) == 2
        assert "schema" in capsys.readouterr().err


class TestTraceProfileCommands:
    """Span tracing from the CLI: --trace-out and repro profile."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        import contextlib
        import io

        tmp_path = tmp_path_factory.mktemp("spans")
        trace = str(tmp_path / "t.log.gz")
        probes = str(tmp_path / "t.keys.gz")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main([
                "record", "--out", trace, "--probes", probes,
                "--mix", "smoke", "--sessions", "40", "--seed", "61",
                "--nodes", "2",
            ]) == 0
        spans = str(tmp_path / "spans.json")
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            assert main([
                "replay", "--trace", trace, "--probes", probes,
                "--nodes", "2", "--sorted",
                "--trace-out", spans, "--trace-sample", "4",
            ]) == 0
        return spans, sink.getvalue()

    def test_trace_out_writes_valid_trace_events(self, traced):
        import json

        spans, out = traced
        assert "sampled span trace(s)" in out
        document = json.loads(open(spans, encoding="utf-8").read())
        assert document["otherData"]["schema"] == "repro.spans/v1"
        assert document["otherData"]["clock"] == "wall"
        phases = {e["ph"] for e in document["traceEvents"]}
        assert phases == {"M", "X"}

    def test_profile_renders_attribution_table(self, traced, capsys):
        spans, _ = traced
        assert main(["profile", spans]) == 0
        out = capsys.readouterr().out
        assert "wall clock" in out
        assert "handle" in out
        assert "detection" in out
        assert "attributed to named stages:" in out

    def test_profile_limit(self, traced, capsys):
        spans, _ = traced
        assert main(["profile", spans, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        # Header + summary + exactly one stage row.
        stage_rows = [
            line for line in out.splitlines()[2:]
            if line and not line.startswith("attributed")
        ]
        assert len(stage_rows) == 1

    def test_profile_rejects_non_trace_file(self, tmp_path, capsys):
        bogus = tmp_path / "nope.json"
        bogus.write_text('{"traceEvents": []}')
        assert main(["profile", str(bogus)]) == 2
        assert "schema" in capsys.readouterr().err

    def test_trace_sample_needs_trace_out(self, capsys):
        assert main([
            "replay", "--trace", "x.log", "--trace-sample", "4",
        ]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_record_trace_out_works_without_a_mode(self, tmp_path, capsys):
        spans = tmp_path / "s.json"
        assert main([
            "record", "--out", str(tmp_path / "t.log"),
            "--trace-out", str(spans),
            "--mix", "smoke", "--sessions", "10",
        ]) == 0
        assert "sampled span trace(s)" in capsys.readouterr().out
        assert main(["profile", str(spans)]) == 0
        assert "handle" in capsys.readouterr().out


class TestExperimentMetricsOut:
    """--metrics-out / --flight-interval on experiment subcommands."""

    def test_table1_writes_workload_metrics(self, tmp_path, capsys):
        out = str(tmp_path / "m.json")
        assert main([
            "table1", "--sessions", "120", "--seed", "61",
            "--flight-interval", "90000", "--metrics-out", out,
        ]) == 0
        assert "wrote metrics snapshot" in capsys.readouterr().out
        from repro.obs.export import snapshot_from_json

        snap, flight = snapshot_from_json(open(out, encoding="utf-8").read())
        assert snap.series("repro_detection_seconds")
        assert flight  # --flight-interval reached the workload engine

    def test_flight_interval_rejected_when_runner_lacks_it(self, capsys):
        assert main([
            "figure3", "--sessions", "120", "--seed", "61",
            "--flight-interval", "90000",
        ]) == 2
        assert "--flight-interval" in capsys.readouterr().err

    def test_metrics_out_rejected_for_all(self, capsys):
        assert main([
            "all", "--metrics-out", "m.json",
        ]) == 2
        assert "single workload experiment" in capsys.readouterr().err


class TestReport:
    def test_subset_report(self):
        report = generate_report(
            n_sessions=120,
            seed=61,
            experiments=("table1", "figure2"),
        )
        text = report.render()
        assert "table1" in text
        assert "figure2" in text
        assert report.total_seconds > 0
        assert len(report.sections) == 2

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            generate_report(experiments=("nope",))
