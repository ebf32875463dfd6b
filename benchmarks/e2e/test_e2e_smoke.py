"""Smoke test of the repo benchmark at toy size (tier-1, a few seconds).

Each workload runs through the real command line with a handful of
sessions and two trials: it must print exactly the metric names and
units ``BENCHMARK.json`` declares, report no failed operation, and make
the same inputs from the same seed.  One traced toy run checks that the
span file nests and that the ledger is computed.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import run  # noqa: E402
from tracing import STAGE_SKEW  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)

TOY_SESSIONS = {
    "live_browse": 5,
    "live_abuse": 6,
    "live_churn": 12,
    "replay_offline": 8,
}
SEED = 3


@pytest.fixture(autouse=True)
def toy_size(monkeypatch):
    """Shrink every workload and undo the runner's CPU pinning."""
    for name, sessions in TOY_SESSIONS.items():
        monkeypatch.setitem(
            harness.WORKLOADS,
            name,
            dataclasses.replace(harness.WORKLOADS[name], sessions=sessions),
        )
    monkeypatch.setattr(harness, "MAX_TRIALS", 2)
    affinity = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, affinity)


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, list[str]]:
    code = run.main(
        [
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0",
            "--trace", str(trace),
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1]), lines


def test_contract_names_the_four_workloads():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(TOY_SESSIONS)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("workload", list(TOY_SESSIONS))
def test_workload_prints_the_contract_metrics_and_nothing_fails(
    capsys, workload
):
    code, result, _ = _run(capsys, workload, trace=0)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", ["live_abuse", "replay_offline"])
def test_one_seed_makes_one_set_of_inputs(tmp_path, workload):
    sessions = TOY_SESSIONS[workload]
    first = harness.prepare(workload, SEED, sessions, str(tmp_path))
    second = harness.prepare(workload, SEED, sessions, str(tmp_path))
    assert first == second
    other = harness.prepare(workload, SEED + 1, sessions, str(tmp_path))
    assert first != other


def test_traced_run_prints_the_ledger_and_writes_nested_spans(capsys):
    code, result, lines = _run(capsys, "live_churn", trace=1)
    assert code == 0
    assert result["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(value) for value in values.values())
    assert values["ledger.attributed_ratio"] < 1
    assert values["instrument.rewrite_us"] > 0
    assert values["serve.accept_us"] > 0
    # The offline replay's rows are absent from a live workload.
    assert values["trace.parse_us"] == values["ml.flush_us"] == 0
    assert values["serve.connections"] == TOY_SESSIONS["live_churn"]

    (spans_line,) = [line for line in lines if line.startswith("spans: ")]
    path = os.path.join(ROOT, spans_line.split(": ", 1)[1])
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    assert {"proxy.handle_self", "serve.hop", "serve.parse"} <= {
        span["name"] for span in spans
    }
    children = [span for span in spans if span["parent"] >= 0]
    assert children
    for span in children:
        parent = spans[span["parent"]]
        assert parent["start"] - STAGE_SKEW <= span["start"] < parent["end"]
        assert span["request_id"] == parent["request_id"]
