"""Sharded-pipeline throughput: the costs and wins of this PR.

Two families of measurement:

* **sessions/sec through the detection pipeline at shard counts
  1 / 2 / 8** — the sharding refactor must be free at shards=1 and
  scale-neutral at higher counts (it buys partition structure, not
  single-thread speed; the win arrives with multiprocess executors);
* **AdaBoost scoring throughput, per-stump loop vs. packed-array
  vectorized pass** — the §4.2 ensemble at 200 rounds over a
  10k-session matrix, where the vectorized path must win by ≥ 5×.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.ml.adaboost import AdaBoostModel
from repro.ml.batch import BatchScorer
from repro.ml.stump import DecisionStump
from repro.proxy.network import ProxyNetwork
from repro.site.generator import SiteConfig, SiteGenerator
from repro.site.origin import OriginServer
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

BENCH_PIPELINE_SESSIONS = 120
SCORING_SESSIONS = 10_000
SCORING_ROUNDS = 200
SPEEDUP_FLOOR = 5.0

_SITE = SiteGenerator(SiteConfig(n_pages=16)).generate(RngStream(19, "bench"))
_ORIGIN = OriginServer(_SITE)
_ENTRY = f"http://{_SITE.host}{_SITE.home_path}"


def _run_workload(shards: int):
    network = ProxyNetwork(
        origins={_SITE.host: _ORIGIN},
        rng=RngStream(41, "bench-net"),
        n_nodes=2,
    )
    engine = WorkloadEngine(
        network,
        SMOKE,
        _ENTRY,
        RngStream(53, "bench-wl"),
        WorkloadConfig(
            n_sessions=BENCH_PIPELINE_SESSIONS,
            captcha_enabled=False,
            shards=shards,
        ),
    )
    return engine.run()


@pytest.mark.parametrize("shards", [1, 2, 8])
def test_bench_pipeline_sessions_per_second(benchmark, shards):
    """Full pipeline throughput at each shard count."""
    result = benchmark.pedantic(
        lambda: _run_workload(shards), rounds=3, iterations=1
    )
    assert result.analyzable_count > 0
    benchmark.extra_info["shards"] = shards
    benchmark.extra_info["sessions"] = BENCH_PIPELINE_SESSIONS
    benchmark.extra_info["requests"] = result.stats.requests
    # benchmark.stats is None in smoke mode (--benchmark-disable).
    if benchmark.stats is not None and benchmark.stats.stats.mean:
        benchmark.extra_info["sessions_per_sec"] = round(
            BENCH_PIPELINE_SESSIONS / benchmark.stats.stats.mean, 1
        )


def _scoring_fixture() -> tuple[AdaBoostModel, np.ndarray]:
    rng = np.random.default_rng(29)
    model = AdaBoostModel(n_features=12)
    for _ in range(SCORING_ROUNDS):
        model.stumps.append(
            DecisionStump(
                feature=int(rng.integers(12)),
                threshold=float(rng.uniform(0, 100)),
                polarity=int(rng.choice((-1, 1))),
            )
        )
        model.alphas.append(float(rng.uniform(0.05, 1.5)))
    matrix = rng.uniform(0, 100, size=(SCORING_SESSIONS, 12))
    return model, matrix


def test_bench_adaboost_score_vectorized(benchmark):
    """Packed-array scoring of 10k sessions × 200 rounds."""
    model, matrix = _scoring_fixture()
    model.compile()  # pay the one-time pack outside the timed region
    margins = benchmark(lambda: model.score(matrix))
    assert margins.shape == (SCORING_SESSIONS,)
    benchmark.extra_info["rounds"] = SCORING_ROUNDS
    benchmark.extra_info["sessions"] = SCORING_SESSIONS


def test_bench_adaboost_score_loop(benchmark):
    """The pre-vectorization per-stump loop on the same inputs."""
    model, matrix = _scoring_fixture()
    margins = benchmark.pedantic(
        lambda: model.score_loop(matrix), rounds=3, iterations=1
    )
    assert margins.shape == (SCORING_SESSIONS,)
    benchmark.extra_info["rounds"] = SCORING_ROUNDS
    benchmark.extra_info["sessions"] = SCORING_SESSIONS


def test_vectorized_scoring_speedup_floor(request):
    """Acceptance: vectorized beats the loop ≥ 5× on 10k × 200."""
    model, matrix = _scoring_fixture()
    model.compile()
    np.testing.assert_allclose(
        model.score(matrix), model.score_loop(matrix), atol=1e-9
    )
    if request.config.getoption("benchmark_disable"):
        pytest.skip(
            "smoke mode (--benchmark-disable): equivalence checked, "
            "wall-clock floor not asserted"
        )

    def best_of(fn, repeats: int = 5) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            fn(matrix)
            best = min(best, time.perf_counter() - start)
        return best

    loop_time = best_of(model.score_loop)
    vectorized_time = best_of(model.score)
    speedup = loop_time / vectorized_time
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized scoring only {speedup:.1f}x faster than the "
        f"per-stump loop (need >= {SPEEDUP_FLOOR}x): "
        f"loop {loop_time * 1e3:.2f}ms vs vectorized "
        f"{vectorized_time * 1e3:.2f}ms"
    )


def test_bench_batch_scorer_flush(benchmark):
    """BatchScorer: buffer 10k sessions, score one matrix per flush."""
    model, matrix = _scoring_fixture()
    model.compile()

    def run():
        scorer = BatchScorer(model, batch_size=SCORING_SESSIONS + 1)
        for row_index in range(SCORING_SESSIONS):
            scorer.add(f"s{row_index}", matrix[row_index])
        return scorer.flush()

    verdicts = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(verdicts) == SCORING_SESSIONS
    benchmark.extra_info["sessions"] = SCORING_SESSIONS
