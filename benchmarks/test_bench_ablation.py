"""Ablation benches for the paper's design choices.

1. decoy count ``m`` vs blind-fetcher catch probability (§2.1's m/(m+1));
2. CSS-only vs mouse-only vs combined set-algebra classification quality
   (§3.1's "quick" vs "accurate" trade-off);
3. AdaBoost rounds vs accuracy (the 200-round choice in §4.2);
4. single-attribute classifiers vs the full 12 (attribute selection).
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_ML_SEED
from repro.detection.verdict import Label
from repro.instrument.js_beacon import (
    build_beacon_script,
    extract_all_script_urls,
)
from repro.ml.adaboost import AdaBoostClassifier
from repro.ml.dataset import build_matrix
from repro.ml.evaluate import accuracy, train_test_split
from repro.ml.features import ATTRIBUTE_NAMES
from repro.util.rng import RngStream


def test_bench_decoy_count_ablation(benchmark):
    """Empirical blind-fetch catch rate vs the m/(m+1) guarantee."""
    rng = RngStream(11, "ablation-decoys")
    trials = 700

    def measure(m: int) -> float:
        wrong = 0
        for i in range(trials):
            script = build_beacon_script(
                rng.split(f"m{m}-{i}"), "h.com", decoys=m
            )
            urls = extract_all_script_urls(script.source)
            if rng.choice(urls) != f"http://h.com{script.real_image_path}":
                wrong += 1
        return wrong / trials

    results = benchmark.pedantic(
        lambda: {m: measure(m) for m in (1, 2, 4, 8)},
        rounds=1, iterations=1,
    )

    print("\nAblation: decoy count m vs blind-fetcher catch probability")
    print(f"{'m':>3} {'measured':>9} {'m/(m+1)':>9}")
    for m, caught in results.items():
        expected = m / (m + 1)
        print(f"{m:>3} {caught:>9.3f} {expected:>9.3f}")
        assert abs(caught - expected) < 0.06
        benchmark.extra_info[f"catch@m={m}"] = round(caught, 3)


def test_bench_classifier_ablation(benchmark, codeen_week):
    """CSS-only vs mouse-only vs combined classification vs ground truth."""

    def evaluate():
        sessions = [s for s in codeen_week.sessions if s.true_label]
        out = {}
        for name, rule in (
            ("css_only", lambda s: s.in_css_set),
            ("mouse_only", lambda s: s.in_mouse_set),
            ("set_algebra", lambda s: s.is_human_by_set_algebra),
        ):
            correct = sum(
                1
                for s in sessions
                if rule(s) == (s.true_label == "human")
            )
            human_calls = [s for s in sessions if rule(s)]
            false_pos = sum(
                1 for s in human_calls if s.true_label == "robot"
            )
            out[name] = (
                correct / len(sessions),
                false_pos / len(human_calls) if human_calls else 0.0,
            )
        return out

    results = benchmark(evaluate)

    print("\nAblation: single probes vs the combined set algebra")
    print(f"{'classifier':>12} {'accuracy':>9} {'FP rate':>9}")
    for name, (acc, fpr) in results.items():
        print(f"{name:>12} {acc:>9.3f} {fpr:>9.3f}")
        benchmark.extra_info[f"{name}_accuracy"] = round(acc, 4)

    # The combination is at least as accurate as either probe alone,
    # and mouse-only never has false positives (keys can't be forged).
    assert results["set_algebra"][0] >= results["css_only"][0] - 1e-9
    assert results["mouse_only"][1] == 0.0


def test_bench_adaboost_rounds_ablation(benchmark, ml_dataset):
    """Accuracy as boosting rounds grow: why the paper ran 200."""
    train, test = train_test_split(
        ml_dataset.examples, RngStream(BENCH_ML_SEED, "split")
    )
    x_train, y_train = build_matrix(train, 160)
    x_test, y_test = build_matrix(test, 160)

    def sweep():
        out = {}
        for rounds in (5, 25, 100, 200):
            model = AdaBoostClassifier(n_rounds=rounds).fit(x_train, y_train)
            out[rounds] = accuracy(model.predict(x_test), y_test)
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    print("\nAblation: AdaBoost rounds vs test accuracy (N=160)")
    for rounds, acc in results.items():
        print(f"  rounds={rounds:>4}: {acc:.3%}")
        benchmark.extra_info[f"acc@{rounds}"] = round(acc, 4)

    assert results[200] >= results[5] - 0.02


def test_bench_single_attribute_ablation(benchmark, ml_dataset):
    """Any single attribute vs the full 12 (§4.2: selection matters)."""
    train, test = train_test_split(
        ml_dataset.examples, RngStream(BENCH_ML_SEED, "split")
    )
    x_train, y_train = build_matrix(train, 160)
    x_test, y_test = build_matrix(test, 160)

    def evaluate():
        full = AdaBoostClassifier(n_rounds=100).fit(x_train, y_train)
        full_acc = accuracy(full.predict(x_test), y_test)
        singles = {}
        for i, name in enumerate(ATTRIBUTE_NAMES):
            model = AdaBoostClassifier(n_rounds=25).fit(
                x_train[:, [i]], y_train
            )
            singles[name] = accuracy(
                model.predict(x_test[:, [i]]), y_test
            )
        return full_acc, singles

    full_acc, singles = benchmark.pedantic(evaluate, rounds=1, iterations=1)

    best_single = max(singles.items(), key=lambda kv: kv[1])
    print("\nAblation: single attributes vs the full 12")
    print(f"  full 12 attributes: {full_acc:.3%}")
    for name, acc in sorted(singles.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {name:>18}: {acc:.3%}")

    benchmark.extra_info["full"] = round(full_acc, 4)
    benchmark.extra_info["best_single"] = (
        f"{best_single[0]}={best_single[1]:.4f}"
    )
    assert full_acc >= best_single[1]
