"""Smoke test of the byte ledger at toy size (tier-1, a few seconds)."""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import footprint  # noqa: E402


def test_rows_sum_to_the_stated_total(tmp_path, capsys):
    out = tmp_path / "footprint.json"
    code = footprint.main(
        [
            "--workload", "live_churn",
            "--seed", "3",
            "--sessions", "6",
            "--json", str(out),
        ]
    )
    printed = capsys.readouterr().out
    result = json.loads(out.read_text(encoding="utf-8"))
    assert code == 0 and result["failed"] == 0
    assert list(result["rss_mib"]) == [
        "imports",
        "prepared inputs",
        footprint.BUILT,
        footprint.TRAFFIC,
    ]
    # The stated total is tracemalloc's own count when the snapshot was
    # taken; the rows are the snapshot regrouped, and must lose nothing.
    rows = sum(result["packages_mib"].values())
    assert rows == pytest.approx(result["traced_mib"], rel=0.02)
    assert result["packages_mib"]["repro.site"] > 0
    assert all(
        package.startswith("repro.") or package in ("benchmarks", "(python)")
        for package in result["packages_mib"]
    )
    assert "repro.site" in printed and footprint.TRAFFIC in printed
