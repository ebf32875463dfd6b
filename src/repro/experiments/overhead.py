"""§3.2 overhead study: script generation latency and beacon bandwidth.

Paper: "A fake JavaScript code of size 1KB with simple obfuscation is
generated in 144 µs on a machine with a 2 GHz Pentium 4 processor ...
The bandwidth overhead of fake JavaScript and CSS files comprise only
0.3% of CoDeeN's total bandwidth."
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.experiments.table1 import run_codeen_week_cached
from repro.instrument.js_beacon import build_beacon_script
from repro.instrument.rewriter import InstrumentConfig
from repro.util.rng import RngStream


@dataclass
class OverheadResult:
    """Measured generation latency and bandwidth share."""

    mean_generation_seconds: float
    mean_script_bytes: float
    bandwidth_fraction: float
    samples: int

    def render(self) -> str:
        """Text report, paper vs measured."""
        micros = self.mean_generation_seconds * 1e6
        return "\n".join(
            [
                "§3.2 overhead — instrumentation cost",
                "",
                f"beacon script generation: {micros:.0f} µs per script "
                f"(~{self.mean_script_bytes:.0f} bytes, {self.samples} samples; "
                "paper: ~1KB in 144 µs on a 2 GHz P4)",
                f"instrumentation bandwidth share: "
                f"{self.bandwidth_fraction:.2%} of bytes served "
                "(paper: 0.3% of CoDeeN's total bandwidth)",
            ]
        )


def measure_generation(
    samples: int = 200, decoys: int = 4, seed: int = 99
) -> tuple[float, float]:
    """Mean (seconds, bytes) to make one obfuscated beacon script.

    What the proxy runs for a page whose script is fetched: the page's
    draws (keys, handler name) and, through ``size``, the one emitter at
    the default junk level.  The paper's server did both at page time.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = RngStream(seed, "overhead")
    junk_statements = InstrumentConfig().junk_statements
    total_bytes = 0
    start = time.perf_counter()
    for i in range(samples):
        script = build_beacon_script(
            rng.split(f"s{i}"), "www.example.com", decoys=decoys,
            junk_statements=junk_statements,
        )
        total_bytes += script.size
    elapsed = time.perf_counter() - start
    return elapsed / samples, total_bytes / samples


def run(n_sessions: int = 1500, seed: int = 2006) -> OverheadResult:
    """Measure both overhead quantities."""
    mean_seconds, mean_bytes = measure_generation()
    deployment = run_codeen_week_cached(n_sessions, seed)
    return OverheadResult(
        mean_generation_seconds=mean_seconds,
        mean_script_bytes=mean_bytes,
        bandwidth_fraction=deployment.stats.beacon_bandwidth_fraction,
        samples=200,
    )
