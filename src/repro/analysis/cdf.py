"""Figure 2 reductions: CDFs of requests-needed-to-detect.

Each detected session contributes the 1-based request index at which a
signal first fired; the CDF over those indices answers the paper's
claims: "80% of the mouse event generating clients could be detected
within 20 requests, and 95% of them could be detected within 57 requests.
Of clients that downloaded the embedded CSS file, 95% could be classified
within 19 requests and 99% in 48 requests."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.detection.session import DetectionLatency
from repro.util.stats import Ecdf


@dataclass
class DetectionCdfs:
    """The three Figure 2 curves (None when no session produced a signal)."""

    css: Ecdf | None
    beacon_js: Ecdf | None
    mouse: Ecdf | None

    def series(
        self, max_requests: int = 100, step: int = 1
    ) -> dict[str, list[tuple[int, float]]]:
        """(x, F(x)) points per curve for plotting, like the paper's axes."""
        out: dict[str, list[tuple[int, float]]] = {}
        for name, ecdf in (
            ("CSS files", self.css),
            ("Javascript files", self.beacon_js),
            ("Mouse events", self.mouse),
        ):
            if ecdf is None:
                continue
            out[name] = [
                (x, ecdf.fraction_at_or_below(x))
                for x in range(0, max_requests + 1, step)
            ]
        return out


def detection_cdfs(latencies: list[DetectionLatency]) -> DetectionCdfs:
    """Build the three CDFs from per-session latency samples."""
    css = [s.css_at for s in latencies if s.css_at is not None]
    js = [s.beacon_js_at for s in latencies if s.beacon_js_at is not None]
    mouse = [s.mouse_at for s in latencies if s.mouse_at is not None]
    return DetectionCdfs(
        css=Ecdf(css) if css else None,
        beacon_js=Ecdf(js) if js else None,
        mouse=Ecdf(mouse) if mouse else None,
    )
