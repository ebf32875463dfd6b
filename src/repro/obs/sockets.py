"""Wall-clock instrument family for the socket front door (:mod:`repro.serve`).

Serving over real sockets adds stages the deterministic pipeline never
sees — accepting connections, parsing request bytes, writing response
bytes — so their instruments are defined here, next to the other metric
family layouts, and live strictly in the wall domain: socket timings
depend on the peer and the kernel, never on the request stream alone.
"""

from __future__ import annotations

from repro.obs.registry import (
    WALL_SECONDS_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)

#: The socket-side stages of one served exchange, in wire order:
#: ``accept`` spans connection arrival to the first parsed request,
#: ``parse`` covers byte framing after the request line lands,
#: ``handle`` is the pipeline's share, ``write`` the response bytes.
SERVE_STAGES = ("accept", "parse", "handle", "write")


class ServeMetrics:
    """Get-or-create bundle of the ``repro_serve_*`` instruments.

    One instance per :class:`~repro.serve.server.DetectorServer`; all
    writes happen on the event loop, so the plain instruments need no
    locking.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry or MetricsRegistry()
        r = self.registry
        self.connections: Counter = r.counter(
            "repro_serve_connections_total", wall=True
        )
        self.open_connections = r.gauge(
            "repro_serve_open_connections", wall=True
        )
        self.keepalive_reuses: Counter = r.counter(
            "repro_serve_keepalive_reuses_total", wall=True
        )
        self.timeouts: Counter = r.counter(
            "repro_serve_timeouts_total", wall=True
        )
        self.shed: Counter = r.counter("repro_serve_shed_total", wall=True)
        self.handler_errors: Counter = r.counter(
            "repro_serve_handler_errors_total", wall=True
        )
        self._stages: dict[str, Histogram] = {
            stage: r.histogram(
                "repro_serve_stage_seconds",
                WALL_SECONDS_BUCKETS,
                {"stage": stage},
                wall=True,
            )
            for stage in SERVE_STAGES
        }
        self._requests: dict[int, Counter] = {}  # by ``status // 100``
        self._parse_errors: dict[int, Counter] = {}

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Record one wall-clock stage sample."""
        self._stages[stage].observe(seconds)

    def note_request(self, status: int) -> None:
        """Count one served request by response status class."""
        counter = self._requests.get(status // 100)
        if counter is None:
            counter = self._requests[status // 100] = self.registry.counter(
                "repro_serve_requests_total", {"class": f"{status // 100}xx"}, wall=True
            )
        counter.inc()

    def note_parse_error(self, status: int) -> None:
        """Count one malformed request by the status it was refused with."""
        counter = self._parse_errors.get(status)
        if counter is None:
            counter = self._parse_errors[status] = self.registry.counter(
                "repro_serve_parse_errors_total",
                {"status": str(status)},
                wall=True,
            )
        counter.inc()

    @property
    def parse_errors(self) -> int:
        """Malformed requests refused, over every refusal status."""
        return int(sum(c.value for c in self._parse_errors.values()))

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the current instrument state."""
        return self.registry.snapshot()
