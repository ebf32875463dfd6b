"""The benchmark's own tracing: spans around each layer's entry points.

The traced run wraps the public entry point of every layer on the
request path — patching each name where it is *looked up*, so the
program under test is untouched — and records one span per call:
``(name, start, end, request_id)`` appended to an in-memory list.  The
load generator owns ``request_id``: it is the index of the request whose
cycle is in progress, so the spans of one request share it.

Nothing is computed while the clock runs.  After a trial the spans are
nested by interval containment (the request path is one logical thread
of control, so containment *is* causality), which yields each span's
parent and its self time: its duration minus the part its children
cover.  Containment rather than a run-time stack is what lets spans that
are only known after the fact take their place in the tree — the
server's own stage timings (``ServeMetrics.observe_stage``) and
``ParsedRequest.parse_seconds`` arrive as durations once the stage is
over, and are recorded as the interval ending at that moment.

A span's name is the ledger row it is charged to (``README.md`` lists
them); several entry points may share a row.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

import repro.proxy.node
import repro.serve.server
import repro.trace.clf
import repro.trace.recorder
import repro.trace.replay
from repro.detection.service import DetectionService
from repro.ingress.batcher import MicroBatcher
from repro.ingress.pipeline import IngressPipeline
from repro.ingress.workers import ReplayLaneWorker
from repro.instrument.rewriter import PageInstrumenter
from repro.obs.sockets import ServeMetrics
from repro.overload.admission import DelayBudgetController
from repro.overload.ladder import ResponseLadder
from repro.proxy.cache import ProxyCache
from repro.proxy.node import ProxyNode
from repro.site.origin import OriginServer
from repro.trace.clf import TraceRecord

#: (owner, attribute, ledger row) for every plain callable wrapped.
_ENTRY_POINTS = (
    (repro.serve.server, "render_response", "serve.render"),
    (repro.serve.server, "format_clf_line", "trace.log"),
    (TraceRecord, "from_exchange", "trace.log"),
    (ResponseLadder, "gate", "overload.gate"),
    (ResponseLadder, "observe_verdict", "overload.gate"),
    (DelayBudgetController, "admit", "overload.gate"),
    (ProxyNode, "handle_traced", "proxy.handle_self"),
    (DetectionService, "handle_request", "detection.update"),
    (DetectionService, "note_response", "detection.account"),
    (DetectionService, "finalize", "detection.finalize"),
    (ProxyCache, "lookup", "proxy.cache"),
    (ProxyCache, "store", "proxy.cache"),
    (OriginServer, "handle", "site.origin"),
    (PageInstrumenter, "instrument", "instrument.rewrite"),
    (repro.proxy.node, "beacon_response", "instrument.beacon"),
    (repro.trace.clf, "parse_clf_line", "trace.parse"),
    (repro.trace.recorder, "parse_probe_line", "trace.parse"),
    (TraceRecord, "to_request", "trace.to_request"),
    (IngressPipeline, "tick", "ingress.submit"),
    (IngressPipeline, "submit", "ingress.submit"),
    (ReplayLaneWorker, "process", "ingress.worker_self"),
    (MicroBatcher, "observe", "ml.observe"),
    (MicroBatcher, "flush", "ml.flush"),
    (IngressPipeline, "close", "ingress.close"),
)

#: Generator functions: each ``next()`` on what they return is a span.
_GENERATORS = (
    (repro.trace.replay, "read_trace", "trace.read"),
    (repro.trace.replay, "read_probe_journal", "trace.read"),
)

#: ``ServeMetrics`` stages recorded as spans.  ``parse`` is left out: the
#: ``read_request`` wrapper records the same duration where it ended.
_STAGE_ROWS = {
    "accept": "serve.accept",
    "handle": "serve.hop",
    "write": "serve.write",
}


class Tracer:
    """Collects one trial's spans; the load generator sets ``request_id``."""

    def __init__(self) -> None:
        self.request_id = 0
        #: (name, start, end, request_id), in completion order.
        self.spans: list[tuple[str, float, float, int]] = []
        #: The nested spans of the trial reduced last (the span file).
        self.nested: list[dict] = []

    def begin_cycle(self, index: int) -> None:
        self.request_id = index

    def reduce(self, slots: int) -> dict[str, np.ndarray]:
        """End a trial: nest its spans, start afresh, return the rows.

        A row holds the self seconds charged to each of ``slots`` cycles;
        spans recorded past the last cycle land in the last slot.
        """
        self.nested = nest(self.spans)
        self.spans = []
        rows: dict[str, np.ndarray] = {}
        for span in self.nested:
            row = rows.get(span["name"])
            if row is None:
                row = rows[span["name"]] = np.zeros(slots)
            row[min(span["request_id"], slots - 1)] += span["self"]
        return rows

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, function, name: str):
        def traced(*args, **kwargs):
            request_id = self.request_id
            start = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                self.spans.append((name, start, perf_counter(), request_id))

        return traced

    def _wrap_generator(self, function, name: str):
        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            while True:
                request_id = self.request_id
                start = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self.spans.append(
                        (name, start, perf_counter(), request_id)
                    )
                yield item

        return traced

    def _wrap_read_request(self, read_request):
        async def traced(*args, **kwargs):
            parsed = await read_request(*args, **kwargs)
            if parsed is not None:
                end = perf_counter()
                self.spans.append(
                    (
                        "serve.parse",
                        end - parsed.parse_seconds,
                        end,
                        self.request_id,
                    )
                )
            return parsed

        return traced

    def _wrap_observe_stage(self, observe_stage):
        def traced(metrics, stage: str, seconds: float) -> None:
            observe_stage(metrics, stage, seconds)
            name = _STAGE_ROWS.get(stage)
            if name is not None:
                end = perf_counter()
                self.spans.append(
                    (name, end - seconds, end, self.request_id)
                )

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        saved = []

        def patch(owner, attribute: str, wrapper) -> None:
            # ``vars`` keeps descriptors (the classmethod) as they are,
            # so the original can be put back exactly.
            saved.append((owner, attribute, vars(owner)[attribute]))
            setattr(owner, attribute, wrapper)

        try:
            for owner, attribute, name in _ENTRY_POINTS:
                patch(
                    owner,
                    attribute,
                    self._wrap(getattr(owner, attribute), name),
                )
            for owner, attribute, name in _GENERATORS:
                patch(
                    owner,
                    attribute,
                    self._wrap_generator(getattr(owner, attribute), name),
                )
            patch(
                repro.serve.server,
                "read_request",
                self._wrap_read_request(repro.serve.server.read_request),
            )
            patch(
                ServeMetrics,
                "observe_stage",
                self._wrap_observe_stage(ServeMetrics.observe_stage),
            )
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)


# -- reduction ---------------------------------------------------------------


#: A stage span is rebuilt from a duration that arrives after the stage
#: ended, so it sits one clock read later than the work it covers.  Stage
#: spans are ordered this much earlier than they start, so that a child
#: which began together with its stage still nests inside it.
STAGE_SKEW = 2e-6


def nest(spans) -> list[dict]:
    """Order spans by start and give each its parent and self time.

    Returns one dict per span — ``name``, ``start``, ``end``, ``parent``
    (index into the returned list, ``-1`` for a top-level span),
    ``request_id`` and ``self`` seconds.  A span is the child of the
    innermost span still open when it starts, and is charged to that
    parent for the part of it the parent's interval covers (clock reads
    are not atomic with the work they bracket).
    """
    stages = set(_STAGE_ROWS.values())

    def order(span):
        name, start, end, _ = span
        return (start - STAGE_SKEW if name in stages else start, -end)

    nested: list[dict] = []
    open_spans: list[int] = []
    for name, start, end, request_id in sorted(spans, key=order):
        while open_spans and nested[open_spans[-1]]["end"] <= start:
            open_spans.pop()
        parent = open_spans[-1] if open_spans else -1
        if parent >= 0:
            outer = nested[parent]
            outer["self"] -= min(end, outer["end"]) - max(start, outer["start"])
        nested.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "request_id": request_id,
                "self": end - start,
            }
        )
        open_spans.append(len(nested) - 1)
    return nested


def write_spans(path: str, nested: list[dict]) -> None:
    """One JSON object per line: the span file of a traced run."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in nested:
            handle.write(json.dumps(span))
            handle.write("\n")
