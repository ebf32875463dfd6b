"""Trace recording: tap a proxy network and export what flowed through.

:class:`TraceRecorder` attaches to a :class:`~repro.proxy.network.ProxyNetwork`
and captures two synchronised streams:

* every request/response pair the network handles, as
  :class:`~repro.trace.clf.TraceRecord` lines — the access log; and
* every probe the instrumenter registers, as :class:`ProbeRecord` lines —
  the **probe journal**.

The journal exists because the paper's mouse-beacon scheme is *designed*
so that a URL alone does not reveal whether its key is real or a decoy —
only the server-side table knows.  An access log therefore cannot be
replayed with full detection fidelity unless the table's registrations
are exported alongside it; the journal is exactly the key material a
deployment would log server-side (§2.1's ``<foo.html, k>`` tuples).
Replaying a CLF file *without* a journal still works and models the real
use case of analysing a foreign access log: request-stream features
survive, probe-derived evidence does not.

Both files are written sorted by timestamp so the replay engine can
stream them with a bounded heap.
"""

from __future__ import annotations

import re
from typing import IO, Iterable, Iterator, NamedTuple

from repro.http.message import Request, Response
from repro.instrument.keys import BeaconKind, RegisteredProbe
from repro.proxy.network import ProxyNetwork
from repro.trace.clf import (
    ParseStats,
    TraceParseError,
    TraceRecord,
    open_trace_file,
    read_records,
    write_trace,
)
from repro.workload.session_run import SessionRecord

#: Journal kind token -> kind: one dict lookup per line, not an Enum call.
_KINDS = {kind.value: kind for kind in BeaconKind}
#: The only issue-time form :func:`format_probe_line` writes; ``float``
#: would also take ``nan``, ``inf``, ``1_0`` and `` 5``.
_ISSUED_RE = re.compile(r"-?[0-9]+\.[0-9]+")


class ProbeRecord(NamedTuple):
    """One probe-table registration, as journalled by the recorder.

    Made from a :class:`RegisteredProbe` when a journal is written
    (``sorted_probes``) and parsed back when one is read; listeners keep
    the registration itself.
    """

    issued_at: float
    kind: str
    client_ip: str
    host: str
    path: str
    page_path: str
    key: str | None = None
    is_real_key: bool = False

    @classmethod
    def from_probe(cls, probe: RegisteredProbe) -> "ProbeRecord":
        """Journal form of a live registration.

        ``issued_at`` is quantised to the journal's microsecond
        resolution (matching CLF timestamps) so records round-trip
        exactly through the file format.
        """
        return cls(
            round(probe.issued_at, 6),
            probe.kind.value,
            probe.client_ip,
            probe.host,
            probe.path,
            probe.page_path,
            probe.key,
            probe.is_real_key,
        )

    def to_probe(self) -> RegisteredProbe:
        """Rebuild the registration for a replay network's table.

        The beacon script's recipe is not journalled (its text is
        bandwidth bookkeeping, not detection state), so replayed script
        probes serve an empty body.
        """
        # Positional, like the parser's record: a keyword call to a named
        # tuple costs about twice as much, once per journal line.
        return RegisteredProbe(
            _KINDS[self.kind],
            self.client_ip,
            self.host,
            self.path,
            self.page_path,
            self.issued_at,
            self.key,
            self.is_real_key,
        )


def format_probe_line(record: ProbeRecord) -> str:
    """Tab-separated journal line (no newline)."""
    return "\t".join(
        (
            f"{record.issued_at:.6f}",
            record.kind,
            record.client_ip,
            record.host,
            record.path,
            record.page_path or "-",
            record.key or "-",
            "real" if record.is_real_key else "decoy",
        )
    )


def parse_probe_line(line: str) -> ProbeRecord:
    """Parse one journal line; raises :class:`TraceParseError`.

    Only what :func:`format_probe_line` writes is a record: eight
    non-empty fields, a plain decimal issue time, a known kind and
    ``real`` / ``decoy``.
    """
    parts = line.rstrip("\n").split("\t")
    if (
        len(parts) != 8
        or "" in parts
        or _ISSUED_RE.fullmatch(parts[0]) is None
        or parts[1] not in _KINDS
        or parts[7] not in ("real", "decoy")
    ):
        raise TraceParseError(f"unparseable probe journal line: {line!r}")
    issued, kind, ip, host, path, page_path, key, realness = parts
    return ProbeRecord(
        float(issued),
        kind,
        ip,
        host,
        path,
        "" if page_path == "-" else page_path,
        None if key == "-" else key,
        realness == "real",
    )


def write_probe_journal(path: str, records: Iterable[ProbeRecord]) -> int:
    """Write a probe journal (gzipped for ``.gz``); returns the count."""
    written = 0
    with open_trace_file(path, "wt") as handle:
        for record in records:
            handle.write(format_probe_line(record))
            handle.write("\n")
            written += 1
    return written


def read_probe_journal(
    source: str | IO[str] | Iterable[str],
    stats: ParseStats | None = None,
    strict: bool = False,
) -> Iterator[ProbeRecord]:
    """Stream a probe journal, skipping (and counting) malformed lines."""
    return read_records(source, parse_probe_line, stats, strict)


class TraceRecorder:
    """Captures a network's traffic (and probe table) for later replay.

    Usage::

        recorder = TraceRecorder()
        recorder.attach(network)
        ...drive any workload through the network...
        recorder.detach(network)
        recorder.annotate_ground_truth(result.records)
        recorder.save("trace.log.gz", "trace.keys.gz")
    """

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        #: Probes as registered; journal records are made on demand.
        self.probes: list[RegisteredProbe] = []
        self._identities: dict[tuple[str, str], tuple[str, str]] = {}

    # -- capture ----------------------------------------------------------

    def attach(self, network: ProxyNetwork) -> None:
        """Start capturing this network's traffic and registrations."""
        network.add_tap(self.observe)
        network.add_probe_listener(self.probes.append)

    def detach(self, network: ProxyNetwork) -> None:
        """Stop capturing (taps/listeners added by :meth:`attach`)."""
        network.remove_tap(self.observe)
        network.remove_probe_listener(self.probes.append)

    def observe(self, request: Request, response: Response) -> None:
        """Network tap: one handled request/response pair."""
        self.records.append(TraceRecord.from_exchange(request, response))

    # -- annotation and export -------------------------------------------

    def annotate_ground_truth(
        self, session_records: Iterable[SessionRecord]
    ) -> None:
        """Learn <IP, User-Agent> -> (kind, label) from a workload run.

        Applied at save time, this writes the synthetic ground truth into
        the CLF ``ident``/``authuser`` fields so a replayed census can be
        compared against the original run.
        """
        for record in session_records:
            self._identities[(record.client_ip, record.user_agent)] = (
                record.agent_kind,
                record.true_label,
            )

    def sorted_records(self) -> list[TraceRecord]:
        """Captured records in global timestamp order, annotated.

        The sort is stable, so same-timestamp requests keep their arrival
        order — which preserves per-session request order exactly.
        """
        annotated = []
        for record in self.records:
            identity = self._identities.get(
                (record.client_ip, record.user_agent)
            )
            if identity is not None:
                record = record.with_ground_truth(*identity)
            annotated.append(record)
        annotated.sort(key=lambda r: r.timestamp)
        return annotated

    def sorted_probes(self) -> list[ProbeRecord]:
        """Journalled registrations in issue order (stable by time)."""
        return sorted(
            map(ProbeRecord.from_probe, self.probes), key=lambda p: p.issued_at
        )

    def save(self, trace_path: str, probes_path: str | None = None) -> int:
        """Write the trace (and optionally the probe journal) to disk.

        Returns the number of CLF lines written.
        """
        written = write_trace(trace_path, self.sorted_records())
        if probes_path is not None:
            write_probe_journal(probes_path, self.sorted_probes())
        return written


def record_workload(engine, trace_path: str, probes_path: str | None = None):
    """Run a workload engine with a recorder attached and save the trace.

    Returns ``(WorkloadResult, TraceRecorder)``.  The engine should be
    configured with ``captcha_enabled=False`` when the trace is meant for
    round-trip comparison: CAPTCHA outcomes happen out-of-band and leave
    no access-log footprint, so a replay cannot reproduce them.
    """
    recorder = TraceRecorder()
    recorder.attach(engine.network)
    try:
        result = engine.run()
    finally:
        recorder.detach(engine.network)
    recorder.annotate_ground_truth(result.records)
    recorder.save(trace_path, probes_path)
    return result, recorder
