"""Trace recording: tap a proxy network and export what flowed through.

:class:`TraceRecorder` attaches to a :class:`~repro.proxy.network.ProxyNetwork`
and captures two synchronised streams:

* every request/response pair the network handles, as
  :class:`~repro.trace.clf.TraceRecord` lines — the access log; and
* every probe the instrumenter registers, as one line per
  :class:`~repro.instrument.keys.RegisteredProbe` — the **probe
  journal**, read back as the registrations it records.

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
from operator import attrgetter
from typing import IO, Iterable, Iterator

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


def sorted_journal(probes: Iterable[RegisteredProbe]) -> list[RegisteredProbe]:
    """Registrations as their journal lines read back, in issue order.

    ``issued_at`` is quantised to the journal's microsecond resolution
    (matching CLF timestamps), and the beacon script's recipe, which is
    not journalled (its text is bandwidth bookkeeping, not detection
    state), is dropped: a replayed script probe serves an empty body.
    The sort is stable, so a page's probes keep their order.
    """
    journal = [
        RegisteredProbe(
            probe.kind,
            probe.client_ip,
            probe.host,
            probe.path,
            probe.page_path,
            round(probe.issued_at, 6),
            probe.key,
            probe.is_real_key,
        )
        for probe in probes
    ]
    journal.sort(key=attrgetter("issued_at"))
    return journal


def format_probe_line(probe: RegisteredProbe) -> str:
    """Tab-separated journal line (no newline)."""
    return "\t".join(
        (
            f"{probe.issued_at:.6f}",
            probe.kind.value,
            probe.client_ip,
            probe.host,
            probe.path,
            probe.page_path or "-",
            probe.key or "-",
            "real" if probe.is_real_key else "decoy",
        )
    )


def parse_probe_line(line: str) -> RegisteredProbe:
    """Parse one journal line into the registration it records; raises
    :class:`TraceParseError`.

    Only what :func:`format_probe_line` writes is a line: eight
    non-empty fields, a plain decimal issue time, a known kind and
    ``real`` / ``decoy``.  The result equals the registration's entry
    in :func:`sorted_journal`.
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
    # Positional: a keyword call to a named tuple costs about twice as
    # much, once per journal line.
    return RegisteredProbe(
        _KINDS[kind],
        ip,
        host,
        path,
        "" if page_path == "-" else page_path,
        float(issued),
        None if key == "-" else key,
        realness == "real",
    )


def write_probe_journal(path: str, probes: Iterable[RegisteredProbe]) -> int:
    """Write a probe journal (gzipped for ``.gz``); returns the count."""
    written = 0
    with open_trace_file(path, "wt") as handle:
        for probe in probes:
            handle.write(format_probe_line(probe))
            handle.write("\n")
            written += 1
    return written


def read_probe_journal(
    source: str | IO[str] | Iterable[str],
    stats: ParseStats | None = None,
    strict: bool = False,
) -> Iterator[RegisteredProbe]:
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
        #: Probes as registered; their journal form is made on demand.
        self.probes: list[RegisteredProbe] = []
        #: ``(client_ip, user_agent) -> (kind, label)``, applied by
        #: :meth:`sorted_records`.
        self.identities: dict[tuple[str, str], tuple[str, str]] = {}

    # -- capture ----------------------------------------------------------

    def attach(self, network: ProxyNetwork) -> None:
        """Start capturing this network's traffic and registrations."""
        network.add_tap(self.observe)
        network.add_probe_listener(self.probes.extend)

    def detach(self, network: ProxyNetwork) -> None:
        """Stop capturing (taps/listeners added by :meth:`attach`)."""
        network.remove_tap(self.observe)
        network.remove_probe_listener(self.probes.extend)

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
            self.identities[(record.client_ip, record.user_agent)] = (
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
            identity = self.identities.get(
                (record.client_ip, record.user_agent)
            )
            if identity is not None:
                record = record.with_ground_truth(*identity)
            annotated.append(record)
        annotated.sort(key=lambda r: r.timestamp)
        return annotated

    def sorted_probes(self) -> list[RegisteredProbe]:
        """The registrations as journalled, in issue order: see
        :func:`sorted_journal`."""
        return sorted_journal(self.probes)

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
