"""Count a probe journal's pages the way the replay admits them.

A replay admits each run of consecutive journal records that share an
``(issued_at, client_ip)`` as one lane event, so a replay's admitted
event count is its requests plus these runs.  Written out here, rather
than imported from the engine, so the tests' accounting does not lean
on the code it checks.
"""

from __future__ import annotations


def journal_pages(probes) -> list[list]:
    """The journal's records, split into runs of one (time, client IP)."""
    pages: list[list] = []
    for probe in probes:
        if pages and (
            pages[-1][0].issued_at == probe.issued_at
            and pages[-1][0].client_ip == probe.client_ip
        ):
            pages[-1].append(probe)
        else:
            pages.append([probe])
    return pages
