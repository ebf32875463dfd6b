"""Golden identity of the offline replay.

One fixed smoke workload is recorded, then replayed through the ingress
lanes (``executor="serial"``, four shards, micro-batched scoring), and
everything observable about the replay goes into one sha256:
set-algebra summary, census, network stats, detection latencies, every
ensemble verdict with its margin bit for bit, and the deterministic
metrics snapshot.

The repo benchmark cannot pin this: it re-records its trace from the
tree under test, so a change that shifts recording and replay together
passes it.  A PR that means to change what a replay returns (new probe
keys, another metric) re-derives the constant at its own parent first,
to show it starts from here (the failed assertion shows the digest a
run got).

History of the constant.  PR 19 computed ``6488365e…`` with this file
at the commit before it, over two replays: this one and the synchronous
loop (``executor=None``).  PR 20 deleted that loop, so the second replay
no longer exists; the constant below was re-derived at PR 20's parent
(93a912c) by this file with only the second config removed, with the
trace recorded under each of the three workload modes that commit had —
and was unchanged by the deletion.

PR 22 changed it on purpose.  The trace this test replays is recorded
here, from the tree under test, and PR 22 moved the beacon script's text
out of the page stream (it is emitted from a stream of its own when the
``.js`` is fetched), so every draw after a page's mouse keys moved: the
script file name, the UA-probe directory, the hidden link, and the order
of the functions inside the script.  The population is the same and so
are its CSS and mouse keys, but the two ``blind_fetcher`` robots pick
their URL by position in the script and now happen to hit the real key
on their first page and a decoy on the second, where they used to hit a
decoy on the first — they are blocked one page later, pass the
ten-request census floor, and the census has 60 sessions where it had
58.  ``758fdbe3…`` (PR 20's constant) was re-derived with this file at
PR 22's parent (127211a) first; a trace *recorded* there still replays
to it here, because a replay rebuilds the probe table from the journal.

PR 28 changed it on purpose.  Every ingress lane is now one node shard,
so this four-shard replay runs eight lanes where it ran two (one per
node).  Two observables move with the lane layout: the micro-batcher
flushes per lane, so the ensemble verdicts are grouped differently, and
the ``lane``-labelled series of the metrics snapshot are per shard.
Census, sessions, latencies and stats do not move.  The result type's
``repr`` also changed: ``NetworkStats`` is deleted and ``result.stats``
is a ``NodeStats``.  ``f7c3a628…`` is what this file computes at PR
28's parent (f11e62e) with its ``ReplayConfig`` set to four lanes per
node (the lane-layout option PR 28 deletes) and ``NetworkStats`` read
as ``NodeStats`` in ``repr(result.stats)`` — the layout PR 28 keeps,
under the name it keeps.
"""

from __future__ import annotations

from hashlib import sha256

from repro.ml.adaboost import demo_ensemble
from repro.obs.export import to_json
from repro.proxy.network import ProxyNetwork
from repro.trace.recorder import record_workload
from repro.trace.replay import ReplayConfig, ReplayResult, replay_trace
from repro.util.rng import RngStream
from repro.workload.engine import WorkloadConfig, WorkloadEngine
from repro.workload.mixes import SMOKE

GOLDEN = "f7c3a628d68a96a77fb45cd1cdcdb202f305cf506d370e4dcd3e0c7c309bf1ab"


def _observables(result: ReplayResult) -> list[str]:
    return [
        repr(result.summary),
        repr(sorted(result.kind_census().items())),
        repr(result.stats),
        repr(result.latencies),
        repr([(v.session_id, v.margin.hex()) for v in result.ml_verdicts]),
        repr((result.requests_replayed, result.probes_loaded)),
        repr((result.parse_stats, result.probe_parse_stats)),
        to_json(result.metrics.deterministic()),
    ]


def test_replay_of_a_fixed_trace_is_what_it_was(
    tmp_path, small_site, small_origin
):
    trace, journal = str(tmp_path / "t.log.gz"), str(tmp_path / "t.keys.gz")
    engine = WorkloadEngine(
        ProxyNetwork(
            origins={small_site.host: small_origin},
            rng=RngStream(19, "net"),
            n_nodes=2,
        ),
        SMOKE,
        f"http://{small_site.host}{small_site.home_path}",
        RngStream(19, "wl"),
        WorkloadConfig(n_sessions=60, captcha_enabled=False),
    )
    record_workload(engine, trace, journal)

    config = ReplayConfig(
        assume_sorted=True, strict=True, executor="serial", shards=4,
        scorer_model=demo_ensemble(8, seed=2006),
    )
    network = ProxyNetwork(
        origins={}, rng=RngStream(0, "replay"), n_nodes=2,
        instrument_enabled=False,
    )
    result = replay_trace(network, trace, probes=journal, config=config)
    assert result.requests_replayed > 1000 and result.probes_loaded > 1000
    assert result.parse_stats.malformed == 0
    digest = sha256()
    for part in _observables(result):
        digest.update(part.encode("utf-8") + b"\0")
    assert digest.hexdigest() == GOLDEN
