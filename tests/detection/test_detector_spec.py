"""The detector, held to its executable specification (``detector_spec``).

A Hypothesis state machine drives interleaved clients — three IPs under
two User-Agents — through the real stack: pages and CGI requests, the
probes of issued pages (CSS, ``.js``, right-key and decoy mouse images,
trap page and image, UA probe echoed right, wrong or empty),
unknown-key beacons, another client's probe URLs, idle gaps on both sides
of the hour, ``housekeeping`` sweeps, per-IP probe-cap evictions and a UA
prefix re-issued as another kind.

The test keeps its own model of the per-IP probe table (TTL, FIFO cap,
newest UA prefix first) to resolve each request into the spec's input,
and holds every system equal to the spec: a ``DetectionService``, a
``ProxyNode`` at 1, 2 and 8 shards, and the CLF + probe-journal round
trip of a recorded network through ``TraceReplayEngine`` — on every
request's online verdict, ``at_request`` and block, on every analysable
session's evidence indices and final verdict, and on the census.
"""

from __future__ import annotations

from collections import OrderedDict

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from detector_spec import Req, census, echo_of, final, run
from repro.detection.service import DetectionService
from repro.detection.set_algebra import SessionSets
from repro.http.headers import Headers
from repro.http.message import Method, Request, Response
from repro.http.uri import Url
from repro.instrument.keys import (
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.proxy.network import ProxyNetwork
from repro.proxy.node import ProxyNode
from repro.trace.clf import format_clf_line, parse_clf_line
from repro.trace.recorder import (
    TraceRecorder,
    format_probe_line,
    parse_probe_line,
)
from repro.trace.replay import TraceReplayEngine
from repro.util.rng import RngStream

HOST = "site.test"
IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
UAS = ("Mozilla/4.0 (compatible; MSIE 6.0)", "Wget/1.10.2")
TTL = 3600.0  # the registry's default probe lifetime
CAP = 512  # ... and its default per-IP cap
FLOOD = 510  # filler probes: after one page, evicts all but its last two

_SPEC_KIND = {
    BeaconKind.CSS_BEACON: "css",
    BeaconKind.BEACON_JS: "script",
    BeaconKind.MOUSE_IMAGE: "mouse",
    BeaconKind.TRAP_PAGE: "trap_page",
    BeaconKind.TRAP_IMAGE: "trap_img",
    BeaconKind.UA_PROBE: "ua",
}
#: What one instrumented page registers, as (kind, path suffix, real key).
_PAGE = (
    (BeaconKind.BEACON_JS, "b.js", False),
    (BeaconKind.MOUSE_IMAGE, "m0.gif", False),
    (BeaconKind.MOUSE_IMAGE, "m1.gif", True),
    (BeaconKind.MOUSE_IMAGE, "m2.gif", False),
    (BeaconKind.CSS_BEACON, "c.css", False),
    (BeaconKind.TRAP_PAGE, "t.html", False),
    (BeaconKind.TRAP_IMAGE, "t.gif", False),
    (BeaconKind.UA_PROBE, "ua/", False),
)
_BLOCKED = Response(status=403, body=b"blocked")
_BEACON = Response(status=200, body=b"")
_NO_ROUTE = Response(status=502, body=b"no route")

clients = st.tuples(st.sampled_from(IPS), st.sampled_from(UAS))
gaps = st.sampled_from((0.0, 0.25, 1.0))
#: Idle gaps on both sides of the hour (and of the probe TTL).
idles = st.sampled_from((59.75, 60.0, 3599.75, 3600.0, 3600.25, 7200.0))
#: The UA probe's echo: the client's own agent, the other agent, nothing,
#: or its own agent without the ``.css`` the probe's script appends.
echoes = st.sampled_from(("right", "wrong", "empty", "no-css"))


def _request(ip: str, ua: str, path: str, t: float) -> Request:
    return Request(
        method=Method.GET,
        url=Url.parse(f"http://{HOST}{path}"),
        client_ip=ip,
        headers=Headers([("User-Agent", ua)]),
        timestamp=t,
    )


def _node(shards: int) -> ProxyNode:
    return ProxyNode(
        node_id=f"spec-{shards}",
        origins={},
        rng=RngStream(5, "spec"),
        instrument_enabled=False,
        detection_shards=shards,
    )


def _network(n_nodes: int, shards: int) -> ProxyNetwork:
    return ProxyNetwork(
        origins={},
        rng=RngStream(6, "spec"),
        n_nodes=n_nodes,
        instrument_enabled=False,
        detection_shards=shards,
    )


class _Service:
    """A bare ``DetectionService``, answered as a node without origins."""

    def __init__(self) -> None:
        self.service = DetectionService(InstrumentationRegistry())

    def register(self, probes) -> None:
        self.service.registry.register_page(probes)

    def handle(self, request: Request):
        outcome = self.service.handle_request(request)
        response = (
            _BLOCKED if outcome.blocked
            else _BEACON if outcome.hit is not None
            else _NO_ROUTE
        )
        self.service.note_response(outcome, response)
        return outcome

    def housekeeping(self, now: float) -> None:
        self.service.tracker.expire_idle(now)
        self.service.registry.expire_before(now)

    def finalize(self):
        return self.service.finalize()


class _Node:
    """A ``ProxyNode`` (or a network of them) behind its public calls."""

    def __init__(self, node) -> None:
        self.node = node

    def _nodes(self):
        return getattr(self.node, "nodes", [self.node])

    def register(self, probes) -> None:
        ip = probes[0].client_ip
        owner = (
            self.node.node_for(ip) if hasattr(self.node, "node_for")
            else self.node
        )
        owner.shard_for(ip).register_page(probes)

    def handle(self, request: Request):
        return self.node.handle_traced(request)[1]

    def housekeeping(self, now: float) -> None:
        for node in self._nodes():
            node.housekeeping(now)

    def finalize(self):
        return [
            state for node in self._nodes()
            for state in node.detection.finalize()
        ]


def _observed(outcome) -> tuple:
    verdict = outcome.verdict
    return (
        verdict.label.value, verdict.definitive, verdict.at_request,
        outcome.blocked, outcome.state.request_count,
    )


def _finished(state) -> tuple:
    verdict = state.final_verdict()
    return (
        verdict.label.value, verdict.at_request, state.request_count,
        state.css_beacon_at, state.beacon_js_at, state.js_executed_at,
        state.mouse_event_at, state.hidden_link_at, state.ua_mismatch_at,
        state.wrong_key_fetches,
    )


def _spec_finished(session: dict) -> tuple:
    first = session["first"]
    return (
        *final(session), session["n"],
        first.get("css"), first.get("script"), first.get("js"),
        first.get("mouse"), first.get("trap_page"), first.get("mismatch"),
        session["wrong"],
    )


def _summary_of(summary) -> dict:
    return {
        name: getattr(summary, name)
        for name in (
            "total_sessions", "css_downloads", "js_executions",
            "mouse_movements", "hidden_link_follows", "ua_mismatches",
            "human_upper_count", "lower_bound", "upper_bound",
            "max_false_positive_rate",
        )
    }


def check_against_spec(stream, observed, sessions_of) -> None:
    """Hold one system's per-request observations and finished sessions
    (``sessions_of``: its analysable states) equal to the spec.

    Each assertion's message names it; the mutant table in
    ``test_detector_mutants`` names the one that kills each mutant.
    """
    outs, sessions = run(stream)
    if observed is not None:
        bound: dict[int, object] = {}
        for k, (out, (seen, state)) in enumerate(
            zip(outs, observed, strict=True)
        ):
            spec = (out.label, out.definitive, out.at, out.blocked, out.index)
            assert seen == spec, f"per-request verdict: request {k}"
            # One state object per spec session: the idle split agrees.
            assert bound.setdefault(out.session, state) is state, (
                f"idle split: request {k}"
            )
        assert len(set(map(id, bound.values()))) == len(bound), "idle split"
    expected = {
        (s["ip"], s["ua"], s["start"]): _spec_finished(s)
        for s in sessions if s["n"] > 10
    }
    got = {
        (s.key.client_ip, s.key.user_agent, s.started_at): _finished(s)
        for s in sessions_of
    }
    assert got == expected, "finished sessions"
    summary = SessionSets.from_sessions(sessions_of).summary()
    assert _summary_of(summary) == census(sessions), "census"


def round_trip(recorder: TraceRecorder, stream) -> None:
    """Replay the recorded CLF log and probe journal, through their line
    formats, into a fresh network, and hold it to the spec."""
    records = [
        parse_clf_line(format_clf_line(record))
        for record in recorder.sorted_records()
    ]
    probes = [
        parse_probe_line(format_probe_line(record))
        for record in recorder.sorted_probes()
    ]
    result = TraceReplayEngine(_network(1, 2)).replay(records, probes=probes)
    assert result.requests_replayed == len(stream), "round trip"
    check_against_spec(stream, None, result.sessions)
    assert _summary_of(result.summary) == census(run(stream)[1]), "census"


class DetectorMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.t = 0.0
        self.stream: list[Req] = []
        # The model of each IP's probe table, and every probe ever issued.
        self.tables: dict[str, OrderedDict[str, RegisteredProbe]] = {}
        self.issued: list[RegisteredProbe] = []
        self.pages = 0
        self.recorded = _network(2, 1)
        self.recorder = TraceRecorder()
        self.recorder.attach(self.recorded)
        self.systems = [
            _Service(), *(_Node(_node(k)) for k in (1, 2, 8)),
            _Node(self.recorded),
        ]
        self.observed: list[list] = [[] for _ in self.systems]

    # -- the model of the probe table ---------------------------------------

    def _registration_time(self) -> float:
        """The issue time of a registration: after every request so far.

        A recorded log and its probe journal share no sequence numbers,
        so at a tied timestamp a replay admits the journalled page before
        the requests (the order its own page fetch needs).  A live server
        stamps strictly increasing times; so does this machine.
        """
        if self.stream and self.stream[-1].t >= self.t:
            self.t += 0.25
        return self.t

    def _register(self, probes: list[RegisteredProbe]) -> None:
        table = self.tables.setdefault(probes[0].client_ip, OrderedDict())
        for probe in probes:
            table[probe.path] = probe
            table.move_to_end(probe.path)
        while len(table) > CAP:
            table.popitem(last=False)
        for system in self.systems:
            system.register(probes)

    def _resolve(self, ip: str, path: str):
        """(probe, echo) the request matches, as the paper's table says."""
        table = self.tables.get(ip, OrderedDict())
        probe = table.get(path)
        if probe is not None and self.t - probe.issued_at <= TTL:
            return probe, None
        for prefix, probe in reversed(table.items()):
            if (
                probe.kind is BeaconKind.UA_PROBE
                and path.startswith(prefix)
                and self.t - probe.issued_at <= TTL
            ):
                echo = path[len(prefix):]
                return probe, echo[:-4] if echo.endswith(".css") else echo
        return None, None

    def _send(self, client, path: str, gap: float) -> None:
        ip, ua = client
        self.t += gap
        probe, echo = self._resolve(ip, path)
        if probe is None:
            kind, key = "page", None
        else:
            kind = _SPEC_KIND[probe.kind]
            key = "ok" if probe.is_real_key else "decoy"
        cgi = path.startswith("/cgi-bin/")
        self.stream.append(Req(self.t, ip, ua, kind, key, echo, cgi))
        request = _request(ip, ua, path, self.t)
        for system, seen in zip(self.systems, self.observed):
            outcome = system.handle(request)
            seen.append((_observed(outcome), outcome.state))

    # -- rules --------------------------------------------------------------

    @rule(client=clients, gap=gaps)
    def issue_page(self, client, gap):
        """A page fetch, and the probes its instrumented copy carries."""
        self.t += gap
        issued_at = self._registration_time()
        ip = client[0]
        self.pages += 1
        prefix = f"/k{self.pages}/"
        probes = [
            RegisteredProbe(
                kind, ip, HOST, prefix + suffix, f"/p{self.pages}.html",
                issued_at, f"key{self.pages}", real,
            )
            for kind, suffix, real in _PAGE
        ]
        self.issued.extend(probes)
        self._register(probes)
        self._send(client, "/p.html", 0.0)

    @rule(ip=st.sampled_from(IPS))
    def flood(self, ip):
        issued_at = self._registration_time()
        self.pages += 1
        self._register([
            RegisteredProbe(
                BeaconKind.TRAP_IMAGE, ip, HOST, f"/f{self.pages}/{n}.gif",
                "/flood.html", issued_at,
            )
            for n in range(FLOOD)
        ])

    @rule(pick=st.integers(0, 10_000))
    def reissue(self, pick):
        """Re-register an issued path as another kind: a UA prefix that
        becomes a trap image stops matching as a prefix."""
        if self.issued:
            old = self.issued[pick % len(self.issued)]
            kind = (
                BeaconKind.CSS_BEACON if old.kind is BeaconKind.TRAP_IMAGE
                else BeaconKind.TRAP_IMAGE
            )
            issued_at = self._registration_time()
            self._register([old._replace(kind=kind, issued_at=issued_at)])

    @rule(client=clients, gap=gaps, cgi=st.booleans())
    def page(self, client, gap, cgi):
        path = f"/cgi-bin/q.cgi?n={len(self.stream)}" if cgi else "/p.html"
        self._send(client, path, gap)

    @rule(client=clients, n=st.sampled_from((6, 12, 24)), cgi=st.booleans())
    def burst(self, client, n, cgi):
        for _ in range(n):
            self.page(client, 0.25, cgi)

    def _fetch(self, client, probe: RegisteredProbe, echo: str, gap: float):
        path = probe.path
        if probe.kind is BeaconKind.UA_PROBE:
            path += {
                "right": echo_of(client[1]) + ".css",
                "wrong": echo_of(UAS[client[1] == UAS[0]]) + ".css",
                "empty": ".css",
                "no-css": echo_of(client[1]),
            }[echo]
        self._send(client, path, gap)

    @rule(
        client=clients, gap=gaps, echo=echoes,
        fetches=st.lists(st.integers(0, len(_PAGE) - 1), max_size=6),
    )
    def browse(self, client, gap, echo, fetches):
        """A page, then fetches of its own probes in the drawn order."""
        self.issue_page(client, gap)
        page = self.issued[-len(_PAGE):]
        for n in fetches:
            self._fetch(client, page[n], echo, 0.25)

    @rule(
        client=clients, mine=st.booleans(), back=st.integers(0, 15),
        echo=echoes, gap=gaps,
    )
    def fetch_probe(self, client, mine, back, echo, gap):
        """Fetch a recently issued probe URL: one issued to this client's
        IP, or to any IP."""
        pool = [
            probe for probe in self.issued
            if not mine or probe.client_ip == client[0]
        ]
        if pool:
            self._fetch(client, pool[-1 - back % len(pool)], echo, gap)

    @rule(client=clients, gap=gaps)
    def unknown_key(self, client, gap):
        self._send(client, f"/k{self.pages}/m9.gif", gap)

    @rule(gap=idles)
    def idle(self, gap):
        self.t += gap

    @rule()
    def housekeeping(self):
        for probes in self.tables.values():
            for path in [
                path for path, probe in probes.items()
                if self.t - probe.issued_at > TTL
            ]:
                del probes[path]
        for system in self.systems:
            system.housekeeping(self.t)

    def teardown(self):
        for system, seen in zip(self.systems, self.observed):
            check_against_spec(self.stream, seen, system.finalize())
        round_trip(self.recorder, self.stream)


TestDetectorSpec = DetectorMachine.TestCase
TestDetectorSpec.settings = settings(
    deadline=None,
    stateful_step_count=40,
    suppress_health_check=[HealthCheck.too_slow],
)
