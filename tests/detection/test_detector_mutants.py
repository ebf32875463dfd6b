"""Hand-seeded mutants of the detector, each killed by the spec test.

Every mutant rewrites one line of one method of the session state
machine, the tracker, the set algebra or the probe table, and is
installed with ``monkeypatch``.  Each comes with a short scripted run of
``DetectorMachine`` (the stateful test's machine) and the name of the
``check_against_spec`` assertion that kills it: the run must pass on the
real code and fail on the mutant with exactly that assertion.  A seeded
line that no longer occurs verbatim fails the test, so an edit to the
code cannot quietly turn a mutant into the original.
"""

from __future__ import annotations

import __future__
import inspect
import sys
import textwrap
from typing import Callable, NamedTuple

import pytest

from repro.detection.session import SessionState
from repro.detection.set_algebra import SessionSets
from repro.detection.tracker import SessionTracker
from repro.instrument.keys import InstrumentationRegistry
from test_detector_spec import UAS, DetectorMachine

A = ("10.0.0.1", UAS[0])
B = ("10.0.0.2", UAS[0])

# Indices into one issued page's probes (``_PAGE`` in the stateful test).
DECOY, CSS, TRAP_PAGE, TRAP_IMG, UA = 1, 4, 5, 6, 7


class Mutant(NamedTuple):
    name: str
    owner: type
    attr: str
    line: str  # the original text, occurring once in ``attr``'s source
    mutated: str
    script: Callable[[DetectorMachine], None]
    killed_by: str  # the message of the assertion that kills it


def _css_only(m):
    m.browse(A, 0.0, "right", [CSS])
    m.burst(A, 12, False)


def _css_and_js(m):
    m.browse(A, 0.0, "right", [CSS, UA])
    m.burst(A, 12, False)


def _hour_to_the_second(m):
    m.page(A, 0.0, False)
    m.idle(3600.0)
    m.page(A, 0.0, False)


def _reissued_ua_prefix(m):
    m.browse(A, 0.0, "right", [])
    m.reissue(UA)  # the UA prefix becomes a trap image
    m.fetch_probe(A, True, 0, "wrong", 0.25)


def _grace(m):
    m.browse(A, 0.0, "right", [CSS, UA])  # JS runs at request 3
    m.burst(A, 30, False)  # request 33 is 30 after it


def _cgi_block_then_css(m):
    m.burst(A, 24, True)
    m.browse(A, 0.25, "right", [CSS])


def _watched_at_time_zero(m):
    for _ in range(19):  # ten watched CGI requests at t=0: 10/min
        m.page(A, 0.0, True)
    m.idle(1800.0)
    m.page(A, 0.0, True)  # ~1/min, not 11/min


def _trap_and_css(m):
    m.browse(A, 0.0, "right", [CSS, TRAP_PAGE])
    m.burst(A, 12, False)


MUTANTS = [
    Mutant(
        "S_H: the union S_CSS ∪ S_MM becomes an intersection",
        SessionState, "is_human_by_set_algebra",
        "self.in_css_set or self.in_mouse_set",
        "self.in_css_set and self.in_mouse_set",
        _css_only, "finished sessions",
    ),
    Mutant(
        "S_H: the difference S_JS − S_MM becomes an intersection",
        SessionState, "is_human_by_set_algebra",
        "self.in_js_set and not self.in_mouse_set",
        "self.in_js_set and self.in_mouse_set",
        _css_and_js, "finished sessions",
    ),
    Mutant(
        "idle rule: >= for > (an hour to the second splits)",
        SessionTracker, "observe",
        "state.last_request_at > IDLE_TIMEOUT",
        "state.last_request_at >= IDLE_TIMEOUT",
        _hour_to_the_second, "per-request verdict",
    ),
    Mutant(
        "a decoy key is accepted as the real one",
        SessionState, "observe_hit",
        "if not probe.is_real_key:",
        "if False:",
        lambda m: m.browse(A, 0.0, "right", [DECOY]),
        "per-request verdict",
    ),
    Mutant(
        "a UA prefix re-issued as another kind still matches as a prefix",
        InstrumentationRegistry, "_insert",
        "elif prefixes and path in prefixes:",
        "elif False:",
        _reissued_ua_prefix, "per-request verdict",
    ),
    Mutant(
        "match finds a probe issued to another IP",
        InstrumentationRegistry, "match",
        "table = self._by_ip.get(request.client_ip)",
        "table = {p: q for t in self._by_ip.values() for p, q in t.items()}",
        lambda m: (
            m.browse(A, 0.0, "right", []),
            m.fetch_probe(B, False, 3, "right", 0.25),  # A's CSS beacon
        ),
        "per-request verdict",
    ),
    Mutant(
        "JS-without-mouse grace: > for >=",
        SessionState, "verdict",
        "n - self.js_executed_at >= JS_NO_MOUSE_GRACE",
        "n - self.js_executed_at > JS_NO_MOUSE_GRACE",
        _grace, "per-request verdict",
    ),
    Mutant(
        "a block that does not stick (a HUMAN verdict lifts it)",
        SessionState, "police",
        "if self.block_reason:\n",
        "if self.block_reason and verdict.label is not Label.HUMAN:\n",
        _cgi_block_then_css, "per-request verdict",
    ),
    Mutant(
        "a watch started at t=0 reads as never updated (no decay)",
        SessionState, "police",
        "if self.rates_at is not None:",
        "if self.rates_at:",
        _watched_at_time_zero, "per-request verdict",
    ),
    Mutant(
        "the CSS index is overwritten by every fetch, not set once",
        SessionState, "observe_hit",
        "if self.css_beacon_at is None:",
        "if True:",
        lambda m: m.browse(A, 0.0, "right", [CSS, CSS]),
        "per-request verdict",
    ),
    Mutant(
        "the trap image counts as following the hidden link",
        SessionState, "observe_hit",
        "elif kind is _TRAP_PAGE:",
        "elif kind in (_TRAP_PAGE, BeaconKind.TRAP_IMAGE):",
        lambda m: m.browse(A, 0.0, "right", [TRAP_IMG]),
        "per-request verdict",
    ),
    Mutant(
        "an empty UA echo counts as a mismatch",
        SessionState, "observe_hit",
        "echoed\n",
        "echoed is not None\n",
        lambda m: m.browse(A, 0.0, "empty", [UA]),
        "per-request verdict",
    ),
    Mutant(
        "a probe is dead at exactly its TTL",
        InstrumentationRegistry, "_alive",
        "<= self._ttl",
        "< self._ttl",
        lambda m: (
            m.browse(A, 0.0, "right", []),
            m.idle(3600.0),
            m.fetch_probe(A, True, 3, "right", 0.0),  # the CSS beacon
        ),
        "per-request verdict",
    ),
    Mutant(
        "the UA probe's .css suffix stays on the echo",
        InstrumentationRegistry, "match",
        'if echoed.endswith(".css"):',
        "if False:",
        lambda m: m.browse(A, 0.0, "right", [UA]),
        "per-request verdict",
    ),
    Mutant(
        "no browser evidence is robot only after more than 10 requests",
        SessionState, "verdict",
        "if n >= MIN_REQUESTS:",
        "if n > MIN_REQUESTS:",
        lambda m: m.burst(A, 10, False),
        "per-request verdict",
    ),
    Mutant(
        "at session end only a wrong key is hard robot evidence",
        SessionState, "final_verdict",
        "if reason is not None:",
        "if reason == _WRONG_KEY:",
        _trap_and_css, "finished sessions",
    ),
    Mutant(
        "the per-IP cap evicts nothing",
        InstrumentationRegistry, "_insert",
        "range(len(table) - self._per_ip_cap)",
        "range(0)",
        lambda m: (
            m.browse(A, 0.0, "right", []),
            m.flood(A[0]),  # evicts the page's decoy images, among others
            m.fetch_probe(A, True, 6, "right", 0.25),  # its first decoy
        ),
        "per-request verdict",
    ),
    Mutant(
        "the census counts UA mismatches as hidden-link follows",
        SessionSets, "add",
        "if state.followed_hidden_link:",
        "if state.ua_mismatched:",
        _trap_and_css, "census",
    ),
]


def _mutated(mutant: Mutant):
    """The mutant's replacement for ``owner.attr``, compiled in its
    module's namespace."""
    original = inspect.getattr_static(mutant.owner, mutant.attr)
    function = original.fget if isinstance(original, property) else original
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(mutant.line) == 1, (
        f"{mutant.attr} no longer holds the seeded line {mutant.line!r}"
    )
    namespace = dict(sys.modules[function.__module__].__dict__)
    exec(
        compile(
            source.replace(mutant.line, mutant.mutated),
            f"<mutant: {mutant.name}>",
            "exec",
            flags=__future__.annotations.compiler_flag,
            dont_inherit=True,
        ),
        namespace,
    )
    replacement = namespace[function.__name__]
    if isinstance(original, property) and not isinstance(replacement, property):
        replacement = property(replacement)
    return replacement


def _play(script) -> None:
    machine = DetectorMachine()
    script(machine)
    machine.teardown()


_IDS = [mutant.name for mutant in MUTANTS]


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_the_script_passes_on_the_real_code(mutant):
    _play(mutant.script)


@pytest.mark.parametrize("mutant", MUTANTS, ids=_IDS)
def test_the_mutant_is_killed(mutant, monkeypatch):
    monkeypatch.setattr(mutant.owner, mutant.attr, _mutated(mutant))
    with pytest.raises(AssertionError, match=f"^{mutant.killed_by}"):
        _play(mutant.script)


def test_at_least_twelve_mutants_each_a_real_change():
    assert len(MUTANTS) >= 12
    assert len(set(_IDS)) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.line != mutant.mutated
