"""An executable specification of the paper's §2-§3 detector.

A pure function of a request stream, written from the paper and from
nothing in ``repro.detection``.  Each request is already resolved against
the probe table; ``kind`` says what it fetched: ``"page"`` (nothing
registered for this client: plain, unknown-key, expired, evicted or
another client's probe URLs), ``"css"`` (the CSS beacon, §2.2),
``"script"`` (the beacon JavaScript file), ``"mouse"`` (a mouse-event
image, ``key`` ``"ok"`` or ``"decoy"``, §2.1), ``"ua"`` (the UA probe,
``echo`` the agent it echoed), ``"trap_page"`` or ``"trap_img"`` (the
hidden link's page or its image).

:func:`run` returns, per request, its session, 1-based index, online
verdict and whether §3.2 blocks it, and per session its first-evidence
indices and final verdict.  :func:`census` is Table 1 and the §3.1 bounds.
CAPTCHA results and the 4xx threshold are outside its inputs.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from typing import NamedTuple

IDLE = 3600.0  # §3: a session ends after an hour without requests
NOISE = 10  # §3: only sessions of more than 10 requests are analysed
MIN_REQUESTS = 10  # online: undecided before this many requests
GRACE = 30  # online: JS and no mouse for this many requests -> robot
CGI_LIMIT, GET_LIMIT = 10.0, 120.0  # §3.2 thresholds, per minute


class Req(NamedTuple):
    t: float
    ip: str
    ua: str
    kind: str = "page"
    key: str | None = None
    echo: str | None = None
    cgi: bool = False


#: Per request: its session's position in :func:`run`'s list, its 1-based
#: index, its online verdict, and whether §3.2 blocks it.
Out = namedtuple("Out", "session index label definitive at blocked")


def echo_of(ua: str) -> str:
    """The UA probe's echo: lowercased, no spaces, path-safe."""
    return re.sub(r"[^a-z0-9.;:()_+,-]", "_", ua.lower().replace(" ", ""))


def _hard(s: dict) -> bool:
    first = s["first"]
    return bool(s["wrong"]) or "trap_page" in first or "mismatch" in first


def online(s: dict) -> tuple[str, bool, int]:
    """(label, definitive, at_request) of a live session."""
    n, first = s["n"], s["first"]
    if _hard(s):
        return "robot", True, n
    if "mouse" in first:
        return "human", True, first["mouse"]
    if "js" in first and n - first["js"] >= GRACE:
        return "robot", False, n
    if "css" in first:
        return "human", False, first["css"]
    return ("robot" if n >= MIN_REQUESTS else "undecided"), False, n


def in_sh(first: dict) -> bool:
    """S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM), for one session."""
    css, js, mm = "css" in first, "js" in first, "mouse" in first
    return (css or mm) and not (js and not mm)


def final(s: dict) -> tuple[str, int]:
    """(label, at_request) of a finished session."""
    if _hard(s):
        return "robot", s["n"]
    if "mouse" in s["first"]:
        return "human", s["first"]["mouse"]
    return ("human" if in_sh(s["first"]) else "robot"), s["n"]


def _police(s: dict, r: Req, label: str) -> bool:
    if s["block"]:
        return True
    if label == "human":
        s["rates"] = None
    elif label == "robot":
        cgi, get, at = s["rates"] or (0.0, 0.0, None)
        if at is not None:
            decay = math.exp(-max(0.0, r.t - at) / 60.0)
            cgi, get = cgi * decay, get * decay
        cgi, get = cgi + r.cgi, get + 1.0
        s["rates"] = (cgi, get, r.t)
        s["block"] = bool(s["wrong"]) or cgi > CGI_LIMIT or get > GET_LIMIT
    return s["block"]


def run(stream) -> tuple[list[Out], list[dict]]:
    """Fold a time-ordered request stream into sessions and verdicts."""
    outs, sessions, live = [], [], {}
    for r in stream:
        number = live.get((r.ip, r.ua))
        if number is None or r.t - sessions[number]["last"] > IDLE:
            number = live[(r.ip, r.ua)] = len(sessions)
            sessions.append(dict(ip=r.ip, ua=r.ua, start=r.t, n=0, first={},
                                 wrong=0, rates=None, block=False))
        s = sessions[number]
        s["n"] += 1
        s["last"], i, first = r.t, s["n"], s["first"]
        if r.kind == "mouse" and r.key == "decoy":
            s["wrong"] += 1
        elif r.kind == "ua":
            first.setdefault("js", i)
            if r.echo and r.echo != echo_of(r.ua):
                first.setdefault("mismatch", i)
        elif r.kind in ("css", "script", "mouse", "trap_page"):
            first.setdefault(r.kind, i)
        label, definitive, at = online(s)
        outs.append(Out(number, i, label, definitive, at, _police(s, r, label)))
    return outs, sessions


def census(sessions: list[dict]) -> dict:
    """Table 1 over the analysable sessions, and the §3.1 bounds."""
    kept = [k for k, s in enumerate(sessions) if s["n"] > NOISE]

    def having(evidence: str) -> set[int]:
        return {k for k in kept if evidence in sessions[k]["first"]}

    s_css, s_js, s_mm = having("css"), having("js"), having("mouse")
    s_h = (s_css | s_mm) - (s_js - s_mm)
    total = len(kept)
    lower = len(s_mm) / total if total else 0.0
    upper = len(s_h) / total if total else 0.0
    return dict(
        total_sessions=total, css_downloads=len(s_css),
        js_executions=len(s_js), mouse_movements=len(s_mm),
        hidden_link_follows=len(having("trap_page")),
        ua_mismatches=len(having("mismatch")), human_upper_count=len(s_h),
        lower_bound=lower, upper_bound=upper,
        max_false_positive_rate=(upper - lower) / (1.0 - lower)
        if lower < 1.0 else 0.0,
    )
