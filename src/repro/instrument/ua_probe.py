"""The User-Agent echo probe (Figure 1, second script block).

An inline script reads ``navigator.userAgent``, lowercases it, strips
spaces, and ``document.write``s a stylesheet link whose URL embeds the
result.  A fetch of that URL tells the server two things:

* the client *executed JavaScript* (membership in ``S_JS``), and
* what the client's JavaScript engine says the User-Agent is — compared
  against the User-Agent *header* to expose forgery ("browser type
  mismatch", 0.7% of sessions in Table 1).

:func:`interpret_ua_probe` is the client-side reading used by the
JavaScript-capable agent models: given the inline script text, it
reconstructs the URL a real engine would fetch for a given true UA.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


_PROBE_RE = re.compile(
    r"href=(https?://[^\s\"'+]+)\"\s*\+\s*getuseragnt\(\)\s*\+\s*\"([^\">]*)"
)

_UA_SAFE_RE = re.compile(r"[^a-z0-9.;:()_+,-]")


def sanitize_user_agent(user_agent: str) -> str:
    """Mimic the paper's ``getuseragnt()``: lowercase, no spaces.

    Additionally maps path-hostile characters (``/`` from product tokens
    like ``Firefox/1.5``) to ``_`` so the echoed UA stays a single path
    segment.
    """
    lowered = user_agent.lower().replace(" ", "")
    return _UA_SAFE_RE.sub("_", lowered)


def ua_probe_prefix(number: int) -> str:
    """The directory the echo URL lives in, for a drawn ten-digit ``number``."""
    return f"/ua_{number:010d}/"


def ua_probe_script(url_prefix: str) -> str:
    """The inline JavaScript injected into the page; ``url_prefix`` is
    the absolute URL of the probe's directory."""
    return (
        "function getuseragnt()\n"
        "{ var agt = navigator.userAgent.toLowerCase();\n"
        '  agt = agt.replace(/ /g, "");\n'
        "  return agt;\n"
        "}\n"
        'document.write("<link rel=\'stylesheet\' type=\'text/css\' "\n'
        f'  + "href={url_prefix}" + getuseragnt() + ".css>");\n'
    )


@dataclass(frozen=True)
class UaProbeTemplate:
    """Client-side view of a probe: how to build the echo URL."""

    url_prefix: str
    suffix: str

    def fetch_url(self, true_user_agent: str) -> str:
        """The URL a JavaScript engine with this UA would fetch."""
        return f"{self.url_prefix}{sanitize_user_agent(true_user_agent)}{self.suffix}"


def interpret_ua_probe(script_source: str) -> UaProbeTemplate | None:
    """Recognise a UA probe inside inline script text.

    Returns the URL template, or None when the script is not a UA probe
    (agents call this on every inline script they encounter).
    """
    match = _PROBE_RE.search(script_source)
    if match is None:
        return None
    return UaProbeTemplate(url_prefix=match.group(1), suffix=match.group(2))
