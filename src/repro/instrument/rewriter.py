"""Dynamic HTML rewriting: apply all four probes to a served page.

This is the server-side half of §2: for each HTML response to each client,
:class:`PageInstrumenter` generates fresh probes, injects them into the
document, registers them in the per-IP table, and marks the page
uncacheable ("the server marks it uncacheable by adding the response
header line Cache-Control: no-cache, no-store").

The work for a page is one pass over two streams.  ``_build_plan``
derives the *page stream* from ``(client_ip, per-client sequence)`` and
draws from it, in a fixed order, only what the page and the probe table
need — the CSS beacon's key; the beacon script's real and decoy keys and
the name its handler is served under; the script file name; the UA probe;
the hidden link — then hands the page's probes to the registry in one
call.  The order is part of the contract, because every key in a recorded
trace depends on it.  The beacon script's *text* is not made here: its
``BEACON_JS`` probe carries the recipe
(:class:`repro.instrument.js_beacon.BeaconScript`, seeded with a split of
the page stream — the *script stream*), and the text is emitted from it,
plain or obfuscated and the same every time, when the file is fetched —
which few clients that are sent a page ever do.  Traces recorded before
the two streams were parted replay unchanged (a replay rebuilds the table
from the probe journal); recording one again yields the same CSS and
mouse keys but different names for everything drawn after them.

The splice has two paths: well-formed pages (a ``</head>``, a
``<body ...>`` and a ``</body>``, none inside another — everything the
origin emits) are located once and joined once, a few microseconds a
page, which is why no page template is cached; anything else goes through
the HTML parser, which synthesises the missing structure first.  Both
paths carry the same probes.

:func:`beacon_response` is the serving half: when a later request matches
a registered probe, the proxy answers it directly (empty CSS, any JPEG,
the generated script, ...) without involving the origin.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.html.document import Element, Text
from repro.html.parser import parse_html
from repro.html.serializer import serialize
from repro.http.headers import Headers
from repro.http.message import Response
from repro.http.uri import Url
from repro.instrument.css_beacon import make_css_beacon
from repro.instrument.hidden_link import make_hidden_link
from repro.instrument.js_beacon import (
    BeaconScript,
    build_beacon_script,
    check_script_parameters,
)
from repro.instrument.keys import (
    BeaconHit,
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.instrument.ua_probe import make_ua_probe_script
from repro.util.ids import random_numeric_key
from repro.util.rng import RngStream

# Minimal valid-enough payloads for probe responses.
_FAKE_JPEG = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01" + b"\x00" * 64 + b"\xff\xd9"
_TRANSPARENT_GIF = (
    b"GIF89a\x01\x00\x01\x00\x80\x00\x00\x00\x00\x00\x00\x00\x00"
    b"!\xf9\x04\x01\x00\x00\x00\x00,\x00\x00\x00\x00\x01\x00\x01\x00\x00"
    b"\x02\x02D\x01\x00;"
)
_TRAP_PAGE_BODY = (
    b"<html><head><title>index</title></head>"
    b"<body><p>nothing to see</p></body></html>"
)

# ``<body`` then whitespace, ``/`` or ``>``: not ``<bodyguard>`` or ``<body-x>``.
_BODY_TAG_RE = re.compile(r"<body(?=[\s/>])([^>]*)>", re.IGNORECASE)


@dataclass(frozen=True)
class InstrumentConfig:
    """Which probes to apply and how (§2 parameters).

    ``decoys`` is the paper's ``m``; ``key_bits`` the key space (2^128).
    """

    decoys: int = 4
    key_bits: int = 128
    obfuscate: bool = True
    junk_statements: int = 6
    mouse_beacon: bool = True
    css_beacon: bool = True
    hidden_link: bool = True
    ua_probe: bool = True

    def __post_init__(self) -> None:
        check_script_parameters(
            self.decoys, self.key_bits, self.junk_statements
        )


@dataclass
class InstrumentedPage:
    """The rewritten page plus everything that was registered for it."""

    html: str
    original_html: str
    probes: list[RegisteredProbe] = field(default_factory=list)
    beacon_script: BeaconScript | None = None

    @property
    def added_bytes(self) -> int:
        """HTML growth caused by instrumentation (markup only)."""
        return len(self.html.encode("utf-8")) - len(
            self.original_html.encode("utf-8")
        )


@dataclass
class _ProbePlan:
    """Everything generated for one page before injection."""

    head_fragment: str = ""
    body_attribute: str | None = None  # onmousemove handler expression
    tail_fragment: str = ""


class PageInstrumenter:
    """Rewrites HTML pages and maintains the probe registry."""

    def __init__(
        self,
        registry: InstrumentationRegistry,
        rng: RngStream,
        config: InstrumentConfig | None = None,
    ) -> None:
        self._registry = registry
        self._rng = rng
        self._config = config or InstrumentConfig()
        self._pages_instrumented = 0
        self._ip_seq: dict[str, int] = {}

    @property
    def config(self) -> InstrumentConfig:
        """The instrumentation configuration."""
        return self._config

    @property
    def registry(self) -> InstrumentationRegistry:
        """The shared per-IP probe table."""
        return self._registry

    @property
    def pages_instrumented(self) -> int:
        """How many pages this instrumenter has rewritten."""
        return self._pages_instrumented

    def instrument(
        self,
        html: str,
        page_url: Url,
        client_ip: str,
        now: float,
    ) -> InstrumentedPage:
        """Rewrite one page for one client and register its probes."""
        result = InstrumentedPage(html=html, original_html=html)
        plan = self._build_plan(result, page_url, client_ip, now)
        result.html = self._inject(html, plan)
        self._pages_instrumented += 1
        return result

    # -- probe generation -----------------------------------------------------

    def _build_plan(
        self,
        result: InstrumentedPage,
        page_url: Url,
        client_ip: str,
        now: float,
    ) -> _ProbePlan:
        cfg = self._config
        # Probe randomness is derived per request, not drawn from a
        # shared sequential stream: the split is keyed on (client,
        # per-client sequence number), so the generated keys depend only
        # on how many pages *this* client had instrumented before —
        # never on how many requests other clients interleaved.  A
        # client's event subsequence is identical under every shard
        # count, lane layout and executor (the admission contract pins
        # per-client order, and an IP always hashes to one shard), so
        # instrumentation is invariant to all of them while staying
        # fresh per call even for identical (page, timestamp) repeats.
        seq = self._ip_seq.get(client_ip, 0)
        self._ip_seq[client_ip] = seq + 1
        rng = self._rng.split(f"page|{client_ip}|{seq}")
        host = page_url.host
        page_path = page_url.path
        plan = _ProbePlan()
        head_parts: list[str] = []
        tail_parts: list[str] = []
        probes = result.probes

        def issue(
            kind: BeaconKind,
            path: str,
            key: str | None = None,
            is_real_key: bool = False,
            script: BeaconScript | None = None,
        ) -> None:
            probes.append(
                RegisteredProbe(
                    kind, client_ip, host, path, page_path, now,
                    key, is_real_key, script,
                )
            )

        if cfg.css_beacon:
            beacon = make_css_beacon(rng)
            head_parts.append(
                '<link rel="stylesheet" type="text/css" '
                f'href="http://{host}{beacon.path}">'
            )
            issue(BeaconKind.CSS_BEACON, beacon.path)

        if cfg.mouse_beacon:
            script = build_beacon_script(
                rng, host, decoys=cfg.decoys, key_bits=cfg.key_bits,
                junk_statements=cfg.junk_statements if cfg.obfuscate else None,
            )
            # The script file is named like a sibling of the page, as in
            # the paper's "./index_0729395150.js".
            directory, _, filename = page_path.rpartition("/")
            stem = filename.rsplit(".", 1)[0] or "index"
            js_name = f"{stem}_{random_numeric_key(rng, 10)}.js"
            head_parts.append(
                f'<script language="javascript" src="./{js_name}"></script>'
            )
            plan.body_attribute = script.handler_expression
            result.beacon_script = script

            issue(
                BeaconKind.BEACON_JS, f"{directory}/{js_name}", script=script
            )
            real_key = script.real_key
            for key, path in zip(script.keys, script.all_image_paths):
                issue(BeaconKind.MOUSE_IMAGE, path, key, key == real_key)

        if cfg.ua_probe:
            probe = make_ua_probe_script(rng)
            tail_parts.append(f"<script>{probe.script_source(host)}</script>")
            issue(BeaconKind.UA_PROBE, probe.prefix_path)

        if cfg.hidden_link:
            trap = make_hidden_link(rng)
            tail_parts.append(
                f'<a href="http://{host}{trap.page_path}">'
                f'<img src="http://{host}{trap.image_path}" width="1" '
                'height="1" border="0" alt=""></a>'
            )
            issue(BeaconKind.TRAP_PAGE, trap.page_path)
            issue(BeaconKind.TRAP_IMAGE, trap.image_path)

        self._registry.register_page(probes)
        plan.head_fragment = "".join(head_parts)
        plan.tail_fragment = "".join(tail_parts)
        return plan

    # -- injection --------------------------------------------------------------

    def _inject(self, html: str, plan: _ProbePlan) -> str:
        """Splice the plan into a well-formed page, or go through the parser.

        Well-formed is: the first ``</head>``, the first body tag and the
        first ``</body>`` all exist and neither closing tag sits inside
        the body tag (``<body title="</head>">``).  The three are located
        once and the page is joined once around them, whatever order they
        come in.  A body tag given a handler is re-spelt ``<body``.
        """
        head_at = html.find("</head>")
        tail_at = html.find("</body>")
        tag = _BODY_TAG_RE.search(html)
        if head_at < 0 or tail_at < 0 or tag is None:
            return self._inject_tree(html, plan)
        tag_at, tag_end = tag.span()
        if tag_at < head_at < tag_end or tag_at < tail_at < tag_end:
            return self._inject_tree(html, plan)
        if plan.body_attribute is None:
            new_tag = tag.group()
        else:
            new_tag = f'<body{tag.group(1)} onmousemove="{plan.body_attribute}">'
        pieces = []
        at = 0
        for start, end, text in sorted(
            (
                (head_at, head_at, plan.head_fragment),
                (tag_at, tag_end, new_tag),
                (tail_at, tail_at, plan.tail_fragment),
            )
        ):
            pieces += (html[at:start], text)
            at = end
        pieces.append(html[at:])
        return "".join(pieces)

    @staticmethod
    def _inject_tree(html: str, plan: _ProbePlan) -> str:
        """Parser-based injection for fragments and malformed pages."""
        root = parse_html(html)
        head = root.find("head")
        body = root.find("body")
        if head is None or body is None:  # parser guarantees both
            raise AssertionError("parse_html must synthesise head and body")
        if plan.head_fragment:
            # Fragments parse into a head/body split; collect both halves.
            fragment = parse_html(plan.head_fragment)
            for node in fragment.find("head").children:
                head.append(node)
            for node in fragment.find("body").children:
                head.append(node)
        if plan.body_attribute is not None:
            body.set("onmousemove", plan.body_attribute)
        if plan.tail_fragment:
            fragment = parse_html(plan.tail_fragment)
            for node in fragment.find("head").children:
                body.append(node)
            for node in fragment.find("body").children:
                body.append(node)
        return serialize(root)


def mark_uncacheable(headers: Headers) -> None:
    """Apply the paper's anti-caching header to an instrumented response."""
    headers.set("Cache-Control", "no-cache, no-store")


def beacon_response(hit: BeaconHit) -> Response:
    """Serve a matched probe request directly from the proxy."""
    kind = hit.probe.kind
    if kind is BeaconKind.BEACON_JS:
        headers = Headers([("Content-Type", "application/javascript")])
        mark_uncacheable(headers)
        script = hit.probe.script
        body = script.source.encode("utf-8") if script is not None else b""
        return Response(status=200, headers=headers, body=body)
    if kind is BeaconKind.MOUSE_IMAGE:
        # "The server can respond with any JPEG image because the picture
        # is not used."
        headers = Headers([("Content-Type", "image/jpeg")])
        mark_uncacheable(headers)
        return Response(status=200, headers=headers, body=_FAKE_JPEG)
    if kind is BeaconKind.CSS_BEACON or kind is BeaconKind.UA_PROBE:
        headers = Headers([("Content-Type", "text/css")])
        mark_uncacheable(headers)
        return Response(status=200, headers=headers, body=b"")
    if kind is BeaconKind.TRAP_IMAGE:
        headers = Headers([("Content-Type", "image/gif")])
        return Response(status=200, headers=headers, body=_TRANSPARENT_GIF)
    if kind is BeaconKind.TRAP_PAGE:
        headers = Headers([("Content-Type", "text/html")])
        mark_uncacheable(headers)
        return Response(status=200, headers=headers, body=_TRAP_PAGE_BODY)
    raise ValueError(f"unhandled beacon kind: {kind}")
