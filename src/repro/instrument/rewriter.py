"""Dynamic HTML rewriting: apply all four probes to a served page.

This is the server-side half of §2: for each HTML response to each client,
:class:`PageInstrumenter` generates fresh probes, injects them into the
document, registers them in the per-IP table, and marks the page
uncacheable ("the server marks it uncacheable by adding the response
header line Cache-Control: no-cache, no-store").

The work for a page is one pass over two streams.  ``_build_plan``
derives the *page stream* from ``(client_ip, per-client sequence)`` and
draws from it only what the page and the probe table need, in this
order — each step only when its probe is configured:

1. the CSS beacon: a ten-digit number, ``randrange(10**10)`` — spelt out
   in :func:`_ten_digits` as the standard library computes it;
2. the beacon script: the real key, the decoy keys and the name its
   handler is served under (:func:`repro.instrument.js_beacon.draw_beacon_script`),
   then the script file's ten-digit number;
3. the UA probe: a ten-digit number;
4. the hidden link: a ten-digit number.

The order is part of the contract, because every key in a recorded
trace depends on it.  The page's probes are one tuple in that order (the
mouse images real key first, the trap page before its image), registered
in one call.  The beacon script's *text* is not made here: its
``BEACON_JS`` probe carries the recipe
(:class:`repro.instrument.js_beacon.BeaconScript`, from which the
*script stream* is split off the page stream), and the text is emitted
from it, plain or obfuscated and the same every time, when the file is
fetched — which few clients that are sent a page ever do.

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

import random
import re
from dataclasses import dataclass
from typing import NamedTuple

from repro.html.parser import parse_html
from repro.html.serializer import serialize
from repro.http.headers import Headers
from repro.http.message import Response
from repro.http.uri import Url
from repro.instrument.css_beacon import css_beacon_path
from repro.instrument.hidden_link import TRAP_IMAGE_PATH, trap_page_path
from repro.instrument.js_beacon import (
    BeaconScript,
    check_script_parameters,
    draw_beacon_script,
)
from repro.instrument.keys import (
    BeaconHit,
    BeaconKind,
    InstrumentationRegistry,
    RegisteredProbe,
)
from repro.instrument.ua_probe import ua_probe_prefix, ua_probe_script
from repro.util.rng import RngStream, child_seed

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
#: The paper's anti-caching header, as a header entry.
_NO_STORE = ("Cache-Control", "no-cache, no-store")
#: What a probe fetch is answered with, by kind (the script is emitted).
#: "The server can respond with any JPEG image because the picture is not
#: used."  Every answer but the trap image is marked uncacheable.
_BEACON_ANSWERS = {
    BeaconKind.MOUSE_IMAGE: ("image/jpeg", _FAKE_JPEG),
    BeaconKind.CSS_BEACON: ("text/css", b""),
    BeaconKind.UA_PROBE: ("text/css", b""),
    BeaconKind.TRAP_IMAGE: ("image/gif", _TRANSPARENT_GIF),
    BeaconKind.TRAP_PAGE: ("text/html", _TRAP_PAGE_BODY),
}

# ``<body`` then whitespace, ``/`` or ``>``: not ``<bodyguard>`` or ``<body-x>``.
_BODY_TAG_RE = re.compile(r"<body(?=[\s/>])([^>]*)>", re.IGNORECASE)

#: The bound of the ten-digit numbers that name probe files.
_TEN_DIGITS = 10**10
#: A ``RegisteredProbe`` from all nine fields at C cost (its own
#: constructor is Python); the kinds are read once, as enum lookups cost.
_new_probe = tuple.__new__
_CSS_BEACON, _BEACON_JS, _MOUSE_IMAGE, _UA_PROBE, _TRAP_PAGE, _TRAP_IMAGE = (
    BeaconKind.CSS_BEACON, BeaconKind.BEACON_JS, BeaconKind.MOUSE_IMAGE,
    BeaconKind.UA_PROBE, BeaconKind.TRAP_PAGE, BeaconKind.TRAP_IMAGE,
)


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


class InstrumentedPage(NamedTuple):
    """The rewritten page plus everything that was registered for it."""

    html: str
    original_html: str
    probes: tuple[RegisteredProbe, ...] = ()
    beacon_script: BeaconScript | None = None

    @property
    def added_bytes(self) -> int:
        """HTML growth caused by instrumentation (markup only)."""
        return len(self.html.encode("utf-8")) - len(
            self.original_html.encode("utf-8")
        )


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
        self._config = config = config or InstrumentConfig()
        self._junk = config.junk_statements if config.obfuscate else None
        self._ip_seq: dict[str, int] = {}
        #: The page stream's generator, reseeded for every page.
        self._page_stream = random.Random()

    def instrument(
        self,
        html: str,
        page_url: Url,
        client_ip: str,
        now: float,
    ) -> InstrumentedPage:
        """Rewrite one page for one client and register its probes."""
        probes, script, head, handler, tail = self._build_plan(
            page_url, client_ip, now
        )
        self._registry.register_page(probes)
        return InstrumentedPage(
            self._inject(html, head, handler, tail), html, probes, script
        )

    # -- probe generation -----------------------------------------------------

    def _build_plan(self, page_url: Url, client_ip: str, now: float) -> tuple:
        """Draw one page's probes, in the order the module docstring
        fixes: ``(probes, script, head fragment, onmousemove handler or
        None, tail fragment)``."""
        cfg = self._config
        # Probe randomness is derived per request, not drawn from a
        # shared sequential stream: the split is keyed on (client,
        # per-client sequence number), so the generated keys depend only
        # on how many pages *this* client had instrumented before —
        # never on how many requests other clients interleaved.  A
        # client's event subsequence is identical under every shard
        # count and executor (the admission contract pins
        # per-client order, and an IP always hashes to one shard), so
        # instrumentation is invariant to all of them while staying
        # fresh per call even for identical (page, timestamp) repeats.
        seq = self._ip_seq.get(client_ip, 0)
        self._ip_seq[client_ip] = seq + 1
        # The stream ``self._rng.split(label)`` would make; nothing of it
        # outlives the page, so one generator is reseeded.
        seed = child_seed(self._rng.seed, f"page|{client_ip}|{seq}")
        self._page_stream.seed(seed)
        bits = self._page_stream.getrandbits
        host = page_url.host
        site = f"http://{host}"
        page_path = page_url.path
        probes: list[RegisteredProbe] = []
        head = tail = ""
        script = handler = None

        if cfg.css_beacon:
            path = css_beacon_path(_ten_digits(bits))
            head = f'<link rel="stylesheet" type="text/css" href="{site}{path}">'
            probes.append(_new_probe(RegisteredProbe, (
                _CSS_BEACON, client_ip, host, path, page_path, now, None, False, None)))

        if cfg.mouse_beacon:
            script = draw_beacon_script(bits, seed, host, cfg.decoys, cfg.key_bits, self._junk)
            # The script file is named like a sibling of the page, as in
            # the paper's "./index_0729395150.js".
            directory, _, filename = page_path.rpartition("/")
            stem = filename.rsplit(".", 1)[0] or "index"
            js_name = f"{stem}_{_ten_digits(bits):010d}.js"
            head += f'<script language="javascript" src="./{js_name}"></script>'
            handler = script.handler_expression
            probes.append(_new_probe(RegisteredProbe, (
                _BEACON_JS, client_ip, host, f"{directory}/{js_name}", page_path, now,
                None, False, script)))
            real_key = script.keys[0]
            probes += [
                _new_probe(RegisteredProbe, (
                    _MOUSE_IMAGE, client_ip, host, f"/{key}.jpg", page_path, now,
                    key, key == real_key, None))
                for key in script.keys
            ]

        if cfg.ua_probe:
            prefix = ua_probe_prefix(_ten_digits(bits))
            tail = f"<script>{ua_probe_script(site + prefix)}</script>"
            probes.append(_new_probe(RegisteredProbe, (
                _UA_PROBE, client_ip, host, prefix, page_path, now, None, False, None)))

        if cfg.hidden_link:
            trap = trap_page_path(_ten_digits(bits))
            tail += (
                f'<a href="{site}{trap}"><img src="{site}{TRAP_IMAGE_PATH}" '
                'width="1" height="1" border="0" alt=""></a>'
            )
            probes += (
                _new_probe(RegisteredProbe, (
                    _TRAP_PAGE, client_ip, host, trap, page_path, now, None, False, None)),
                _new_probe(RegisteredProbe, (
                    _TRAP_IMAGE, client_ip, host, TRAP_IMAGE_PATH, page_path, now,
                    None, False, None)),
            )

        return tuple(probes), script, head, handler, tail

    # -- injection --------------------------------------------------------------

    def _inject(
        self, html: str, head: str, handler: str | None, tail: str
    ) -> str:
        """Splice a page's fragments into a well-formed page, or go
        through the parser.

        ``head`` goes before ``</head>``, ``tail`` before ``</body>``, and
        ``handler`` (unless None) becomes the body tag's ``onmousemove``.
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
            return self._inject_tree(html, head, handler, tail)
        tag_at, tag_end = tag.span()
        if tag_at < head_at < tag_end or tag_at < tail_at < tag_end:
            return self._inject_tree(html, head, handler, tail)
        if handler is None:
            new_tag = tag.group()
        else:
            new_tag = f'<body{tag.group(1)} onmousemove="{handler}">'
        pieces = []
        at = 0
        for start, end, text in sorted(
            (
                (head_at, head_at, head),
                (tag_at, tag_end, new_tag),
                (tail_at, tail_at, tail),
            )
        ):
            pieces += (html[at:start], text)
            at = end
        pieces.append(html[at:])
        return "".join(pieces)

    @staticmethod
    def _inject_tree(
        html: str, head_fragment: str, handler: str | None, tail_fragment: str
    ) -> str:
        """Parser-based injection for fragments and malformed pages."""
        root = parse_html(html)
        head = root.find("head")
        body = root.find("body")
        if head is None or body is None:  # parser guarantees both
            raise AssertionError("parse_html must synthesise head and body")
        if head_fragment:
            # Fragments parse into a head/body split; collect both halves.
            fragment = parse_html(head_fragment)
            for node in fragment.find("head").children:
                head.append(node)
            for node in fragment.find("body").children:
                head.append(node)
        if handler is not None:
            body.set("onmousemove", handler)
        if tail_fragment:
            fragment = parse_html(tail_fragment)
            for node in fragment.find("head").children:
                body.append(node)
            for node in fragment.find("body").children:
                body.append(node)
        return serialize(root)


def _ten_digits(bits) -> int:
    """``randrange(10**10)`` on the stream ``bits`` draws from: 34-bit
    draws until one is below 10**10, which is how CPython's ``randrange``
    draws (3.10 to 3.13 alike) without its three Python frames."""
    number = bits(34)
    while number >= _TEN_DIGITS:
        number = bits(34)
    return number


def mark_uncacheable(headers: Headers) -> None:
    """Apply the paper's anti-caching header to an instrumented response."""
    headers.set(*_NO_STORE)


def beacon_response(hit: BeaconHit) -> Response:
    """Serve a matched probe request directly from the proxy."""
    probe = hit.probe
    kind = probe.kind
    if kind is _BEACON_JS:
        script = probe.script
        content_type = "application/javascript"
        body = script.source.encode("utf-8") if script is not None else b""
    else:
        content_type, body = _BEACON_ANSWERS[kind]
    if kind is _TRAP_IMAGE:
        headers = Headers.from_folded([("Content-Type", content_type)], ["content-type"])
    else:
        headers = Headers.from_folded(
            [("Content-Type", content_type), _NO_STORE], ["content-type", "cache-control"]
        )
    return Response(200, headers, body)
