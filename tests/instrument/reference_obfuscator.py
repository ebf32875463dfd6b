"""Lexical obfuscation of beacon scripts (§2.1: "Adding lexical obfuscation
can further increase the difficulty in deciphering the script").

The goal is *not* cryptographic: it is to stop a robot from telling the
real handler function apart from the decoys by simple pattern matching.
Transformations applied:

* identifier renaming to hex-soup names (``_0x3fa2c1``);
* junk variable declarations and arithmetic interleaved between functions;
* misleading comments.

URLs are left literal — the scheme's security comes from the decoys, not
from hiding URLs, and leaving them findable is exactly what lets us model
the blind-fetching robot the paper analyses (caught with probability
``m/(m+1)``).

This is the string-level form of the transformation: it takes finished
script text, renames by regular expression and re-splits the lines to
place junk.  It lived in ``src/repro/instrument/obfuscator.py`` until
nothing under ``src/`` called it; pages are not served through it —
:attr:`repro.instrument.js_beacon.BeaconScript.source` obfuscates while
it emits, with the same draws in the same order — and it stays here as
the reference the emitter is tested against (``test_identity.py``).
"""

from __future__ import annotations

import re

from repro.instrument.js_beacon import JUNK_COMMENTS as _JUNK_COMMENTS
from repro.util.rng import RngStream

_IDENTIFIER_RE = re.compile(r"\b([fgi]_[0-9a-f]{6})\b")


def _hex_name(rng: RngStream) -> str:
    return f"_0x{rng.getrandbits(24):06x}"


def obfuscate_script(source: str, rng: RngStream, junk_statements: int = 6) -> str:
    """Return an obfuscated variant of ``source``.

    The transformation preserves the properties the rest of the system
    depends on: ``function <name>()`` declarations survive (with new
    names), each function still assigns its URL to an ``Image().src``, and
    :func:`repro.instrument.js_beacon.find_handler_fetch_url` still
    resolves handlers — a real JS engine is not confused by renaming, and
    neither is the simulated one.  Callers that also hold a page-side
    handler expression should use :func:`obfuscate_beacon` instead, which
    rewrites both with one consistent renaming.
    """
    if junk_statements < 0:
        raise ValueError("junk_statements must be non-negative")
    return _inject_junk(
        _rename_identifiers(source, rng, {}), rng, junk_statements
    )


def obfuscate_beacon(
    source: str,
    handler_expression: str,
    rng: RngStream,
    junk_statements: int = 6,
    served_handler: str | None = None,
) -> tuple[str, str]:
    """Obfuscate a beacon script and its page-side handler expression.

    Returns ``(obfuscated_source, rewritten_handler_expression)`` with a
    consistent renaming, so the page's ``onmousemove`` attribute still
    calls the (renamed) real function.  ``served_handler`` is that
    function's new name when the page has already been told it (the page
    is written before the script is): it is used, not drawn.
    """
    mapping = {}
    if served_handler is not None:
        name = _IDENTIFIER_RE.search(handler_expression).group(1)
        mapping[name] = served_handler
    renamed = _rename_identifiers(source, rng, mapping)
    new_expression = _IDENTIFIER_RE.sub(
        lambda m: mapping.get(m.group(1), m.group(1)), handler_expression
    )
    return _inject_junk(renamed, rng, junk_statements), new_expression


def _rename_identifiers(
    source: str, rng: RngStream, mapping: dict[str, str]
) -> str:
    """``source`` renamed; ``mapping`` gains every name it did not hold."""

    def replace(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in mapping:
            mapping[name] = _hex_name(rng)
        return mapping[name]

    return _IDENTIFIER_RE.sub(replace, source)


def _inject_junk(source: str, rng: RngStream, junk_statements: int) -> str:
    if junk_statements == 0:
        return source
    lines = source.split("\n")
    # Insertion points: only between top-level constructs (before a 'var'
    # or 'function' line) so function bodies stay intact.
    points = [
        i
        for i, line in enumerate(lines)
        if line.startswith("var ") or line.startswith("function ")
    ]
    if not points:
        return source
    for _ in range(junk_statements):
        at = rng.choice(points)
        junk_kind = rng.randint(0, 2)
        if junk_kind == 0:
            junk = f"var {_hex_name(rng)} = {rng.randint(0, 1 << 30)};"
        elif junk_kind == 1:
            junk = (
                f"var {_hex_name(rng)} = ({rng.randint(1, 999)} * "
                f"{rng.randint(1, 999)}) % {rng.randint(2, 97)};"
            )
        else:
            junk = rng.choice(_JUNK_COMMENTS)
        lines.insert(at, junk)
        points = [p if p < at else p + 1 for p in points]
    return "\n".join(lines)
