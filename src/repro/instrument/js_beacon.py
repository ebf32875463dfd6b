"""Mouse-movement beacon JavaScript (§2.1, Figure 1 of the paper).

:func:`build_beacon_script` draws, and :attr:`BeaconScript.source` emits,
the external ``.js`` file the rewritten page references: ``m + 1``
look-alike functions, each guarded by a ``do_once`` flag and fetching a
fake image whose URL embeds a key.  Exactly one function — the one wired
to the page's ``onmousemove`` handler — carries the real key ``k``; the
other ``m`` are decoys with random wrong keys, so a robot that blindly
fetches a URL out of the script picks a wrong key with probability
``m / (m + 1)``.  The two are apart because a page is rewritten for every
client and its script fetched by few: the page pays for the keys, the
fetch for the text.

The emitter also applies §2.1's lexical obfuscation when asked to
(``junk_statements`` given): identifiers become hex-soup names
(``_0x3fa2c1``) and junk declarations, arithmetic and misleading comments
go between the top-level constructs.  It does so while it emits — names
come from a dict as the blocks are walked, junk goes into the list of
pieces, and the text is joined once — not by rewriting finished text.
URLs stay literal: the scheme's security comes from the decoys, and a
findable URL is what lets us model the blind-fetching robot.

**The draw order is part of the contract**, and there are two streams.
Recorded traces depend on every key, and the repo benchmark cannot notice
a change (it re-records its script from the tree under test).

*The page stream* is the caller's, and :func:`build_beacon_script` draws
from it only what the page and the probe table need: the real key, then
the decoy keys (``getrandbits(key_bits)``, a duplicate is redrawn), then
the name the handler is served under — ``_0x%06x`` when obfuscating,
``f_%06x`` otherwise.  What it returns is the script's *recipe*, plain
data a probe can carry; no text exists yet.

*The script stream* is seeded with ``rng.child_seed("script")`` (a split
consumes no draw), and the text is emitted from it when somebody asks —
:attr:`BeaconScript.source`, byte-identical on every access.  In order:
the ``m`` decoy function names ``f_%06x`` (the handler's is ``f_`` plus
the six digits of its served name); the shuffle of the functions; per
shuffled function its guard ``g_%06x`` then its image variable
``i_%06x``; when obfuscating, the new names ``_0x%06x`` in order of first
appearance in the text — per function: guard, function, image variable —
where the handler and a name already seen draw nothing (24-bit names can
collide); then per junk statement the insertion point, the kind, and the
kind's own numbers.  ``tests/instrument/reference_obfuscator.py`` keeps
the string-level transformation this replaces;
``tests/instrument/test_identity.py`` holds the two equal on cloned
streams.

Until PR 22 everything was drawn from the page stream, text included,
while the page was rewritten.  Traces recorded before then replay
unchanged — a replay rebuilds the probe table from the journal, which
never carried script text — but recording one again yields the same CSS
and mouse keys and different names after them: the script file, the
UA-probe directory, the hidden link, and the order of the functions.

The module also provides the two *client-side* readings of that script:

* :func:`find_handler_fetch_url` — what a real JavaScript engine does:
  resolve the handler expression to its function and produce the single
  URL that function fetches (used by the browser agent models);
* :func:`extract_all_script_urls` — what a URL-scraping robot does: grep
  the source for anything fetchable (used by the blind-fetcher robot).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from repro.util.rng import RngStream

_HANDLER_EXPR_RE = re.compile(r"return\s+([A-Za-z_$][\w$]*)\s*\(\s*\)")
_URL_RE = re.compile(r"['\"](https?://[^'\"]+)['\"]")
_FUNCTION_RE = re.compile(r"function\s+([A-Za-z_$][\w$]*)\s*\(\s*\)")

JUNK_COMMENTS = (
    "/* cache warm-up */",
    "/* layout metrics */",
    "/* preload hints */",
    "/* compat shim */",
)


class BeaconScript(NamedTuple):
    """The recipe of one page's beacon script; the text is :attr:`source`.

    Plain data — ints, strings and a tuple of strings — so the page's
    ``BEACON_JS`` probe carries it as it is: hashable, picklable to a
    process lane, a couple of hundred bytes where the text is 1.4 KB.
    ``keys`` holds the real key first; ``handler`` is the name the real
    function has in :attr:`source`; ``junk_statements`` is what
    :func:`build_beacon_script` was given.
    """

    seed: int
    host: str
    keys: tuple[str, ...]
    handler: str
    junk_statements: int | None

    @property
    def source(self) -> str:
        """The script text, emitted anew — and the same — on every access."""
        return _emit(self)

    @property
    def handler_expression(self) -> str:
        """What the page's ``onmousemove`` attribute says."""
        return f"return {self.handler}();"

    @property
    def real_key(self) -> str:
        """The key ``k`` whose image fetch proves a mouse moved."""
        return self.keys[0]

    @property
    def decoy_keys(self) -> tuple[str, ...]:
        """The ``m`` wrong keys."""
        return self.keys[1:]

    @property
    def all_image_paths(self) -> tuple[str, ...]:
        """Real plus decoy image paths (order: real first)."""
        return tuple(f"/{key}.jpg" for key in self.keys)

    @property
    def real_image_path(self) -> str:
        """Path of the image the handler fetches."""
        return self.all_image_paths[0]

    @property
    def decoy_image_paths(self) -> tuple[str, ...]:
        """Paths of the images the decoy functions fetch."""
        return self.all_image_paths[1:]

    @property
    def size(self) -> int:
        """Source size in bytes."""
        return len(self.source.encode("utf-8"))


def check_script_parameters(
    decoys: int, key_bits: int, junk_statements: int | None
) -> None:
    """Reject parameters no script can be generated for.

    ``decoys + 1`` distinct keys must exist in the key space, or the
    emitter would redraw duplicates forever.
    """
    if decoys < 0:
        raise ValueError(f"decoys must be non-negative, got {decoys}")
    if key_bits <= 0 or key_bits % 4 != 0:
        raise ValueError(
            f"key_bits must be a positive multiple of 4, got {key_bits}"
        )
    if decoys >= 1 << key_bits:
        raise ValueError(
            f"{decoys} decoys plus the real key need more than the "
            f"{1 << key_bits} distinct keys of {key_bits} bits"
        )
    if junk_statements is not None and junk_statements < 0:
        raise ValueError(
            f"junk_statements must be non-negative, got {junk_statements}"
        )


def build_beacon_script(
    rng: RngStream,
    host: str,
    decoys: int = 4,
    key_bits: int = 128,
    junk_statements: int | None = None,
) -> BeaconScript:
    """Draw the beacon script of one page served to one client.

    Parameters
    ----------
    rng:
        The page stream: keys and the handler's name are drawn from it,
        in the order the module docstring fixes, and the script stream
        is split off it.
    host:
        The site host the fake image URLs live on.
    decoys:
        ``m`` — the number of wrong-key look-alike functions.
    key_bits:
        Size of the random key space (the paper uses 2^128).
    junk_statements:
        ``None`` makes the plain script in the shape of the paper's
        Figure 1.  A number obfuscates it: identifiers are renamed and
        that many junk statements are interleaved (``0`` renames only).
    """
    check_script_parameters(decoys, key_bits, junk_statements)
    bits = rng.getrandbits
    key_width = key_bits // 4

    # Insertion-ordered and duplicate-free: a key drawn twice is drawn again.
    keys: dict[str, None] = {}
    while len(keys) <= decoys:
        keys[f"{bits(key_bits):0{key_width}x}"] = None
    prefix = "f_" if junk_statements is None else "_0x"
    return BeaconScript(
        rng.child_seed("script"), host, tuple(keys),
        f"{prefix}{bits(24):06x}", junk_statements,
    )


def _emit(script: BeaconScript) -> str:
    """The one emitter: a recipe's text, drawn from its script stream."""
    rng = RngStream(script.seed, "script")
    bits = rng.getrandbits
    handler = script.handler
    real_url, *decoy_urls = [
        f"http://{script.host}{path}" for path in script.all_image_paths
    ]

    # Before renaming every function is an ``f_`` name; the handler's
    # shares its digits with the name it is served under.
    plain_handler = f"f_{handler[-6:]}"
    entries = [(plain_handler, real_url)]
    for url in decoy_urls:
        entries.append((f"f_{bits(24):06x}", url))
    entries = rng.shuffled(entries)

    blocks = []
    for name, url in entries:
        guard = f"g_{bits(24):06x}"
        image_var = f"i_{bits(24):06x}"
        blocks.append((guard, name, image_var, url))

    # Two pieces per function — its guard declaration and the function
    # itself — which are also the only places junk may go in front of.
    obfuscate = script.junk_statements is not None
    renamed = {plain_handler: handler}
    pieces = []
    for guard, name, image_var, url in blocks:
        if obfuscate:
            # New names in order of first appearance in the text.  A name
            # seen before (24-bit names can collide) keeps its new name
            # and draws nothing.
            for old in (guard, name, image_var):
                if old not in renamed:
                    renamed[old] = f"_0x{bits(24):06x}"
            guard, name, image_var = (
                renamed[guard], renamed[name], renamed[image_var]
            )
        pieces.append(f"var {guard} = false;")
        pieces.append(
            f"function {name}()\n"
            "{\n"
            f"  if ({guard} == false) {{\n"
            f"    var {image_var} = new Image();\n"
            f"    {guard} = true;\n"
            f"    {image_var}.src = '{url}';\n"
            "    return true;\n"
            "  }\n"
            "  return false;\n"
            "}"
        )
    if script.junk_statements:
        pieces = _with_junk(pieces, rng, script.junk_statements)
    return "\n".join(pieces) + "\n"


def _with_junk(pieces: list[str], rng: RngStream, count: int) -> list[str]:
    """``pieces`` with ``count`` junk lines, each in front of a drawn piece.

    A junk line goes directly in front of its piece, behind any junk put
    there earlier, and never becomes an insertion point itself.
    """
    bits = rng.getrandbits
    randint = rng.randint
    ahead: list[list[str]] = [[] for _ in pieces]
    slots = range(len(pieces))
    for _ in range(count):
        slot = rng.choice(slots)
        kind = randint(0, 2)
        if kind == 0:
            junk = f"var _0x{bits(24):06x} = {randint(0, 1 << 30)};"
        elif kind == 1:
            junk = (
                f"var _0x{bits(24):06x} = ({randint(1, 999)} * "
                f"{randint(1, 999)}) % {randint(2, 97)};"
            )
        else:
            junk = rng.choice(JUNK_COMMENTS)
        ahead[slot].append(junk)
    return [
        line
        for junk, piece in zip(ahead, pieces)
        for line in (*junk, piece)
    ]


def find_handler_fetch_url(script_source: str, handler_expression: str) -> str | None:
    """Resolve a handler expression the way a JavaScript engine would.

    Finds the function named in ``handler_expression`` (``return f();``)
    inside ``script_source`` and returns the URL assigned to an ``Image``
    ``.src`` in its body — i.e. the URL a *real browser* fetches when the
    human moves the mouse.  Returns None when the handler does not resolve
    (wrong script, obfuscation damage), which the agent models treat as
    "the handler silently does nothing".
    """
    match = _HANDLER_EXPR_RE.search(handler_expression)
    if match is None:
        return None
    name = match.group(1)

    declaration = re.search(
        rf"function\s+{re.escape(name)}\s*\(\s*\)", script_source
    )
    if declaration is None:
        return None
    # The function body extends to the next top-level function declaration
    # (beacon scripts are flat lists of functions).
    next_function = _FUNCTION_RE.search(script_source, declaration.end())
    end = next_function.start() if next_function else len(script_source)
    body = script_source[declaration.end() : end]
    url_match = _URL_RE.search(body)
    if url_match is None:
        return None
    return url_match.group(1)


def extract_all_script_urls(script_source: str) -> list[str]:
    """All absolute URLs a scraping robot can pull out of a script."""
    return _URL_RE.findall(script_source)
