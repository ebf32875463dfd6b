"""Case-insensitive, order-preserving HTTP headers.

The fields the detectors read on every request (User-Agent, Referer,
Content-Type) are looked up by their folded names (:meth:`Headers.get_folded`);
arbitrary headers round-trip so agent models can attach realistic request
metadata.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class Headers:
    """A multimap of header name -> values with case-insensitive names.

    Each name is folded once, when added; a lookup folds only its own.
    """

    __slots__ = ("_entries", "_folded")

    def __init__(self, entries: Iterable[tuple[str, str]] | None = None) -> None:
        self._entries: list[tuple[str, str]] = []
        self._folded: list[str] = []
        if entries is not None:
            for name, value in entries:
                self.add(name, value)

    @classmethod
    def from_folded(cls, entries: list, folded: list[str]) -> "Headers":
        """Adopt, uncopied and unchecked, entries :meth:`add` would
        accept, with ``folded[i] == entries[i][0].lower()``."""
        headers = cls.__new__(cls)
        headers._entries = entries
        headers._folded = folded
        return headers

    # -- mutation ---------------------------------------------------------

    def add(self, name: str, value: str) -> None:
        """Append a header, preserving any existing values for the name."""
        if not name or not name.strip():
            raise ValueError("header name must be non-empty")
        self._entries.append((name, str(value)))
        self._folded.append(name.lower())

    def set(self, name: str, value: str) -> None:
        """Replace all values for ``name`` with a single value."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        """Drop every value for ``name`` (no error if absent)."""
        folded = name.lower()
        while folded in self._folded:
            index = self._folded.index(folded)
            del self._folded[index], self._entries[index]

    # -- lookup -----------------------------------------------------------

    def get(self, name: str, default: str | None = None) -> str | None:
        """First value for ``name``, or ``default``."""
        return self.get_folded(name.lower(), default)

    def get_folded(self, folded: str, default: str | None = None) -> str | None:
        """:meth:`get` for a name already lower-case."""
        if folded in self._folded:
            return self._entries[self._folded.index(folded)][1]
        return default

    def get_all(self, name: str) -> list[str]:
        """All values for ``name`` in insertion order."""
        folded = name.lower()
        if folded not in self._folded:
            return []
        return [e[1] for f, e in self.folded_items() if f == folded]

    def folded_items(self) -> Iterator[tuple[str, tuple[str, str]]]:
        """``(folded name, (name, value))`` for every entry, in order."""
        return zip(self._folded, self._entries)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._folded

    def __iter__(self) -> Iterator[tuple[str, str]]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        normalize = lambda h: [(f, v) for f, (_, v) in h.folded_items()]
        return normalize(self) == normalize(other)

    def copy(self) -> "Headers":
        """Shallow copy."""
        return Headers.from_folded(list(self._entries), list(self._folded))

    def is_uncacheable(self) -> bool:
        """True when Cache-Control forbids storing (as beacon responses must)."""
        value = self.get_folded("cache-control")
        if value is None:
            return False
        directives = {part.strip().lower() for part in value.split(",")}
        return "no-cache" in directives or "no-store" in directives

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        inner = ", ".join(f"{n}: {v}" for n, v in self._entries)
        return f"Headers({inner})"
