"""The per-IP probe table ("the server generates a random key k ... and
records the tuple <foo.html, k> in a table indexed by the client's IP
address. The table holds multiple entries per IP address.").

Every injected object — the beacon JavaScript file, each mouse-image URL
(real and decoy), the CSS beacon, the hidden-link trap and the UA-probe
directory — is a :class:`RegisteredProbe`.  The proxy consults
:meth:`InstrumentationRegistry.match` on every incoming request; a hit both
tells the proxy what to serve and constitutes a detection signal.

The table is bounded: entries expire after a TTL and each IP keeps at most
``per_ip_cap`` entries (oldest evicted first), so a hostile client cannot
grow server memory without bound — the DoS concern §4.2 raises against
heavier ML state.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from repro.http.message import Request
from repro.instrument.js_beacon import BeaconScript


class BeaconKind(Enum):
    """What kind of injected object a registered path is."""

    BEACON_JS = "beacon_js"
    MOUSE_IMAGE = "mouse_image"
    CSS_BEACON = "css_beacon"
    TRAP_PAGE = "trap_page"
    TRAP_IMAGE = "trap_image"
    UA_PROBE = "ua_probe"


class RegisteredProbe(NamedTuple):
    """One outstanding injected object for one client IP.

    ``path`` is the exact URL path, except for ``UA_PROBE`` entries where
    it is a directory prefix (the echoed User-Agent completes the path).
    ``is_real_key`` distinguishes the genuine mouse-image key from decoys.
    ``script`` is a ``BEACON_JS`` entry's recipe, which the file is emitted
    from when it is fetched; an entry rebuilt from a probe journal has
    none and serves an empty file.

    A named tuple, not a dataclass: a page registers ten of these, and a
    tuple is immutable and hashable at C construction cost.
    """

    kind: BeaconKind
    client_ip: str
    host: str
    path: str
    page_path: str
    issued_at: float
    key: str | None = None
    is_real_key: bool = False
    script: BeaconScript | None = None


@dataclass(frozen=True)
class BeaconHit:
    """A request matched a registered probe."""

    probe: RegisteredProbe
    echoed_user_agent: str | None = None


class InstrumentationRegistry:
    """Per-IP table of outstanding probes with TTL and size bounds."""

    def __init__(self, ttl: float = 3600.0, per_ip_cap: int = 512) -> None:
        if ttl <= 0:
            raise ValueError(f"ttl must be positive, got {ttl}")
        if per_ip_cap < 8:
            raise ValueError(f"per_ip_cap must be >= 8, got {per_ip_cap}")
        self._ttl = ttl
        self._per_ip_cap = per_ip_cap
        # client_ip -> path -> probe; OrderedDict gives FIFO eviction.
        self._by_ip: dict[str, OrderedDict[str, RegisteredProbe]] = {}
        # client_ip -> list of UA-probe directory prefixes (newest last).
        self._ua_prefixes: dict[str, OrderedDict[str, RegisteredProbe]] = {}
        # Observers notified of every registration (the trace recorder
        # journals them so replays can rebuild this table).
        self._listeners: list[Callable[[RegisteredProbe], None]] = []

    @property
    def ttl(self) -> float:
        """Probe lifetime in seconds."""
        return self._ttl

    @property
    def per_ip_cap(self) -> int:
        """Maximum outstanding probes per client IP."""
        return self._per_ip_cap

    # -- registration -----------------------------------------------------

    def add_listener(
        self, listener: Callable[[RegisteredProbe], None]
    ) -> None:
        """Subscribe to every future :meth:`register` call."""
        self._listeners.append(listener)

    def remove_listener(
        self, listener: Callable[[RegisteredProbe], None]
    ) -> None:
        """Unsubscribe a listener (no error if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def register_page(self, probes: Sequence[RegisteredProbe]) -> None:
        """Add the probes of one page, all issued to one client IP.

        Equivalent to :meth:`register`-ing them one by one in order —
        same table, same eviction, each listener called once per probe
        in probe order — at one table lookup and one trim per page.
        """
        self._insert(probes)

    def register(self, probe: RegisteredProbe) -> None:
        """Add a probe; evicts the oldest entries past the per-IP cap."""
        self._insert((probe,))

    def _insert(self, probes: Sequence[RegisteredProbe]) -> None:
        """The one insertion routine: notify, insert in order, trim once.

        Trimming once is the same as trimming after every insert: either
        way an IP keeps its ``per_ip_cap`` most recently inserted or
        refreshed paths in recency order, and its UA-prefix table holds
        exactly the ``UA_PROBE`` entries among them, in the same order.
        """
        if not probes:
            return
        client_ip = probes[0].client_ip
        table = self._by_ip.get(client_ip)
        if table is None:
            table = self._by_ip[client_ip] = OrderedDict()
        prefixes = self._ua_prefixes.get(client_ip)
        listeners = self._listeners
        for probe in probes:
            if probe.client_ip != client_ip:
                raise ValueError(
                    "probes inserted together must share one client IP: "
                    f"{probe.client_ip!r} among those of {client_ip!r}"
                )
            for listener in listeners:
                listener(probe)
            path = probe.path
            table[path] = probe
            table.move_to_end(path)
            if probe.kind is BeaconKind.UA_PROBE:
                if prefixes is None:
                    prefixes = self._ua_prefixes[client_ip] = OrderedDict()
                prefixes[path] = probe
                prefixes.move_to_end(path)
            elif prefixes and path in prefixes:
                # The path stopped being a prefix; an evicted-and-reissued
                # one would have lost its entry at eviction.
                del prefixes[path]
        for _ in range(len(table) - self._per_ip_cap):
            evicted_path, evicted = table.popitem(last=False)
            if evicted.kind is BeaconKind.UA_PROBE and prefixes:
                prefixes.pop(evicted_path, None)

    # -- lookup -----------------------------------------------------------

    def match(self, request: Request, now: float | None = None) -> BeaconHit | None:
        """Return the probe ``request`` targets, if any (TTL-checked)."""
        now = request.timestamp if now is None else now
        table = self._by_ip.get(request.client_ip)
        if not table:
            return None
        path = request.url.path

        probe = table.get(path)
        if probe is not None and self._alive(probe, now):
            if request.url.host != probe.host:
                return None
            return BeaconHit(probe=probe)

        # UA probes register a directory prefix; the fetched path embeds
        # the client-echoed User-Agent string as its final segment.
        prefixes = self._ua_prefixes.get(request.client_ip)
        if prefixes:
            for prefix, ua_probe in reversed(prefixes.items()):
                if path.startswith(prefix) and self._alive(ua_probe, now):
                    if request.url.host != ua_probe.host:
                        continue
                    echoed = path[len(prefix) :]
                    if echoed.endswith(".css"):
                        echoed = echoed[: -len(".css")]
                    return BeaconHit(probe=ua_probe, echoed_user_agent=echoed)
        return None

    def outstanding(self, client_ip: str) -> list[RegisteredProbe]:
        """All live probes registered for an IP (oldest first)."""
        return list(self._by_ip.get(client_ip, OrderedDict()).values())

    def iter_probes(self):
        """Yield every live probe, per-IP FIFO order preserved."""
        for table in self._by_ip.values():
            yield from table.values()

    def __len__(self) -> int:
        return sum(len(table) for table in self._by_ip.values())

    # -- maintenance --------------------------------------------------------

    def expire_before(self, now: float) -> int:
        """Drop probes older than the TTL; returns how many were removed."""
        removed = 0
        for ip in list(self._by_ip):
            table = self._by_ip[ip]
            stale = [p for p, probe in table.items() if not self._alive(probe, now)]
            for path in stale:
                probe = table.pop(path)
                if probe.kind is BeaconKind.UA_PROBE:
                    self._ua_prefixes.get(ip, OrderedDict()).pop(path, None)
                removed += 1
            if not table:
                del self._by_ip[ip]
                self._ua_prefixes.pop(ip, None)
        return removed

    def _alive(self, probe: RegisteredProbe, now: float) -> bool:
        return now - probe.issued_at <= self._ttl
