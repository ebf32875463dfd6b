"""The stable client-IP partition hash.

Every partitioned store — and the ingress lane router — must agree on
which partition owns a client, or a process lane would touch state it
does not carry.  They all call :func:`partition_index`.

The hash is BLAKE2b over the raw key with an 8-byte digest, reduced
little-endian.  It is deliberately *not* the 4-byte digest
``ProxyNetwork.node_index_for`` uses: the two hashes are statistically
independent, so sharding within a node does not correlate with the
node assignment itself (a correlated pair would leave some
``(node, shard)`` lanes structurally empty).

Both hashes go through :func:`stable_hash`, which remembers its recent
answers: one event asks for the same client's node, lane and shard in
turn, and a client sends many events.  The hash is pure, so a
remembered answer is never stale and assignments cannot depend on what
was asked before; the table is bounded so that a client spraying
addresses cannot grow it.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

#: Bounds of the hash memo, fixed (nothing to tune: the three lookups of
#: one event hit whatever the size).  A key longer than any textual IP
#: address — a forged ``X-Forwarded-For`` hop — is hashed every time and
#: never stored, so an entry is at most ~0.5 KiB (0.3 for an ASCII key)
#: and the table tops out at half a MiB whatever clients send.
_MEMO_ENTRIES = 1024
_MEMO_KEY_CHARS = 64


def _blake2b(key: str, digest_size: int) -> int:
    digest = hashlib.blake2b(
        key.encode("utf-8"), digest_size=digest_size
    ).digest()
    return int.from_bytes(digest, "little")


_remembered = lru_cache(maxsize=_MEMO_ENTRIES)(_blake2b)


def stable_hash(key: str, digest_size: int) -> int:
    """BLAKE2b of ``key`` as a little-endian integer.

    Deterministic across processes and Python versions (no
    ``PYTHONHASHSEED`` dependence); digests of different sizes are
    statistically independent of each other.
    """
    if len(key) > _MEMO_KEY_CHARS:
        return _blake2b(key, digest_size)
    return _remembered(key, digest_size)


def partition_index(key: str, n_partitions: int) -> int:
    """Stable partition assignment for a string key.

    Uniform over partitions, and independent of the node-assignment
    hash.
    """
    if n_partitions <= 1:
        return 0
    return stable_hash(key, 8) % n_partitions
