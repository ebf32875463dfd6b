"""Key-partitioned node state.

The paper's detector kept all per-client state (probe table, rate
buckets, cache) inside one proxy node.  This repo splits a node into N
shards keyed by a stable BLAKE2b hash of the client IP, so a *shard* —
not a whole node — is the smallest self-contained state unit and
every ingress lane carries exactly one shard.

:mod:`repro.state.partition` holds the hash itself.  Every per-client
store is a plain object inside a :class:`~repro.proxy.node.NodeShard`,
and :meth:`~repro.proxy.node.ProxyNode.shard_index_for` is the one
place a node applies the hash.
"""

from repro.state.partition import partition_index

__all__ = ["partition_index"]
