"""Key-partitioned node state.

The paper's detector kept all per-client state (probe table, rate
buckets, cache) inside one proxy node.  This repo splits a node into N
shards keyed by a stable BLAKE2b hash of the client IP, so a *shard* —
not a whole node — is the smallest self-contained state unit and
process lanes can run one per shard.

:mod:`repro.state.partition` holds the hash itself;
:mod:`repro.state.stores` holds :class:`PartitionedRegistry`, the probe
table behind one routing facade.  Every other per-client store is a
plain object inside a :class:`~repro.proxy.node.NodeShard`.
"""

from repro.state.partition import partition_index
from repro.state.stores import PartitionedRegistry

__all__ = ["partition_index", "PartitionedRegistry"]
