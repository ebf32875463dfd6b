"""Routing tests for the partition hash and lane assignment.

The client-IP hash is the single routing primitive shared by detection
shards, the partitioned probe registry and the per-shard ingress lanes —
so its distribution and stability properties are load-bearing for both
correctness (containment: a lane owns all state its requests touch)
and throughput (balanced partitions).
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.proxy.network import ProxyNetwork
from repro.state import partition
from repro.state.partition import partition_index, stable_hash
from repro.util.rng import RngStream

N_IPS = 10_000


def _ips(n=N_IPS):
    return [f"10.{i // 65536}.{(i // 256) % 256}.{i % 256}" for i in range(n)]


class TestPartitionIndex:
    def test_stable_and_in_range(self):
        for n in (1, 2, 3, 16, 64):
            index = partition_index("203.0.113.9", n)
            assert 0 <= index < n
            assert index == partition_index("203.0.113.9", n)

    def test_single_partition_short_circuits(self):
        assert partition_index("anything", 1) == 0
        assert partition_index("anything", 0) == 0

    def test_uniform_across_partitions(self):
        """Bounded skew over 10k IPs: no partition starves or hogs.

        Perfectly uniform would be 625 per bucket over 16 partitions;
        a ±25% band is far looser than the hash's observed spread but
        tight enough to catch any accidental change of hash function,
        digest width, or byte order.
        """
        counts = [0] * 16
        for ip in _ips():
            counts[partition_index(ip, 16)] += 1
        assert sum(counts) == N_IPS
        expected = N_IPS / 16
        assert min(counts) > expected * 0.75
        assert max(counts) < expected * 1.25

    def test_independent_of_node_hash(self):
        """Shard routing must not correlate with node routing, or some
        (node, shard) lanes would sit idle while others take the load."""
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "net"),
            n_nodes=4,
            instrument_enabled=False,
        )
        counts: dict[tuple[int, int], int] = {}
        for ip in _ips(4000):
            pair = (network.node_index_for(ip), partition_index(ip, 4))
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == 16  # every (node, shard) cell populated
        assert min(counts.values()) > (4000 / 16) * 0.5


class TestLaneAssignment:
    """Lane routing = node routing × partition routing, stably."""

    @pytest.mark.parametrize("lanes", [1, 4, 8])
    def test_assignment_stable_and_node_preserving(self, lanes):
        n_nodes = 3
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "net"),
            n_nodes=n_nodes,
            instrument_enabled=False,
        )
        for ip in _ips(500):
            lane = (
                network.node_index_for(ip) * lanes
                + partition_index(ip, lanes)
            )
            # Stable across repeated evaluation...
            assert lane == (
                network.node_index_for(ip) * lanes
                + partition_index(ip, lanes)
            )
            # ...in range, and the node is recoverable from the lane
            # whatever the lane count.
            assert 0 <= lane < n_nodes * lanes
            assert lane // lanes == network.node_index_for(ip)

    def test_lane_equals_shard_at_matching_count(self):
        """At lanes == shards, an IP's lane-within-node IS its state
        shard — the containment property process lanes rely on."""
        network = ProxyNetwork(
            origins={},
            rng=RngStream(0, "net"),
            n_nodes=2,
            instrument_enabled=False,
        )
        network.shard_detection(4)
        for ip in _ips(500):
            node = network.nodes[network.node_index_for(ip)]
            assert partition_index(ip, 4) == node.shard_index_for(ip)
            shard = node.shard_for(ip)
            assert shard.shard_id == partition_index(ip, 4)


def _digest(key: str, size: int) -> int:
    """The hash with nothing remembered, spelled out."""
    raw = hashlib.blake2b(key.encode("utf-8"), digest_size=size).digest()
    return int.from_bytes(raw, "little")


class TestHashMemo:
    """The remembered hash is the hash: equal to the plain digest for
    any key, whatever was asked before, and never past its bound."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.ip_addresses().map(str),
                    st.text(max_size=8),
                    st.text(min_size=60, max_size=70),
                ),
                st.sampled_from([4, 8]),
            ),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_equal_to_the_plain_digest_in_any_order(self, asks, shuffler):
        first = [stable_hash(key, size) for key, size in asks]
        assert first == [_digest(key, size) for key, size in asks]
        again = list(asks)
        shuffler.shuffle(again)
        for key, size in again:
            assert stable_hash(key, size) == _digest(key, size)
            assert partition_index(key, 5) == _digest(key, 8) % 5

    def test_node_assignment_is_the_four_byte_digest(self):
        network = ProxyNetwork(
            origins={}, rng=RngStream(0, "net"), n_nodes=3,
            instrument_enabled=False,
        )
        for ip in _ips(300):
            assert network.node_index_for(ip) == _digest(ip, 4) % 3

    def test_never_holds_more_than_its_bound(self):
        bound = partition._MEMO_ENTRIES
        for ip in _ips(3 * bound):
            partition_index(ip, 4)
        info = partition._remembered.cache_info()
        assert info.maxsize == bound
        assert info.currsize <= bound

    def test_oversized_keys_are_hashed_but_not_kept(self):
        partition._remembered.cache_clear()
        forged = "9" * (partition._MEMO_KEY_CHARS + 1)
        assert stable_hash(forged, 8) == _digest(forged, 8)
        assert stable_hash(forged, 8) == _digest(forged, 8)
        assert partition._remembered.cache_info().currsize == 0
