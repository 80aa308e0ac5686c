"""``NumaNode.access_cost_ns`` against the layered composition it inlines.

The node cost is the Memory-Mode hook of ``Kernel._charge``, so it
inlines the hardware DRAM cache's LRU probe and the PMEM tier's
miss cost. The oracle below is the composition it replaced, kept here as
the reference: ``HardwareDRAMCache.access`` + ``MemoryTier.access_cost_ns``
+ the interconnect premium. Twin nodes are driven with the same random
access sequences; costs and every counter must match exactly.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import pmem_spec
from repro.core.units import MB, PAGE_SIZE
from repro.mem.hwcache import HardwareDRAMCache
from repro.mem.node import (
    DRAM_HIT_BW_BYTES_PER_NS,
    DRAM_HIT_LATENCY_NS,
    INTERCONNECT_BW_BYTES_PER_NS,
    REMOTE_LATENCY_NS,
    NumaNode,
)
from repro.mem.tier import MemoryTier


def reference_cost(node, fid, nbytes, *, write, from_node):
    """The pre-inlining composition of the Memory-Mode access cost."""
    remote = from_node != node.node_id
    if remote:
        node.remote_accesses += 1
    else:
        node.local_accesses += 1
    if node.hw_cache is not None and node.hw_cache.access(fid):
        slowdown = 1 + node.tier.contention_streams
        cost = DRAM_HIT_LATENCY_NS + int(nbytes * slowdown / DRAM_HIT_BW_BYTES_PER_NS)
    else:
        cost = node.tier.access_cost_ns(nbytes, write=write)
    if remote:
        cost += REMOTE_LATENCY_NS + int(nbytes / INTERCONNECT_BW_BYTES_PER_NS)
    return cost


def _node(node_id, cache_pages, contention):
    tier = MemoryTier(pmem_spec(capacity_bytes=16 * MB))
    tier.contention_streams = contention
    cache = HardwareDRAMCache(cache_pages * PAGE_SIZE) if cache_pages else None
    return NumaNode(node_id, tier, cache)


def _state(node):
    cache = node.hw_cache
    return (
        node.local_accesses,
        node.remote_accesses,
        node.tier.bytes_read,
        node.tier.bytes_written,
        None
        if cache is None
        else (cache.hits, cache.misses, cache.evictions, list(cache._resident)),
    )


_ACCESS = st.tuples(
    st.integers(min_value=0, max_value=9),  # fid
    st.integers(min_value=0, max_value=2 * PAGE_SIZE),  # nbytes
    st.booleans(),  # write
    st.integers(min_value=0, max_value=1),  # from_node
)


@settings(max_examples=200, deadline=None)
@given(
    node_id=st.integers(min_value=0, max_value=1),
    cache_pages=st.sampled_from([0, 2, 3, 4]),
    contention=st.integers(min_value=0, max_value=3),
    accesses=st.lists(_ACCESS, max_size=60),
)
def test_inlined_cost_matches_composition(node_id, cache_pages, contention, accesses):
    inlined = _node(node_id, cache_pages, contention)
    oracle = _node(node_id, cache_pages, contention)
    for fid, nbytes, write, from_node in accesses:
        got = inlined.access_cost_ns(fid, nbytes, write=write, from_node=from_node)
        want = reference_cost(oracle, fid, nbytes, write=write, from_node=from_node)
        assert got == want
        assert _state(inlined) == _state(oracle)


def test_hit_leaves_tier_byte_counters_alone():
    node = _node(0, 4, 0)
    node.access_cost_ns(1, 512, write=False, from_node=0)  # miss: tier read
    node.access_cost_ns(1, 512, write=True, from_node=0)  # hit: DRAM only
    assert (node.tier.bytes_read, node.tier.bytes_written) == (512, 0)
    assert (node.hw_cache.hits, node.hw_cache.misses) == (1, 1)
