"""Cross-module property-based tests on core invariants.

These drive random operation sequences through the allocators, the
topology, and the knode machinery, asserting the conservation laws the
whole simulation rests on: no page is leaked or double-accounted, tier
counters always match the frame table, and knode membership mirrors
object lifetimes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clock import Clock
from repro.core.config import fast_dram_spec, slow_dram_spec
from repro.core.objtypes import KernelObjectType
from repro.core.units import MB
from repro.alloc.kloc_alloc import KlocAllocator
from repro.alloc.slab import SlabAllocator
from repro.kloc.knode import Knode
from repro.mem.frame import PageOwner
from repro.mem.topology import MemoryTopology

SLAB_TYPES = [
    KernelObjectType.DENTRY,
    KernelObjectType.INODE,
    KernelObjectType.EXTENT,
    KernelObjectType.RADIX_NODE,
    KernelObjectType.SKBUFF,
]


def fresh_topology():
    return MemoryTopology(
        [fast_dram_spec(capacity_bytes=4 * MB), slow_dram_spec(capacity_bytes=16 * MB)]
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(
            st.booleans(),  # alloc vs free
            st.integers(min_value=0, max_value=len(SLAB_TYPES) - 1),
            st.integers(min_value=0, max_value=7),  # knode id
        ),
        max_size=200,
    )
)
def test_slab_conservation(ops):
    """Slab alloc/free sequences never leak pages or break counters."""
    topo = fresh_topology()
    slab = SlabAllocator(topo, Clock())
    live = []
    for do_alloc, type_idx, knode in ops:
        if do_alloc or not live:
            live.append(
                slab.alloc(SLAB_TYPES[type_idx], ["fast", "slow"], knode_id=knode)
            )
        else:
            slab.free(live.pop(len(live) // 2))
    topo.check_invariants()
    assert slab.stats.live_objects == len(live)
    for obj in live:
        slab.free(obj)
    topo.check_invariants()
    assert topo.live_pages() == 0
    assert slab.live_pages() == 0


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(
            st.booleans(),
            st.integers(min_value=0, max_value=len(SLAB_TYPES) - 1),
            st.integers(min_value=0, max_value=5),
        ),
        max_size=200,
    )
)
def test_kloc_allocator_conservation(ops):
    """The KLOC interface keeps per-knode page indexes consistent."""
    topo = fresh_topology()
    kalloc = KlocAllocator(topo, Clock())
    live = []
    for do_alloc, type_idx, knode in ops:
        if do_alloc or not live:
            live.append(
                kalloc.alloc(SLAB_TYPES[type_idx], ["fast", "slow"], knode_id=knode)
            )
        else:
            kalloc.free(live.pop(0))
    topo.check_invariants()
    # Every knode's frame list contains only live frames.
    for knode_id in range(6):
        for frame in kalloc.knode_frames(knode_id):
            assert frame.live
    for obj in live:
        kalloc.free(obj)
    assert topo.live_pages() == 0
    for knode_id in range(6):
        assert kalloc.knode_frames(knode_id) == []


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "move"]),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=150,
    )
)
def test_topology_counters_track_frame_table(ops):
    """alloc/free/move interleavings keep live_count == frame table."""
    topo = fresh_topology()
    live = []
    owners = [PageOwner.APP, PageOwner.PAGE_CACHE, PageOwner.SLAB, PageOwner.JOURNAL]
    for action, idx in ops:
        if action == "alloc" or not live:
            live += topo.allocate(idx + 1, ["fast", "slow"], owners[idx])
        elif action == "free":
            topo.free(live.pop(0), now_ns=1)
        else:
            frame = live[idx % len(live)]
            target = "slow" if frame.tier_name == "fast" else "fast"
            if topo.tier(target).has_room(1):
                topo.move_frame(frame, target)
    topo.check_invariants()
    assert topo.live_pages() == len(live)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=30)),
        max_size=120,
    )
)
def test_knode_membership_mirrors_adds_and_removes(ops):
    """knode_add_obj/remove_obj keep the trees exactly in sync."""
    topo = fresh_topology()
    slab = SlabAllocator(topo, Clock())
    knode = Knode(1, ino=1)
    tracked = {}
    for add, key in ops:
        if add:
            obj = slab.alloc(SLAB_TYPES[key % len(SLAB_TYPES)], ["fast", "slow"])
            knode.add_obj(obj)
            tracked[obj.oid] = obj
        elif tracked:
            oid, obj = next(iter(tracked.items()))
            assert knode.remove_obj(obj)
            del tracked[oid]
    assert knode.object_count == len(tracked)
    assert {o.oid for o in knode.iter_all()} == set(tracked)
    knode.check_invariants()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=10**6))
def test_lifetime_accounting_nonnegative(n_objects, advance_ns):
    """Lifetimes recorded by the ledgers are consistent with the clock."""
    topo = fresh_topology()
    clock = Clock()
    slab = SlabAllocator(topo, clock)
    objs = [slab.alloc(KernelObjectType.DENTRY, ["fast", "slow"]) for _ in range(n_objects)]
    clock.advance(advance_ns)
    for obj in objs:
        slab.free(obj)
    mean = slab.stats.lifetimes.mean_ns(KernelObjectType.DENTRY)
    assert mean is not None
    assert mean >= advance_ns  # alloc costs only add to the lifetime
