"""NUMA mode on the batched charge path.

``Kernel.access_frames`` coalesces clock advances inside a deadline
window. On the Optane platform every access is priced by the stateful
node cost hook (hardware DRAM cache LRU, local/remote counters), so the
batch must feed it exactly the per-frame sequence. These tests charge one
run through ``access_frames`` on one kernel and through a plain
``access_frame`` loop on an identical twin, with a periodic callback that
fires inside the run and changes the cost inputs (contention, task node),
and require every observable to match.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.objtypes import KernelObjectType
from repro.core.units import PAGE_SIZE
from repro.kernel.kernel import AccessBatch, Kernel
from repro.mem.frame import PageOwner
from repro.platforms.optane import optane_platform_spec
from repro.policies.autonuma import AutoNumaPolicy

SCALE = 4096
#: Small enough that a run of a few dozen frames evicts.
CACHE_PAGES = 6
#: Short enough that one run crosses several deadlines.
TICK_NS = 2_000


def _numa_kernel(fired):
    spec = dataclasses.replace(
        optane_platform_spec(scale_factor=SCALE),
        hw_cache_bytes=CACHE_PAGES * PAGE_SIZE,
    )
    kernel = Kernel(spec, AutoNumaPolicy(), seed=7)
    node0 = kernel.topology.tier("node0")

    def tick(now_ns):
        # Fires mid-run: flips the inputs of the next accesses' costs.
        fired.append(now_ns)
        node0.contention_streams = len(fired) % 3
        kernel.task_node = len(fired) % 2

    kernel.clock.schedule_periodic(TICK_NS, tick)
    return kernel


def _frames(kernel):
    """Frames on both sockets, some repeated so the cache sees hits."""
    local = kernel.alloc_app_pages(8)
    kernel.task_node = 1
    remote = kernel.alloc_app_pages(8)
    kernel.task_node = 0
    return local + remote + local[:4] + remote[2:6] + local[:2]


def _observe(kernel, frames):
    nodes = {}
    for name, node in kernel.nodes.items():
        cache = node.hw_cache
        nodes[name] = (
            cache.hits,
            cache.misses,
            cache.evictions,
            list(cache._resident),
            node.local_accesses,
            node.remote_accesses,
            node.tier.bytes_read,
            node.tier.bytes_written,
        )
    return {
        "nodes": nodes,
        "last_access": [f.last_access for f in frames],
        "reads_writes": [(f.reads, f.writes, f.dirty) for f in frames],
        "access_ns_by": kernel.access_ns_by,
        "refs_by_tier": kernel.refs_by_tier,
        "app_refs": (kernel.app_refs, kernel.app_ref_bytes),
        "now": kernel.clock.now(),
    }


@pytest.mark.parametrize("write", [False, True])
@pytest.mark.parametrize("tail", [0, 100])
def test_batch_matches_per_frame_loop(write, tail):
    fired_batch, fired_loop = [], []
    batched = _numa_kernel(fired_batch)
    looped = _numa_kernel(fired_loop)
    assert batched.numa_mode
    run_b = _frames(batched)
    run_l = _frames(looped)
    nbytes = (len(run_b) - 1) * PAGE_SIZE + (tail or PAGE_SIZE)

    advances = []
    real_advance = batched.clock.advance

    def counting_advance(delta):
        advances.append(delta)
        return real_advance(delta)

    batched.clock.advance = counting_advance
    cost_b = batched.access_frames(run_b, nbytes, write=write)
    del batched.clock.advance

    cost_l = 0
    remaining = nbytes
    for frame in run_l:
        chunk = min(remaining, PAGE_SIZE)
        cost_l += looped.access_frame(frame, chunk, write=write)
        remaining -= chunk

    assert cost_b == cost_l
    assert fired_batch == fired_loop
    # The run crossed several deadlines and the callback moved the task
    # and the contention in between, yet costs stayed in lockstep.
    assert len(fired_batch) >= 3
    # The batch really deferred: fewer advances than frames.
    assert 0 < len(advances) < len(run_b)
    assert _observe(batched, run_b) == _observe(looped, run_l)
    nodes = _observe(batched, run_b)["nodes"]
    assert sum(n[0] for n in nodes.values()) > 0  # hits
    assert sum(n[2] for n in nodes.values()) > 0  # evictions
    assert sum(n[5] for n in nodes.values()) > 0  # remote accesses


def test_access_batch_objects_match_direct_charges():
    fired_batch, fired_direct = [], []
    batched = _numa_kernel(fired_batch)
    direct = _numa_kernel(fired_direct)

    def objects(kernel):
        objs = []
        for i in range(24):
            kernel.task_node = i % 2
            objs.append(kernel.alloc_object(KernelObjectType.SOCK))
        kernel.task_node = 0
        return objs

    objs_b = objects(batched)
    objs_d = objects(direct)
    batch = batched.begin_access_batch()
    assert isinstance(batch, AccessBatch)  # NUMA mode batches too
    costs_b = [
        batch.access_object(o, 700, write=i % 3 == 0)
        for i, o in enumerate(objs_b + objs_b[:10])
    ]
    batch.close()
    costs_d = [
        direct.access_object(o, 700, write=i % 3 == 0)
        for i, o in enumerate(objs_d + objs_d[:10])
    ]
    assert costs_b == costs_d
    assert fired_batch == fired_direct
    frames_b = [o.frame for o in objs_b]
    frames_d = [o.frame for o in objs_d]
    assert _observe(batched, frames_b) == _observe(direct, frames_d)
    assert batched.kernel_refs == direct.kernel_refs
    assert batched.refs_by_owner == direct.refs_by_owner
    assert direct.refs_by_owner[PageOwner.SLAB] > 0
