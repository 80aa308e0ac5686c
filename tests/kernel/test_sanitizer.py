"""Inject-and-detect tests for the REPRO_SANITIZE runtime sanitizer.

Each test plants a real bug — a double free, a retained stale handle, a
corrupted incremental counter — and asserts the sanitizer converts it
into a loud :class:`~repro.core.errors.SanitizerError` naming the object
and the faulting site, instead of the silent corruption (or generic
``SimulationError``) a plain run would produce.

``REPRO_SANITIZE`` is read at construction time, so every test sets the
env var *before* building its kernel.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SanitizerError, SimulationError
from repro.core.objtypes import KernelObjectType
from repro.experiments.runner import make_workload
from repro.mem.frame import PageOwner
from repro.platforms.twotier import build_two_tier_kernel

SCALE = 4096
TIERS = ("fast", "slow")


@pytest.fixture()
def sankernel(monkeypatch):
    """A klocs-policy kernel built with the sanitizer attached."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE)
    return kernel


@pytest.fixture()
def plainkernel(monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE)
    return kernel


def test_sanitizer_attached_only_when_enabled(sankernel, plainkernel):
    assert sankernel.topology.sanitizer is not None
    assert sankernel.slab._san is sankernel.topology.sanitizer
    assert sankernel.kloc_manager.sanitizer is sankernel.topology.sanitizer
    assert plainkernel.topology.sanitizer is None
    assert plainkernel.sanitize_teardown() is None


# ----------------------------------------------------------------------
# Injected bug 1: double free of a slab object
# ----------------------------------------------------------------------


def test_slab_double_free_names_object_and_site(sankernel):
    obj = sankernel.slab.alloc(KernelObjectType.DENTRY, TIERS)
    sankernel.slab.free(obj)
    with pytest.raises(SanitizerError) as exc:
        sankernel.slab.free(obj)
    msg = str(exc.value)
    assert "double free" in msg
    assert f"#{obj.oid}" in msg
    assert "DENTRY" in msg
    # Both the faulting site and the first-free site are our lines.
    assert msg.count("tests/kernel/test_sanitizer.py") == 2


def test_double_free_without_sanitizer_is_generic(plainkernel):
    obj = plainkernel.slab.alloc(KernelObjectType.DENTRY, TIERS)
    plainkernel.slab.free(obj)
    with pytest.raises(SimulationError) as exc:
        plainkernel.slab.free(obj)
    assert not isinstance(exc.value, SanitizerError)


def test_frame_double_free_detected(sankernel):
    (frame,) = sankernel.topology.allocate(1, TIERS, PageOwner.APP)
    sankernel.topology.free(frame, now_ns=0)
    with pytest.raises(SanitizerError) as exc:
        sankernel.topology.free(frame, now_ns=0)
    msg = str(exc.value)
    assert "double free" in msg and f"frame {frame.fid}" in msg
    assert "tests/kernel/test_sanitizer.py" in msg


def test_vmalloc_double_vfree_detected(sankernel):
    area = sankernel.vmalloc.alloc(4096 * 3, TIERS)
    sankernel.vmalloc.free(area)
    with pytest.raises(SanitizerError) as exc:
        sankernel.vmalloc.free(area)
    msg = str(exc.value)
    assert "double vfree" in msg and f"area {area.area_id}" in msg
    assert "tests/kernel/test_sanitizer.py" in msg


# ----------------------------------------------------------------------
# Injected bug 2: use-after-free through a retained handle
# ----------------------------------------------------------------------


def test_frame_uaf_through_access_frame(sankernel):
    (frame,) = sankernel.topology.allocate(1, TIERS, PageOwner.APP)
    sankernel.access_frame(frame, 64)  # live: fine
    sankernel.topology.free(frame, now_ns=sankernel.clock.now())
    with pytest.raises(SanitizerError) as exc:
        sankernel.access_frame(frame, 64)
    msg = str(exc.value)
    assert "use-after-free" in msg
    assert f"frame {frame.fid}" in msg
    assert "freed at tests/kernel/test_sanitizer.py" in msg


def test_object_uaf_through_access_object(sankernel):
    obj = sankernel.alloc_object(KernelObjectType.SOCK)
    sankernel.access_object(obj)  # live: fine
    sankernel.free_object(obj)
    with pytest.raises(SanitizerError) as exc:
        sankernel.access_object(obj)
    msg = str(exc.value)
    assert "use-after-free" in msg
    assert f"#{obj.oid}" in msg and "SOCK" in msg


def test_poisoned_handle_faults_on_any_read(sankernel):
    obj = sankernel.slab.alloc(KernelObjectType.EXTENT, TIERS)
    sankernel.slab.free(obj)
    with pytest.raises(SanitizerError) as exc:
        _ = obj.frame.tier_name  # stale pointer chase
    msg = str(exc.value)
    assert "poisoned" in msg and ".tier_name" in msg
    assert f"#{obj.oid}" in msg


def test_plain_run_does_not_poison(plainkernel):
    obj = plainkernel.slab.alloc(KernelObjectType.EXTENT, TIERS)
    frame = obj.frame
    plainkernel.slab.free(obj)
    assert obj.frame is frame  # handle left intact when sanitize is off


# ----------------------------------------------------------------------
# Injected bug 3: incremental counter drift
# ----------------------------------------------------------------------


def _populate(kernel, ops=200):
    wl = make_workload(kernel, "rocksdb", scale_factor=SCALE)
    wl.setup()
    wl.run(ops)
    return wl


def test_kloc_counter_drift_detected(sankernel):
    _populate(sankernel)
    mgr = sankernel.kloc_manager
    mgr.verify_counters()  # books balanced after honest work
    mgr._tracked_objects += 1  # inject the drift a lost decrement would leave
    with pytest.raises(SanitizerError) as exc:
        mgr.verify_counters()
    msg = str(exc.value)
    assert "counter drift" in msg and "_tracked_objects" in msg


def test_percpu_entry_drift_detected(sankernel):
    _populate(sankernel)
    lists = sankernel.kloc_manager.percpu.lists
    lists.total_entries += 3
    with pytest.raises(SanitizerError) as exc:
        sankernel.kloc_manager.verify_counters()
    assert "PerCPUListSet.total_entries" in str(exc.value)


def test_drift_surfaces_at_scan_boundary(sankernel):
    """The migration daemon's scan is the production checkpoint."""
    _populate(sankernel)
    sankernel.kloc_manager._tracked_objects -= 1
    with pytest.raises(SanitizerError, match="counter drift"):
        sankernel.kloc_daemon.run(sankernel.clock.now())


def _knode_with_cache_members(kernel, n=2):
    for knode in kernel.kloc_manager.kmap.all_knodes():
        if len(knode.rbtree_cache) >= n and knode.rbtree_slab:
            return knode
    raise AssertionError("no knode holds both cache and slab members")


def _rekey(knode):
    oid, obj = next(iter(knode.rbtree_cache.items()))
    del knode.rbtree_cache[oid]
    knode.rbtree_cache[oid + 10**9] = obj


def _slab_member_in_cache_tree(knode):
    oid, obj = next(iter(knode.rbtree_slab.items()))
    del knode.rbtree_slab[oid]
    knode.rbtree_cache[oid] = obj


def _shared_cache_frame(knode):
    first, second = list(knode.rbtree_cache.values())[:2]
    second.frame = first.frame


@pytest.mark.parametrize(
    "inject, message",
    [
        (_rekey, "keyed by oid"),
        (_slab_member_in_cache_tree, "in the wrong tree"),
        (_shared_cache_frame, "backs two cache-tree members"),
    ],
    ids=["wrong-key", "wrong-tree", "shared-frame"],
)
def test_knode_membership_corruption_detected_at_scan_boundary(
    sankernel, inject, message
):
    """Knode.check_invariants guards the premises of the daemon's fid-ordered
    candidate lists; the sanitized scan boundary runs it on every knode.
    Each injection keeps the member count, so only the membership check
    can catch it."""
    _populate(sankernel)
    sankernel.kloc_manager.verify_counters()
    inject(_knode_with_cache_members(sankernel))
    with pytest.raises(SimulationError, match=message):
        sankernel.kloc_daemon.run(sankernel.clock.now())


def test_tier_alloc_drift_detected_at_teardown(sankernel):
    _populate(sankernel)
    sankernel.topology.tier("fast").total_allocs += 1  # a lost alloc count
    with pytest.raises(SanitizerError, match="counter drift"):
        sankernel.sanitize_teardown()


# ----------------------------------------------------------------------
# Clean run: the audit passes and reports its coverage
# ----------------------------------------------------------------------


def test_clean_run_teardown_report(sankernel):
    wl = _populate(sankernel, ops=300)
    wl.teardown()
    report = sankernel.sanitize_teardown()
    assert report is not None
    assert report["checks"] > 0
    assert report["cross_checks"] > 0
    assert report["frames_freed"] > 0
    assert report["objects_freed"] > 0
