"""Focused tests for the Optane/NUMA policy family."""

import pytest

from repro.core.objtypes import KernelObjectType
from repro.core.units import KB
from repro.mem.frame import PageOwner
from repro.platforms.optane import build_optane_kernel

SCALE = 4096


def advance_scans(kernel, n=3):
    from repro.policies.autonuma import NUMA_SCAN_PERIOD_NS

    for _ in range(n):
        kernel.clock.advance(NUMA_SCAN_PERIOD_NS)


class TestPlacement:
    def test_allocations_follow_task_node(self):
        kernel, _ = build_optane_kernel("autonuma", scale_factor=SCALE)
        assert kernel.alloc_app_pages(1)[0].tier_name == "node0"
        kernel.set_task_node(1)
        assert kernel.alloc_app_pages(1)[0].tier_name == "node1"

    def test_kernel_objects_allocated_local(self):
        kernel, _ = build_optane_kernel("autonuma", scale_factor=SCALE)
        obj = kernel.alloc_object(KernelObjectType.PAGE_CACHE)
        assert obj.frame.tier_name == "node0"

    def test_all_remote_always_crosses(self):
        kernel, _ = build_optane_kernel("all_remote", scale_factor=SCALE)
        assert kernel.alloc_app_pages(1)[0].tier_name == "node1"
        kernel.set_task_node(1)
        assert kernel.alloc_app_pages(1)[0].tier_name == "node0"


class TestTierOrders:
    """The NUMA placement orders, pinned (home-first vs away-first)."""

    @staticmethod
    def _orders(policy):
        from repro.core.objtypes import KernelObjectType

        app = policy.tier_order_app()
        kern = policy.tier_order_kernel(
            KernelObjectType.SOCK, None, covered=False
        )
        return list(app), list(kern)

    def test_autonuma_is_home_first_before_and_after_move(self):
        kernel, policy = build_optane_kernel("autonuma", scale_factor=SCALE)
        assert self._orders(policy) == (["node0", "node1"], ["node0", "node1"])
        kernel.set_task_node(1)
        assert self._orders(policy) == (["node1", "node0"], ["node1", "node0"])

    def test_all_remote_is_away_first(self):
        kernel, policy = build_optane_kernel("all_remote", scale_factor=SCALE)
        assert self._orders(policy) == (["node1", "node0"], ["node1", "node0"])
        kernel.set_task_node(1)
        assert self._orders(policy) == (["node0", "node1"], ["node0", "node1"])

    def test_orders_are_precomputed(self):
        kernel, policy = build_optane_kernel("klocs", scale_factor=SCALE)
        assert policy.tier_order_app() is policy.tier_order_app()
        kernel.set_task_node(1)
        assert policy.tier_order_app() is policy.tier_order_kernel(
            None, None, covered=True
        )


class TestMigrationAfterMove:
    def test_autonuma_moves_app_not_kernel(self):
        kernel, policy = build_optane_kernel("autonuma", scale_factor=SCALE)
        app = kernel.alloc_app_pages(8)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 32 * KB)
        kernel.set_task_node(1)
        advance_scans(kernel)
        assert all(f.tier_name == "node1" for f in app if f.live)
        assert policy.migrated_app > 0
        assert policy.migrated_kernel == 0
        cache = kernel.fs.cache_mgr.cache_for(fh.inode.ino)
        assert all(p.obj.frame.tier_name == "node0" for p in cache.pages())

    def test_klocs_moves_kernel_objects_of_active_knodes(self):
        kernel, policy = build_optane_kernel("klocs", scale_factor=SCALE)
        fh = kernel.fs.create("/f")
        kernel.fs.write(fh, 0, 32 * KB)  # knode active (open)
        kernel.set_task_node(1)
        advance_scans(kernel)
        assert policy.migrated_kernel > 0
        cache = kernel.fs.cache_mgr.cache_for(fh.inode.ino)
        moved = sum(1 for p in cache.pages() if p.obj.frame.tier_name == "node1")
        assert moved > 0

    def test_klocs_leaves_inactive_knodes_alone(self):
        kernel, policy = build_optane_kernel("klocs", scale_factor=SCALE)
        fh = kernel.fs.create("/cold")
        kernel.fs.write(fh, 0, 16 * KB)
        kernel.fs.close(fh)  # inactive → not worth moving
        inode = fh.inode
        kernel.set_task_node(1)
        advance_scans(kernel)
        cache = kernel.fs.cache_mgr.cache_for(inode.ino)
        assert all(p.obj.frame.tier_name == "node0" for p in cache.pages())

    def test_nimble_moves_bigger_batches(self):
        from repro.policies.autonuma import AUTONUMA_BATCH, NIMBLE_BATCH

        assert NIMBLE_BATCH > AUTONUMA_BATCH

    def test_node_ids_updated_after_migration(self):
        kernel, _ = build_optane_kernel("autonuma", scale_factor=SCALE)
        app = kernel.alloc_app_pages(4)
        kernel.set_task_node(1)
        advance_scans(kernel)
        assert all(f.node_id == 1 for f in app if f.live)


class TestAccessCosts:
    def test_remote_access_costlier_than_local(self):
        kernel, _ = build_optane_kernel("autonuma", scale_factor=SCALE)
        frame = kernel.alloc_app_pages(1)[0]
        kernel.access_frame(frame, 4096)  # warm the DRAM cache
        local = kernel.access_frame(frame, 4096)
        kernel.set_task_node(1)
        remote = kernel.access_frame(frame, 4096)
        assert remote > local

    def test_interference_raises_cost(self):
        from repro.workloads.interference import StreamingInterferer

        kernel, _ = build_optane_kernel("all_local", scale_factor=SCALE)
        frame = kernel.alloc_app_pages(1)[0]
        base = kernel.access_frame(frame, 4096)
        base = kernel.access_frame(frame, 4096)  # cache-warm baseline
        interferer = StreamingInterferer(kernel, "node0", streams=4)
        interferer.start()
        contended = kernel.access_frame(frame, 4096)
        interferer.stop()
        assert contended > base
