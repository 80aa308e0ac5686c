"""Lightweight KernelContext fake used by substrate tests.

Routes every allocation through the real allocators on a real topology
but applies a trivial placement rule (fast first, spill to slow) and
records hooks so tests can assert on the lifecycle traffic without
standing up the full kernel.
"""

from __future__ import annotations

from typing import List, Optional

from repro.alloc.base import KernelObject
from repro.alloc.buddy import PageAllocator
from repro.alloc.slab import SlabAllocator
from repro.core.clock import Clock
from repro.core.config import StorageSpec, fast_dram_spec, slow_dram_spec
from repro.core.objtypes import AllocatorKind, KernelObjectType
from repro.core.units import MB, PAGE_SIZE
from repro.mem.frame import PageFrame, PageOwner
from repro.mem.topology import MemoryTopology
from repro.vfs.storage import NVMeDevice


class FakeKernel:
    """Minimal, real-allocator-backed KernelContext implementation."""

    def __init__(
        self,
        fast_bytes: int = 8 * MB,
        slow_bytes: int = 64 * MB,
        num_cpus: int = 4,
    ) -> None:
        self.clock = Clock()
        self.num_cpus = num_cpus
        self.topology = MemoryTopology(
            [
                fast_dram_spec(capacity_bytes=fast_bytes),
                slow_dram_spec(capacity_bytes=slow_bytes),
            ]
        )
        self.slab = SlabAllocator(self.topology, self.clock)
        self.pages = PageAllocator(self.topology, self.clock)
        self.storage = NVMeDevice(StorageSpec())
        self.tier_order = ["fast", "slow"]
        # Hook logs for assertions.
        self.created_inodes: List = []
        self.opened_inodes: List = []
        self.closed_inodes: List = []
        self.unlinked_inodes: List = []
        self.freed_objects: List[KernelObject] = []
        self.references = 0
        self.kernel_ref_bytes = 0
        self.app_ref_bytes = 0

    # -- kernel object lifecycle ---------------------------------------

    def alloc_object(
        self,
        otype: KernelObjectType,
        inode=None,
        *,
        cpu: int = 0,
    ) -> KernelObject:
        knode_id = getattr(inode, "knode_id", None) if inode is not None else None
        if otype.allocator is AllocatorKind.SLAB:
            return self.slab.alloc(otype, self.tier_order, knode_id=knode_id)
        return self.pages.alloc_object(otype, self.tier_order, knode_id=knode_id)

    def free_object(self, obj: KernelObject, *, cpu: int = 0) -> None:
        self.freed_objects.append(obj)
        if obj.allocator == "slab":
            self.slab.free(obj)
        else:
            self.pages.free_object(obj)

    # -- references ------------------------------------------------------

    def access_object(
        self,
        obj: KernelObject,
        nbytes: Optional[int] = None,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        size = nbytes if nbytes is not None else obj.size_bytes
        tier = self.topology.tier(obj.frame.tier_name)
        cost = tier.access_cost_ns(size, write=write)
        obj.frame.record_access(self.clock.now(), write=write)
        self.references += 1
        self.kernel_ref_bytes += size
        self.clock.advance(cost)
        return cost

    def access_frame(
        self, frame: PageFrame, nbytes: int, *, write: bool = False, cpu: int = 0
    ) -> int:
        tier = self.topology.tier(frame.tier_name)
        cost = tier.access_cost_ns(nbytes, write=write)
        frame.record_access(self.clock.now(), write=write)
        self.references += 1
        self.app_ref_bytes += nbytes
        self.clock.advance(cost)
        return cost

    def access_frames(
        self,
        frames: List[PageFrame],
        nbytes: int,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        """Per-frame loop with the real kernel's PAGE_SIZE chunking."""
        total = 0
        remaining = nbytes
        for frame in frames:
            if remaining <= 0:
                break
            chunk = min(remaining, PAGE_SIZE)
            total += self.access_frame(frame, chunk, write=write, cpu=cpu)
            remaining -= chunk
        return total

    def begin_access_batch(self) -> "PassThroughBatch":
        return PassThroughBatch(self)

    # -- application memory ----------------------------------------------

    def alloc_app_pages(self, npages: int, *, cpu: int = 0) -> List[PageFrame]:
        return self.pages.alloc_frames(npages, self.tier_order, PageOwner.APP)

    def free_app_pages(self, frames: List[PageFrame]) -> None:
        self.pages.free_frames(frames)

    # -- storage -----------------------------------------------------------

    def storage_io(
        self, nbytes: int, *, write: bool, sequential: bool, background: bool = False
    ) -> int:
        cost = self.storage.io_cost_ns(nbytes, write=write, sequential=sequential)
        charged = cost // self.num_cpus if background else cost
        self.clock.advance(charged)
        return charged

    # -- inode / KLOC lifecycle hooks ---------------------------------------

    def on_inode_create(self, inode, *, cpu: int = 0) -> None:
        self.created_inodes.append(inode)

    def on_inode_open(self, inode, *, cpu: int = 0) -> None:
        self.opened_inodes.append(inode)

    def on_inode_close(self, inode, *, cpu: int = 0) -> None:
        self.closed_inodes.append(inode)

    def on_inode_unlink(self, inode, *, cpu: int = 0) -> None:
        self.unlinked_inodes.append(inode)


class PassThroughBatch:
    """The access-batch API without deferral: every access and free is
    charged to the fake kernel immediately."""

    def __init__(self, kernel: FakeKernel) -> None:
        self.access_object = kernel.access_object
        self.free_object = kernel.free_object

    def sync(self) -> None:
        pass

    def close(self) -> None:
        pass
