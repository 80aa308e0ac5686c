"""Page allocator (buddy-system front end).

Whole-page kernel allocations — page cache pages, journal buffers, packet
data buffers, driver rx rings — and application anonymous pages come from
here. Pages are mapped through page tables (not physically addressed), so
they are **relocatable** (§3.3: "vmalloc and page alloc allocations permit
kernel object relocation").

Order-based accounting is kept so fragmentation-style queries are
possible, but contiguity itself is not modeled — nothing in the paper's
experiments depends on it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.clock import Clock
from repro.core.errors import SimulationError
from repro.core.hotpath import hot
from repro.core.objtypes import KernelObjectType
from repro.core.sanitize import call_site
from repro.alloc.base import ALLOC_COSTS, AllocatorStats, KernelObject

from repro.mem.frame import PageFrame, PageOwner
from repro.mem.topology import MemoryTopology

#: Hoisted 'page' cost — read on every alloc/free.
_PAGE_COST = ALLOC_COSTS["page"]
_PAGE_FREE_COST = _PAGE_COST // 2


class PageAllocator:
    """alloc_pages()/__free_pages() plus a kernel-object wrapper."""

    relocatable = True
    family = "page"

    def __init__(self, topology: MemoryTopology, clock: Clock) -> None:
        self.topology = topology
        self.clock = clock
        self._san = topology.sanitizer
        self.stats = AllocatorStats()
        self._next_oid = 0
        #: Allocations by order (log2 pages), for fragmentation reports.
        self.order_histogram: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # raw frames (application pages, driver rings)
    # ------------------------------------------------------------------

    def alloc_frames(
        self,
        npages: int,
        tier_order: Sequence[str],
        owner: PageOwner,
        *,
        obj_type: Optional[str] = None,
        knode_id: Optional[int] = None,
        node_id: int = 0,
    ) -> List[PageFrame]:
        """Allocate raw relocatable frames (e.g. anonymous app memory)."""
        frames = self.topology.allocate(
            npages,
            tier_order,
            owner,
            obj_type=obj_type,
            knode_id=knode_id,
            node_id=node_id,
            relocatable=True,
            now_ns=self.clock.now(),
        )
        order = max(0, (npages - 1).bit_length())
        self.order_histogram[order] = self.order_histogram.get(order, 0) + 1
        self.stats.pages_grabbed += npages
        cost = _PAGE_COST * npages
        self.stats.cpu_cost_ns += cost
        self.clock.advance(cost)
        return frames

    def free_frames(self, frames: Sequence[PageFrame]) -> None:
        now = self.clock.now()
        for frame in frames:
            self.topology.free(frame, now_ns=now)
        self.stats.pages_returned += len(frames)

    # ------------------------------------------------------------------
    # page-backed kernel objects (Table 1 PAGE-family types)
    # ------------------------------------------------------------------

    @hot
    def alloc_object(
        self,
        otype: KernelObjectType,
        tier_order: Sequence[str],
        *,
        knode_id: Optional[int] = None,
        node_id: int = 0,
    ) -> KernelObject:
        """Allocate one page-backed kernel object owning its frame."""
        now = self.clock.now()
        (frame,) = self.topology.allocate(
            1,
            tier_order,
            otype.owner,
            obj_type=otype.name,
            knode_id=knode_id,
            node_id=node_id,
            relocatable=True,
            now_ns=now,
        )
        self.stats.pages_grabbed += 1
        self.stats.allocs += 1
        oid = self._next_oid
        self._next_oid += 1
        self.stats.cpu_cost_ns += _PAGE_COST
        # clock.advance(_PAGE_COST), inlined (constant cost > 0).
        clock = self.clock
        clock._now = t = clock._now + _PAGE_COST  # noqa: SLF001
        if t >= clock._next_deadline:  # noqa: SLF001
            clock._fire_due()  # noqa: SLF001
        return KernelObject(
            oid=oid,
            otype=otype,
            knode_id=knode_id,
            frame=frame,
            allocator=self.family,
            allocated_at=now,
        )

    @hot
    def free_object(self, obj: KernelObject, *, now_ns: Optional[int] = None) -> int:
        """Free one page-backed object. ``now_ns`` defers the clock work
        to the caller (batched charge windows): the free executes at that
        virtual time and the constant CPU cost is returned without
        advancing."""
        san = self._san
        if san is not None:
            san.on_object_free(obj, self.family, site=call_site(2))
        if not obj.live:
            raise SimulationError(f"double free of {obj!r}")
        now = self.clock.now() if now_ns is None else now_ns
        obj.freed_at = now
        self.topology.free(obj.frame, now_ns=now)
        self.stats.frees += 1
        self.stats.pages_returned += 1
        self.stats.lifetimes.record(obj.otype, obj.lifetime_ns(now))
        if san is not None:
            san.poison_object(obj)
        cost = _PAGE_FREE_COST
        if now_ns is None:
            # clock.advance(cost), inlined (constant cost > 0).
            clock = self.clock
            clock._now = t = clock._now + cost  # noqa: SLF001
            if t >= clock._next_deadline:  # noqa: SLF001
                clock._fire_due()  # noqa: SLF001
        return cost

    def __repr__(self) -> str:
        live = self.stats.pages_grabbed - self.stats.pages_returned
        return f"PageAllocator(live_pages={live})"
