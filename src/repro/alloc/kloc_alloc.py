"""The paper's KLOC allocation interface (§4.2.2 / §4.4).

"We create a KLOC allocation interface that permits fast allocation of
kernel objects while supporting relocatability and, via systematic study,
are able to redirect 400+ allocation sites to our interface."

Mechanically it differs from the slab allocator in two ways:

1. Backing pages are **relocatable** — they come from anonymous-VMA style
   mappings rather than physically addressed slabs, so the migration
   engine may move them.
2. Pages are **grouped by knode**: objects of one file/socket pack onto
   the same pages. That is what lets the OS migrate everything under a
   knode subtree *en masse* at page granularity without dragging along
   unrelated files' objects.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.core.clock import Clock
from repro.core.errors import SimulationError
from repro.core.hotpath import hot
from repro.core.objtypes import KernelObjectType
from repro.core.sanitize import call_site
from repro.core.units import PAGE_SIZE
from repro.alloc.base import ALLOC_COSTS, AllocatorStats, KernelObject

from repro.mem.frame import PageFrame
from repro.mem.topology import MemoryTopology

#: Hoisted 'kloc' cost — read on every alloc/free.
_KLOC_COST = ALLOC_COSTS["kloc"]
_KLOC_FREE_COST = _KLOC_COST // 2


class _KlocPage:
    """One relocatable page packing a single knode's small objects.

    Unlike kmem_cache slabs, pages are not segregated by object type:
    the KLOC interface packs a knode's inode, dentry, extents, and radix
    nodes together (they are reached through the knode's trees, not by
    size-class freelists), so a typical file needs one or two pages.
    """

    __slots__ = ("frame", "used_bytes", "live", "knode_key")

    def __init__(self, frame: PageFrame, knode_key: Optional[int]) -> None:
        self.frame = frame
        self.used_bytes = 0
        self.live: Set[int] = set()
        #: The knode id this page was allocated under. Objects can later
        #: be *adopted* by a knode (their ``knode_id`` rewritten), so page
        #: bookkeeping must use this original key, not the object's.
        self.knode_key = knode_key

    def fits(self, nbytes: int) -> bool:
        return self.used_bytes + nbytes <= PAGE_SIZE

    @property
    def empty(self) -> bool:
        return not self.live


class KlocAllocator:
    """Slab-speed, relocatable, knode-grouped kernel object allocator."""

    relocatable = True
    family = "kloc"

    def __init__(self, topology: MemoryTopology, clock: Clock) -> None:
        self.topology = topology
        self.clock = clock
        self._san = topology.sanitizer
        self.stats = AllocatorStats()
        self._next_oid = 0
        #: Current fill page per knode — the grouping that makes en-masse
        #: page-granularity migration of a knode's objects possible.
        self._partial: Dict[Optional[int], _KlocPage] = {}
        self._page_of: Dict[int, _KlocPage] = {}
        #: Live pages per knode, for en-masse migration lookups. A dict
        #: used as an ordered set: ``_KlocPage`` has no value hash, so a
        #: real ``set`` would iterate in address order and leak host
        #: addresses into the migration daemon's frame ordering.
        self._knode_pages: Dict[Optional[int], Dict[_KlocPage, None]] = {}
        #: Object sizes, for releasing page bytes on free.
        self._size_of: Dict[int, int] = {}

    @hot
    def alloc(
        self,
        otype: KernelObjectType,
        tier_order: Sequence[str],
        *,
        knode_id: Optional[int] = None,
    ) -> KernelObject:
        """Allocate one object on a page shared only with ``knode_id``."""
        now = self.clock.now()
        size = min(otype.size_bytes, PAGE_SIZE)
        page = self._partial.get(knode_id)
        if page is None or not page.fits(size):
            (frame,) = self.topology.allocate(
                1,
                tier_order,
                otype.owner,
                obj_type=otype.name,
                knode_id=knode_id,
                relocatable=True,
                now_ns=now,
            )
            page = _KlocPage(frame, knode_id)
            self._partial[knode_id] = page
            self._knode_pages.setdefault(knode_id, {})[page] = None
            self.stats.pages_grabbed += 1

        oid = self._next_oid
        self._next_oid += 1
        page.live.add(oid)
        page.used_bytes += size
        self._page_of[oid] = page
        self._size_of[oid] = size

        self.stats.allocs += 1
        self.stats.cpu_cost_ns += _KLOC_COST
        # clock.advance(_KLOC_COST), inlined (constant cost > 0).
        clock = self.clock
        clock._now = t = clock._now + _KLOC_COST  # noqa: SLF001
        if t >= clock._next_deadline:  # noqa: SLF001
            clock._fire_due()  # noqa: SLF001
        return KernelObject(
            oid=oid,
            otype=otype,
            knode_id=knode_id,
            frame=page.frame,
            allocator=self.family,
            allocated_at=now,
        )

    @hot
    def free(self, obj: KernelObject, *, now_ns: Optional[int] = None) -> int:
        """Free one object. ``now_ns`` defers the clock work to the caller
        (batched charge windows): the free executes at that virtual time
        and the constant CPU cost is returned without advancing."""
        san = self._san
        if san is not None:
            san.on_object_free(obj, self.family, site=call_site(2))
        if not obj.live:
            raise SimulationError(f"double free of {obj!r}")
        page = self._page_of.pop(obj.oid, None)
        if page is None:
            raise SimulationError(f"{obj!r} was not allocated here")
        now = self.clock.now() if now_ns is None else now_ns
        obj.freed_at = now
        page.live.discard(obj.oid)
        page.used_bytes -= self._size_of.pop(obj.oid, 0)

        if page.empty:
            # Clean up under the page's *allocation* key — the object's
            # knode_id may have been rewritten by adoption (§4.2.3's
            # driver-buffer reassociation).
            if self._partial.get(page.knode_key) is page:
                del self._partial[page.knode_key]
            pages = self._knode_pages.get(page.knode_key)
            if pages is not None:
                pages.pop(page, None)
                if not pages:
                    del self._knode_pages[page.knode_key]
            self.topology.free(page.frame, now_ns=now)
            self.stats.pages_returned += 1

        self.stats.frees += 1
        self.stats.lifetimes.record(obj.otype, obj.lifetime_ns(now))
        if san is not None:
            san.poison_object(obj)
        cost = _KLOC_FREE_COST
        if now_ns is None:
            # clock.advance(cost), inlined (constant cost > 0).
            clock = self.clock
            clock._now = t = clock._now + cost  # noqa: SLF001
            if t >= clock._next_deadline:  # noqa: SLF001
                clock._fire_due()  # noqa: SLF001
        return cost

    def knode_frames(self, knode_id: Optional[int]) -> List[PageFrame]:
        """Live backing pages of one knode's small objects — the unit the
        KLOC migration daemon moves when the knode goes cold."""
        return [p.frame for p in self._knode_pages.get(knode_id, ())]

    def live_pages(self) -> int:
        return self.stats.pages_grabbed - self.stats.pages_returned

    def __repr__(self) -> str:
        return (
            f"KlocAllocator(objects={self.stats.live_objects}, "
            f"pages={self.live_pages()}, knodes={len(self._knode_pages)})"
        )
