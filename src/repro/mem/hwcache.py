"""Hardware-managed DRAM cache for Optane Memory Mode.

Table 4's second platform runs each socket's DRAM as a direct-managed L4
cache in front of persistent memory; data movement between DRAM and PMEM
is invisible to software. We simulate it as an inclusive page-granularity
LRU cache: a hit is served at DRAM cost, a miss at PMEM cost plus a fill.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.core.units import PAGE_SIZE


class HardwareDRAMCache:
    """Page-granularity LRU cache of PMEM-resident pages."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"cache capacity must be positive: {capacity_bytes}")
        self.capacity_pages = capacity_bytes // PAGE_SIZE
        self._resident: "OrderedDict[int, None]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, fid: int) -> bool:
        """Touch page ``fid``; returns True on a cache hit.

        Misses insert the page (allocate-on-miss, like Memory Mode's
        direct-mapped fill policy), evicting the LRU page if full.
        """
        if fid in self._resident:
            self._resident.move_to_end(fid)
            self.hits += 1
            return True
        self.misses += 1
        self._resident[fid] = None
        if len(self._resident) > self.capacity_pages:
            self._resident.popitem(last=False)
            self.evictions += 1
        return False

    def invalidate(self, fid: int) -> None:
        """Drop a page (e.g. after it is freed or migrated off-node).

        Nothing in the simulator calls this today: neither the frame free
        path nor migration invalidates the cache. Frame ids are never
        reused, so a freed or migrated-away fid cannot produce a false
        hit; it just stays resident, occupying a slot, until LRU eviction
        pushes it out. Wiring invalidation in changes hit rates and hence
        simulated results, so it needs a ``SIM_VERSION`` bump.
        """
        self._resident.pop(fid, None)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._resident)

    def __repr__(self) -> str:
        return (
            f"HardwareDRAMCache({len(self)}/{self.capacity_pages} pages, "
            f"hit_rate={self.hit_rate():.2f})"
        )
