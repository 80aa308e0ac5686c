"""NUMA node model for the Optane Memory Mode platform.

Each socket owns a PMEM tier fronted by a hardware DRAM cache
(:class:`~repro.mem.hwcache.HardwareDRAMCache`). Accesses from a remote
socket cross the interconnect, paying extra latency and reduced bandwidth
— the asymmetry AutoNUMA exists to fix, and the asymmetry that strands
kernel objects when only application pages are migrated (§6.2, Fig 5a).
"""

from __future__ import annotations

from typing import Optional

from repro.core.hotpath import hot
from repro.core.units import NS
from repro.mem.hwcache import HardwareDRAMCache
from repro.mem.tier import MemoryTier

#: QPI/UPI hop cost added to every remote-socket access.
REMOTE_LATENCY_NS = 130 * NS
#: Cross-socket interconnect bandwidth (bytes/ns): transfers pay this on
#: top of the device service time.
INTERCONNECT_BW_BYTES_PER_NS = 12.0
#: Memory-Mode DRAM cache hit service time (local DRAM).
DRAM_HIT_LATENCY_NS = 90 * NS
DRAM_HIT_BW_BYTES_PER_NS = 30.0


class NumaNode:
    """One socket: a PMEM tier, its DRAM L4 cache, and contention state."""

    def __init__(
        self,
        node_id: int,
        tier: MemoryTier,
        hw_cache: Optional[HardwareDRAMCache] = None,
    ) -> None:
        self.node_id = node_id
        self.tier = tier
        self.hw_cache = hw_cache
        self.local_accesses = 0
        self.remote_accesses = 0

    @hot
    def access_cost_ns(
        self, fid: int, nbytes: int, *, write: bool, from_node: int
    ) -> int:
        """Cost for CPU on ``from_node`` to touch ``nbytes`` of page ``fid``.

        The DRAM cache is consulted first (hardware manages it regardless
        of which socket issues the access); remote requests then pay the
        interconnect premium on top of the service cost.

        This is the Memory-Mode cost hook of ``Kernel._charge``, so
        :meth:`HardwareDRAMCache.access` and :meth:`MemoryTier.access_cost_ns`
        are inlined here — same operands, same order, same counters. A hit
        is served by the DRAM cache and never reaches the tier, so the
        tier's byte counters are charged on misses only.
        """
        remote = from_node != self.node_id
        if remote:
            self.remote_accesses += 1
        else:
            self.local_accesses += 1

        tier = self.tier
        cache = self.hw_cache
        hit = False
        if cache is not None:
            # HardwareDRAMCache.access(fid), inlined:
            resident = cache._resident  # noqa: SLF001 - inlined LRU probe
            if fid in resident:
                resident.move_to_end(fid)
                cache.hits += 1
                hit = True
            else:
                cache.misses += 1
                resident[fid] = None
                if len(resident) > cache.capacity_pages:
                    resident.popitem(last=False)
                    cache.evictions += 1

        if hit:
            cost = DRAM_HIT_LATENCY_NS + int(
                nbytes * tier.slowdown / DRAM_HIT_BW_BYTES_PER_NS
            )
        elif write:
            # MemoryTier.access_cost_ns(nbytes, write=...), inlined:
            tier.bytes_written += nbytes
            cost = tier.write_latency_ns + int(nbytes * tier.slowdown / tier.write_bw)
        else:
            tier.bytes_read += nbytes
            cost = tier.read_latency_ns + int(nbytes * tier.slowdown / tier.read_bw)

        if remote:
            cost += REMOTE_LATENCY_NS + int(nbytes / INTERCONNECT_BW_BYTES_PER_NS)
        return cost

    def local_ratio(self) -> float:
        total = self.local_accesses + self.remote_accesses
        return self.local_accesses / total if total else 1.0

    def __repr__(self) -> str:
        return f"NumaNode(id={self.node_id}, tier={self.tier.name})"
