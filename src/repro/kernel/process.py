"""Process model: application-side memory for workload drivers.

Workloads own memtables, value buffers, application caches, and JVM-ish
heaps; this class models them as named regions of anonymous pages that
can be allocated, touched (read/written with a chosen locality), and
freed — producing the application-page footprint and references the
Figure 2 breakdowns compare kernel objects against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.core.errors import SimulationError
from repro.core.units import PAGE_SIZE, pages_for
from repro.mem.frame import PageFrame, PageOwner

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel

#: Identity-compared on the inlined charge path (see Kernel.access_frame).
_OWNER_APP = PageOwner.APP


class Process:
    """One application process and its anonymous memory regions."""

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.name = name
        self._regions: Dict[str, List[PageFrame]] = {}
        # Bound once: contexts without the batched API (test fakes) get
        # the legacy per-frame loop in touch().
        self._access_frames = getattr(kernel, "access_frames", None)
        self._access_frame = getattr(kernel, "access_frame", None)
        #: Mirrors Kernel._flat: when set, single-page touches charge
        #: inline instead of calling access_frame (same body, no call).
        self._flat = getattr(kernel, "_flat", False)
        if self._flat:
            # Stable containers bound once for the inlined charge body
            # (none are ever reassigned by the kernel).
            self._tiers = kernel._tiers  # noqa: SLF001
            self._numa_nodes = kernel._numa_nodes  # noqa: SLF001
            self._refs_by_tier_n = kernel._refs_by_tier_n  # noqa: SLF001
            self._access_ns_n = kernel._access_ns_n  # noqa: SLF001
            self._refs_by_owner = kernel.refs_by_owner
            self._clock = kernel.clock

    def alloc_region(
        self, name: str, nbytes: int, *, cpu: int = 0, huge: bool = False
    ) -> int:
        """mmap-style anonymous region; returns pages allocated.

        ``huge=True`` requests THP backing (2MB compound groups, §5)."""
        if name in self._regions:
            raise SimulationError(f"region {name!r} exists in {self.name}")
        npages = pages_for(nbytes)
        self._regions[name] = self.kernel.alloc_app_pages(
            npages, cpu=cpu, huge=huge
        )
        return npages

    def extend_region(self, name: str, nbytes: int, *, cpu: int = 0) -> int:
        """Grow a region (apps malloc incrementally, interleaved with I/O,
        rather than reserving everything up front)."""
        frames = self._regions.get(name)
        if frames is None:
            raise SimulationError(f"no region {name!r} in {self.name}")
        npages = pages_for(nbytes)
        frames.extend(self.kernel.alloc_app_pages(npages, cpu=cpu))
        return npages

    def free_region(self, name: str) -> int:
        frames = self._regions.pop(name, None)
        if frames is None:
            raise SimulationError(f"no region {name!r} in {self.name}")
        self.kernel.free_app_pages(frames)
        return len(frames)

    def has_region(self, name: str) -> bool:
        return name in self._regions

    def region_pages(self, name: str) -> int:
        return len(self._regions.get(name, ()))

    def touch(
        self,
        name: str,
        nbytes: int,
        *,
        write: bool = False,
        page_hint: int = 0,
        cpu: int = 0,
    ) -> int:
        """Reference ``nbytes`` of a region starting at ``page_hint``
        (wrapping), returning the charged cost. Models the app-side work
        of an operation (hashing a key, serializing a value, ...)."""
        frames = self._regions.get(name)
        if not frames:
            raise SimulationError(f"no region {name!r} in {self.name}")
        n = len(frames)
        index = page_hint % n
        access_frames = self._access_frames
        if access_frames is None:
            # Context without the batched API (test fakes): legacy loop.
            cost = 0
            remaining = nbytes
            while remaining > 0:
                chunk = min(remaining, PAGE_SIZE)
                frame = frames[index]
                if frame.live:
                    cost += self.kernel.access_frame(
                        frame, chunk, write=write, cpu=cpu
                    )
                remaining -= chunk
                index = (index + 1) % n
            return cost
        if nbytes <= PAGE_SIZE:
            # Single-page touch (the common case for point operations):
            # one direct charge, no run list.
            frame = frames[index]
            if frame.freed_at is not None:
                return 0
            if not self._flat:
                return self._access_frame(frame, nbytes, write=write, cpu=cpu)
            # Kernel.access_frame's flat body, inlined — this is the
            # single hottest call site in the operation loop (one charge
            # per app-side region touch). Keep in lockstep with
            # Kernel.access_frame; the hotpath equivalence tests guard
            # bit-identity against the legacy path.
            k = self.kernel
            tier_name = frame.tier_name
            owner = frame.owner
            nodes = self._numa_nodes
            if nodes is not None:
                cost = nodes[tier_name].access_cost_ns(
                    frame.fid, nbytes, write=write, from_node=k.task_node
                )
            else:
                tier = self._tiers[tier_name]
                if write:
                    tier.bytes_written += nbytes
                    cost = tier.write_latency_ns + int(
                        nbytes * tier.slowdown / tier.write_bw
                    )
                else:
                    tier.bytes_read += nbytes
                    cost = tier.read_latency_ns + int(
                        nbytes * tier.slowdown / tier.read_bw
                    )
            self._refs_by_tier_n[tier_name][owner is not _OWNER_APP] += 1
            cell = self._access_ns_n[owner][tier_name]
            cell[0] += cost
            cell[1] += 1
            clock = self._clock
            frame.last_access = clock._now  # noqa: SLF001
            frame.lru_age = 0
            journal = frame.journal
            if journal is not None:
                journal[frame.fid] = frame
            if write:
                frame.writes += 1
                frame.dirty = True
            else:
                frame.reads += 1
            # clock.advance(cost), inlined (cost >= 0 by construction):
            clock._now = now = clock._now + cost  # noqa: SLF001
            if now >= clock._next_deadline:  # noqa: SLF001
                clock._fire_due()  # noqa: SLF001
            if owner is _OWNER_APP:
                k.app_refs += 1
                k.app_ref_bytes += nbytes
            else:
                k.kernel_refs += 1
                k.kernel_ref_bytes += nbytes
            self._refs_by_owner[owner] += 1
            return cost
        # Build the run of live frames in access order, then charge it in
        # one batched call. Only the final chunk can be partial, so the
        # batch's PAGE_SIZE-chunking reproduces this loop's chunks exactly;
        # skipped (dead) frames drop their chunk from the charged total,
        # as before. Prechecking liveness is safe: nothing that runs during
        # the charges (daemons) frees anonymous app frames.
        run: List[PageFrame] = []
        charge = 0
        remaining = nbytes
        while remaining > 0:
            chunk = PAGE_SIZE if remaining >= PAGE_SIZE else remaining
            frame = frames[index]
            if frame.freed_at is None:
                run.append(frame)
                charge += chunk
            remaining -= chunk
            index += 1
            if index == n:
                index = 0
        return access_frames(run, charge, write=write, cpu=cpu)

    def total_pages(self) -> int:
        return sum(len(frames) for frames in self._regions.values())

    def teardown(self) -> None:
        """Free every region (process exit)."""
        for name in list(self._regions):
            self.free_region(name)

    def __repr__(self) -> str:
        return f"Process({self.name}, regions={len(self._regions)}, pages={self.total_pages()})"
