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
from repro.mem.frame import PageFrame

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel


class Process:
    """One application process and its anonymous memory regions."""

    def __init__(self, kernel: "Kernel", name: str) -> None:
        self.kernel = kernel
        self.name = name
        self._regions: Dict[str, List[PageFrame]] = {}

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
        if nbytes <= PAGE_SIZE:
            # Single-page touch (the common case for point operations):
            # one direct charge, no run list.
            frame = frames[index]
            if frame.freed_at is not None:
                return 0
            return self.kernel.access_frame(frame, nbytes, write=write, cpu=cpu)
        # Build the run of live frames in access order, then charge it in
        # one batched call. Only the final chunk can be partial, so the
        # batch's PAGE_SIZE-chunking reproduces this loop's chunks exactly;
        # skipped (dead) frames drop their chunk from the charged total.
        # Prechecking liveness is safe: nothing that runs during
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
        return self.kernel.access_frames(run, charge, write=write, cpu=cpu)

    def total_pages(self) -> int:
        return sum(len(frames) for frames in self._regions.values())

    def teardown(self) -> None:
        """Free every region (process exit)."""
        for name in list(self._regions):
            self.free_region(name)

    def __repr__(self) -> str:
        return f"Process({self.name}, regions={len(self._regions)}, pages={self.total_pages()})"
