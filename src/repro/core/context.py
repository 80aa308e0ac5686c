"""The kernel-context protocol: the seam between subsystems and policy.

The filesystem and network stacks do not decide *where* memory comes from
or what a reference costs — they ask the kernel, which consults the
active tiering policy and the KLOC machinery. This protocol is that
interface; :class:`repro.kernel.kernel.Kernel` is the one real
implementation, and tests use lightweight fakes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

if TYPE_CHECKING:
    from repro.alloc.base import KernelObject
    from repro.core.clock import Clock
    from repro.core.objtypes import KernelObjectType
    from repro.kernel.kernel import AccessBatch
    from repro.mem.frame import PageFrame
    from repro.vfs.inode import Inode


class KernelContext(Protocol):
    """Services the kernel provides to its subsystems (VFS, net, block)."""

    clock: "Clock"
    num_cpus: int

    # -- kernel object lifecycle ---------------------------------------
    def alloc_object(
        self,
        otype: "KernelObjectType",
        inode: Optional["Inode"] = None,
        *,
        cpu: int = 0,
    ) -> "KernelObject":
        """Allocate a kernel object, route it through the allocator family
        the active configuration picks (slab vs KLOC interface vs page),
        place it per the tiering policy, and — when KLOCs are enabled —
        attach it to the inode's knode."""
        ...

    def free_object(self, obj: "KernelObject", *, cpu: int = 0) -> None:
        """Release a kernel object (and its knode membership)."""
        ...

    # -- references ------------------------------------------------------
    def access_object(
        self,
        obj: "KernelObject",
        nbytes: Optional[int] = None,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        """One reference to a kernel object: charge the tier cost to the
        virtual clock, attribute it in the metrics, refresh hotness.
        Returns the charged cost in ns."""
        ...

    def access_frame(
        self, frame: "PageFrame", nbytes: int, *, write: bool = False, cpu: int = 0
    ) -> int:
        """One reference to a raw frame (application pages)."""
        ...

    def access_frames(
        self,
        frames: Sequence["PageFrame"],
        nbytes: int,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        """References to a run of frames, ``nbytes`` split ``PAGE_SIZE``
        per frame in order — the same charges as an ``access_frame`` loop,
        with the clock advances coalesced."""
        ...

    def begin_access_batch(self) -> "AccessBatch":
        """A deferred-advance window for a loop of object accesses and
        frees (``access_object``, ``free_object``; ``sync`` before other
        clock work, ``close`` at the end)."""
        ...

    # -- application memory ----------------------------------------------
    def alloc_app_pages(self, npages: int, *, cpu: int = 0) -> List["PageFrame"]:
        ...

    def free_app_pages(self, frames: List["PageFrame"]) -> None:
        ...

    # -- storage -----------------------------------------------------------
    def storage_io(
        self, nbytes: int, *, write: bool, sequential: bool, background: bool = False
    ) -> int:
        """Block-device transfer; ``background`` work is amortized across
        CPUs instead of stalling the foreground op."""
        ...

    # -- inode / KLOC lifecycle hooks ---------------------------------------
    def on_inode_create(self, inode: "Inode", *, cpu: int = 0) -> None:
        ...

    def on_inode_open(self, inode: "Inode", *, cpu: int = 0) -> None:
        ...

    def on_inode_close(self, inode: "Inode", *, cpu: int = 0) -> None:
        ...

    def on_inode_unlink(self, inode: "Inode", *, cpu: int = 0) -> None:
        ...
