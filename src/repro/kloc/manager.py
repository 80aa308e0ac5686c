"""KlocManager: the lifecycle glue between inodes, objects, and knodes.

Driven by the kernel's hooks (§4.1: "the OS system call interface ...
allocates kernel objects and adds pointers to them in the knodes"):

* inode created  → knode created, added to kmap (KLOC lifetime == inode
  lifetime, §4.2.2)
* inode opened   → knode ``inuse``, hot
* inode closed   → knode inactive → definitely-cold candidate; the
  ``on_knode_inactive`` callback lets the policy migrate immediately
  ("without waiting for scans of active/inactive lists", §4.5)
* inode unlinked → knode deleted; its objects are *freed*, never migrated
* object alloc/free/access → subtree membership + hotness upkeep
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.alloc.base import KernelObject
from repro.core.clock import Clock
from repro.core.config import KLOCSpec
from repro.core.errors import SimulationError
from repro.core.hotpath import hot
from repro.core.sanitize import Sanitizer
from repro.kloc.kmap import KMap
from repro.kloc.knode import KNODE_STRUCT_BYTES, RB_POINTER_BYTES, Knode
from repro.kloc.percpu_cache import PerCPUKnodeCache
from repro.kloc.registry import KlocRegistry
from repro.vfs.inode import Inode


class KlocManager:
    """Owns the kmap, the per-CPU fast paths, and knode lifecycle."""

    def __init__(
        self,
        clock: Clock,
        *,
        num_cpus: int = 16,
        registry: Optional[KlocRegistry] = None,
        spec: Optional[KLOCSpec] = None,
        sanitizer: Optional[Sanitizer] = None,
    ) -> None:
        self.clock = clock
        #: The kernel's shared sanitizer (None unless REPRO_SANITIZE=1);
        #: enables the scan-boundary counter cross-checks.
        self.sanitizer = sanitizer
        self.spec = spec or KLOCSpec()
        self.registry = registry if registry is not None else KlocRegistry()
        self.kmap = KMap()
        self.percpu = PerCPUKnodeCache(
            self.kmap, num_cpus, self.spec.percpu_list_max
        )
        self._next_knode_id = 1
        #: Fired when a knode transitions to inactive (file/socket closed).
        self.on_knode_inactive: Optional[Callable[[Knode], None]] = None
        #: Fired when a knode becomes active again (reopen).
        self.on_knode_active: Optional[Callable[[Knode], None]] = None
        #: Fired when a knode is deleted (inode unlinked).
        self.on_knode_deleted: Optional[Callable[[Knode], None]] = None
        self.knodes_created = 0
        self.knodes_deleted = 0
        self.peak_metadata_bytes = 0
        #: Running count of rb-tree pointers (8B each), kept so metadata
        #: accounting is O(1) per allocation rather than a kmap walk.
        self._tracked_objects = 0
        #: Objects whose knode was deleted while they were still members:
        #: their late ``remove_object`` finds no knode and (deliberately)
        #: never decrements ``_tracked_objects``. Counted here so the
        #: sanitizer's recomputation can balance the books exactly.
        self._orphaned_objects = 0
        #: Live reference to the registry's coverage set (mutations in the
        #: registry stay visible) — hot-path coverage test without the
        #: method call.
        self._covered = self.registry._covered  # noqa: SLF001
        #: Bound ``KMap.get_uncounted`` equivalent (the id→knode shadow's
        #: ``.get``) — the hot lookups resolve pointers without a method
        #: call. Identical result; no counters move either way.
        self._kmap_get = self.kmap._by_id.get  # noqa: SLF001

    # ------------------------------------------------------------------
    # inode lifecycle
    # ------------------------------------------------------------------

    def create_knode(self, inode: Inode, *, cpu: int = 0) -> Knode:
        """map_knode(): new inode → new knode, registered in the kmap."""
        if inode.knode_id is not None:
            raise SimulationError(f"inode {inode.ino} already has a knode")
        knode = Knode(self._next_knode_id, inode.ino, created_at=self.clock.now())
        self._next_knode_id += 1
        inode.knode_id = knode.knode_id
        self.kmap.add(knode)
        self.percpu.note_access(knode, cpu=cpu)
        self.knodes_created += 1
        self._note_metadata()
        return knode

    def open_knode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        knode = self.knode_for_inode(inode, cpu=cpu)
        if knode is None:
            return None
        was_inactive = not knode.inuse
        knode.inuse = True
        knode.touch(self.clock.now())
        self.percpu.note_access(knode, cpu=cpu)
        self._note_metadata()
        if was_inactive and self.on_knode_active is not None:
            self.on_knode_active(knode)
        return knode

    def close_knode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        """Mark the knode inactive once its last opener is gone."""
        knode = self.knode_for_inode(inode, cpu=cpu)
        if knode is None:
            return None
        if inode.open_count == 0:
            knode.inuse = False
            # §4.3: inactive knodes are invalidated from the fast paths.
            self.percpu.invalidate(knode.knode_id)
            self._note_metadata()
            if self.on_knode_inactive is not None:
                self.on_knode_inactive(knode)
        return knode

    def delete_knode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        """Inode deleted → knode deleted (§4.2.2); objects are freed by
        their subsystems, not migrated (§3.2)."""
        if inode.knode_id is None:
            return None
        knode = self.kmap.lookup(inode.knode_id)
        if knode is None:
            return None
        self.percpu.invalidate(knode.knode_id)
        self.kmap.remove(knode.knode_id)
        self._orphaned_objects += knode.object_count
        self.knodes_deleted += 1
        self._note_metadata()
        if self.on_knode_deleted is not None:
            self.on_knode_deleted(knode)
        inode.knode_id = None
        return knode

    # ------------------------------------------------------------------
    # object membership
    # ------------------------------------------------------------------

    @hot
    def add_object(self, inode: Inode, obj: KernelObject, *, cpu: int = 0) -> bool:
        """Attach an object to the inode's knode (knode_add_obj()).

        Returns False when the inode has no knode or the type is outside
        the registry's coverage (excluded from the KLOC abstraction, as in
        Fig 5c's partial configurations).
        """
        if obj.otype not in self._covered:
            return False
        knode = self.knode_for_inode(inode, cpu=cpu)
        if knode is None:
            return False
        obj.knode_id = knode.knode_id
        knode.add_obj(obj)
        # knode.touch(self.clock.now()), inlined.
        knode.age = 0
        knode.last_access = self.clock._now  # noqa: SLF001
        self._tracked_objects += 1
        self._note_metadata()
        return True

    @hot
    def remove_object(self, obj: KernelObject, *, cpu: int = 0) -> bool:
        kid = obj.knode_id
        if kid is None:
            return False
        # The removal goes first so that a peak sample taken by the
        # lookup's recorded miss already counts the object as gone; the
        # lookup touches only the per-CPU lists and the kmap, the removal
        # only the knode's trees, so the end state is the same either way.
        knode = self._kmap_get(kid)
        removed = knode is not None and knode.remove_obj(obj)
        if removed:
            self._tracked_objects -= 1
        self._percpu_lookup(kid, cpu, removed)
        return removed

    @hot
    def note_access(
        self, obj: KernelObject, *, cpu: int = 0, now_ns: Optional[int] = None
    ) -> None:
        """A member object was referenced — refresh its KLOC's hotness.

        ``now_ns`` lets batched charge paths pass the access's computed
        virtual time instead of re-reading the clock (identical value —
        the caller reads the clock either way).

        Hot-path note: after a successful per-CPU lookup the knode is
        already on ``cpu``'s list at the MRU end (a hit refreshes recency;
        a miss records it), so a trailing ``percpu.note_access`` would be
        a state- and counter-level no-op; it is not made.
        """
        kid = obj.knode_id
        if kid is None:
            return
        knode = self._percpu_lookup(kid, cpu)
        if knode is None:
            return
        knode.age = 0
        if now_ns is None:
            now_ns = self.clock._now  # noqa: SLF001 - hot-path read
        knode.last_access = now_ns

    @hot
    def knode_for_inode(self, inode: Inode, *, cpu: int = 0) -> Optional[Knode]:
        kid = inode.knode_id
        if kid is None:
            return None
        return self._percpu_lookup(kid, cpu)

    @hot
    def _percpu_lookup(self, kid: int, cpu: int, sample: bool = True) -> Optional[Knode]:
        """:meth:`PerCPUKnodeCache.lookup`, inlined (same bounds check,
        counters and recency refresh), for the three lookups above.

        Only a miss that records a new per-CPU entry can grow metadata, so
        only that outcome samples the peak, and only with ``sample``: a
        hit changes nothing, and every other growth site samples itself.
        """
        percpu = self.percpu
        lists = percpu.lists
        if not 0 <= cpu < lists.num_cpus:
            raise IndexError(f"cpu {cpu} out of range [0, {lists.num_cpus})")
        lst = lists._lists[cpu]  # noqa: SLF001 - hot-path access
        if kid in lst:
            lst.move_to_end(kid)
            lists.hits += 1
            percpu.fast_hits += 1
            return self._kmap_get(kid)
        lists.misses += 1
        percpu.slow_lookups += 1
        knode = self.kmap.lookup(kid)
        if knode is not None:
            lists.record(cpu, kid)
            if sample:
                self._note_metadata()
        return knode

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def metadata_bytes(self) -> int:
        """Live KLOC metadata (Table 6's accounting): 64B per knode, 8B of
        rb-tree pointer per tracked object, plus the per-CPU lists.

        Every term is a maintained counter on the hot path, so this (and
        the peak sampling built on it) is pure arithmetic per call.
        """
        return (
            KNODE_STRUCT_BYTES * len(self.kmap)
            + RB_POINTER_BYTES * self._tracked_objects
            + self.percpu.metadata_bytes()
        )

    @hot
    def _note_metadata(self) -> None:
        """Sample the peak after any mutation that can grow metadata.

        Called from every site that changes the kmap population, the
        tracked-object count, or the per-CPU lists — not just object
        attach — so short runs no longer under-report the peak.

        The size comes from maintained counters with no calls at all:
        ``knodes_created - knodes_deleted`` is the kmap population (knodes
        only leave via :meth:`delete_knode`), and the per-CPU entry count
        is a live attribute.
        """
        size = (
            KNODE_STRUCT_BYTES * (self.knodes_created - self.knodes_deleted)
            + RB_POINTER_BYTES * self._tracked_objects
            + self.percpu.lists.total_entries * 24
        )
        if size > self.peak_metadata_bytes:
            self.peak_metadata_bytes = size

    def verify_counters(self) -> None:
        """Sanitizer cross-check: every incrementally maintained counter
        must equal a full recomputation from the live structures, and
        every knode's membership must pass :meth:`Knode.check_invariants`.

        Called by the migration daemon at scan boundaries and by kernel
        teardown when ``REPRO_SANITIZE=1``; a no-op otherwise. Read-only —
        the recomputation touches no counters and charges no time.
        """
        san = self.sanitizer
        if san is None:
            return
        knodes = self.kmap.all_knodes()
        san.expect(
            "kmap population (knodes_created - knodes_deleted)",
            self.knodes_created - self.knodes_deleted,
            len(knodes),
        )
        members = 0
        for knode in knodes:
            knode.check_invariants()
            members += knode.object_count
        san.expect(
            "KlocManager._tracked_objects (rb-tree pointers)",
            self._tracked_objects,
            members + self._orphaned_objects,
        )
        lists = self.percpu.lists
        recounted = 0
        for lst in lists._lists:  # noqa: SLF001 - ground-truth recount
            recounted += len(lst)
        san.expect(
            "PerCPUListSet.total_entries", lists.total_entries, recounted
        )

    def __repr__(self) -> str:
        return (
            f"KlocManager(knodes={len(self.kmap)}, created={self.knodes_created}, "
            f"deleted={self.knodes_deleted})"
        )
