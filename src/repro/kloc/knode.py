"""knodes: the per-inode table of contents over kernel objects.

§4.2.3: "we use the simple approach of incorporating two red-black trees
within each knode — *rbtree-cache* tracks large kernel objects allocated
using non-slab allocators, while *rbtree-slab* tracks smaller kernel
objects allocated using slab allocators."

The two trees are *modelled* as red-black trees — Table 6 charges their
8-byte rb pointer per member, and Table 2's iterators yield members in
key (oid) order — but *held* as ``oid → KernelObject`` dicts, as
``KMap._by_id`` shadows the kmap tree: no simulated time is charged per
tree operation, so only their ordered views need reproducing, and those
are built on demand.

Table 6's metadata accounting lives here too: 8 bytes of rb-tree pointer
per tracked object plus a 64-byte knode structure per inode.

Candidate order (:meth:`Knode.frames`, the unit batch §4.4 migrates): the
live frames of the cache tree by fid, then those of the slab tree in oid
order, first occurrence only. Every cache-tree member is a page-allocator
object owning its frame, and ``PageAllocator.alloc_object`` draws its oid
and fid together, so fid order *is* that tree's oid order: the list is
the in-order walk of the cache tree, then the slab tree, deduplicated.
(Slab-tree members live on slab or KLOC allocator pages, which no
page-allocator object owns, so the two parts never share a frame.)
:meth:`Knode.check_invariants` checks the cache-tree premise.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Set

from repro.alloc.base import KernelObject
from repro.core.errors import SimulationError
from repro.core.objtypes import AllocatorKind
from repro.mem.frame import PageFrame

#: sizeof(struct knode) — §7.1: "64 byte KLOC structure attached to each
#: open inode".
KNODE_STRUCT_BYTES = 64
#: Per-object rb-tree pointer — §7.1: "8 byte RB-tree pointer for each
#: cache page and slab object structure".
RB_POINTER_BYTES = 8

_by_fid = attrgetter("fid")


class Knode:
    """One KLOC: all kernel objects of one file/socket inode."""

    def __init__(self, knode_id: int, ino: int, *, created_at: int = 0) -> None:
        self.knode_id = knode_id
        self.ino = ino
        #: oid → object; see the module docstring for the tree model.
        self.rbtree_cache: Dict[int, KernelObject] = {}
        self.rbtree_slab: Dict[int, KernelObject] = {}
        #: §4.3: zeroed on access, incremented by LRU scans that skip it.
        self.age = 0
        #: True while the file/socket is open (§4.1's *inuse*).
        self.inuse = False
        self.created_at = created_at
        self.last_access = created_at
        self.peak_objects = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def _tree_for(self, obj: KernelObject) -> Dict[int, KernelObject]:
        if obj.otype.allocator is AllocatorKind.SLAB and obj.allocator in ("slab", "kloc"):
            return self.rbtree_slab
        return self.rbtree_cache

    def add_obj(self, obj: KernelObject) -> None:
        """Table 2's knode_add_obj(): insert (or update) in the right
        subtree."""
        # _tree_for, inlined — one membership change per tracked object
        # alloc/free makes the dispatch call itself measurable.
        if obj.otype.allocator is AllocatorKind.SLAB and obj.allocator in (
            "slab",
            "kloc",
        ):
            self.rbtree_slab[obj.oid] = obj
        else:
            self.rbtree_cache[obj.oid] = obj
        count = len(self.rbtree_cache) + len(self.rbtree_slab)
        if count > self.peak_objects:
            self.peak_objects = count

    def remove_obj(self, obj: KernelObject) -> bool:
        if obj.otype.allocator is AllocatorKind.SLAB and obj.allocator in (
            "slab",
            "kloc",
        ):
            return self.rbtree_slab.pop(obj.oid, None) is not None
        return self.rbtree_cache.pop(obj.oid, None) is not None

    def has_obj(self, obj: KernelObject) -> bool:
        return obj.oid in self._tree_for(obj)

    @property
    def object_count(self) -> int:
        return len(self.rbtree_cache) + len(self.rbtree_slab)

    def iter_cache(self) -> Iterator[KernelObject]:
        """Table 2's itr_knode_cache(), in oid order."""
        tree = self.rbtree_cache
        return (tree[oid] for oid in sorted(tree))

    def iter_slab(self) -> Iterator[KernelObject]:
        """Table 2's itr_knode_slab(), in oid order."""
        tree = self.rbtree_slab
        return (tree[oid] for oid in sorted(tree))

    def iter_all(self) -> Iterator[KernelObject]:
        yield from self.iter_cache()
        yield from self.iter_slab()

    # ------------------------------------------------------------------
    # hotness
    # ------------------------------------------------------------------

    def touch(self, now_ns: int) -> None:
        """A member object was referenced: the KLOC is hot again."""
        self.age = 0
        self.last_access = now_ns

    def tick_age(self) -> int:
        """An LRU pass saw the knode but did not evict it (§4.3)."""
        self.age += 1
        return self.age

    def is_cold(self, cold_age: int) -> bool:
        """Definitely cold when closed; likely cold when aged (§3.2)."""
        if not self.inuse:
            return True
        return self.age >= cold_age

    # ------------------------------------------------------------------
    # migration support
    # ------------------------------------------------------------------

    def frames(
        self, tier: Optional[str] = None, limit: Optional[int] = None
    ) -> List[PageFrame]:
        """Distinct live backing frames of the members — the unit batch
        §4.4 migrates en masse — on ``tier`` (any tier if None), in the
        module docstring's candidate order, cut to ``limit`` frames.

        The daemon asks for one tier per pass and knode, and most of its
        downgrade candidates have nothing there, so the filter runs
        before anything is ordered.
        """
        out = [
            frame
            for frame in [obj.frame for obj in self.rbtree_cache.values()]
            if frame.freed_at is None and (tier is None or frame.tier_name == tier)
        ]
        out.sort(key=_by_fid)
        if limit is not None and len(out) >= limit:
            return out[:limit]
        slab = self.rbtree_slab
        seen: Set[int] = set()
        for oid in sorted(slab):
            frame = slab[oid].frame
            fid = frame.fid
            if (
                fid not in seen
                and frame.freed_at is None
                and (tier is None or frame.tier_name == tier)
            ):
                seen.add(fid)
                out.append(frame)
                if len(out) == limit:
                    break
        return out

    def check_invariants(self) -> None:
        """Cross-check the membership premises :meth:`frames` relies on.

        Every member is keyed by its own oid and sits in the tree
        :meth:`_tree_for` picks; cache-tree members are page-allocator
        objects with pairwise distinct frames, so fid order is oid order
        there and that part needs no deduplication.
        """
        for tree in (self.rbtree_cache, self.rbtree_slab):
            for oid, obj in tree.items():
                if obj.oid != oid:
                    raise SimulationError(f"{self!r}: {obj!r} keyed by oid {oid}")
                if self._tree_for(obj) is not tree:
                    raise SimulationError(f"{self!r}: {obj!r} in the wrong tree")
        fids: Set[int] = set()
        for obj in self.rbtree_cache.values():
            if obj.allocator != "page":
                raise SimulationError(
                    f"{self!r}: cache-tree {obj!r} comes from {obj.allocator!r}"
                )
            if obj.frame.fid in fids:
                raise SimulationError(
                    f"{self!r}: frame {obj.frame.fid} backs two cache-tree members"
                )
            fids.add(obj.frame.fid)

    # ------------------------------------------------------------------
    # Table 6 accounting
    # ------------------------------------------------------------------

    def metadata_bytes(self) -> int:
        return KNODE_STRUCT_BYTES + RB_POINTER_BYTES * self.object_count

    def __repr__(self) -> str:
        state = "inuse" if self.inuse else f"age={self.age}"
        return (
            f"Knode(#{self.knode_id} ino={self.ino} "
            f"cache={len(self.rbtree_cache)} slab={len(self.rbtree_slab)} {state})"
        )
