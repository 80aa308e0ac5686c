"""Memory topology: the set of tiers plus frame allocation/free/accounting.

The topology is deliberately dumb about *policy*: callers (the kernel
facade and the tiering policies) decide which tier to try first and what
to do on pressure. The topology enforces capacity, tracks every live and
retired frame, and keeps the per-(tier, owner) counters that the
motivation and evaluation figures are built from.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from repro.core.errors import AllocationError, SimulationError
from repro.core.config import TierSpec
from repro.core.hotpath import hot
from repro.core.sanitize import Sanitizer, call_site, sanitize_enabled
from repro.mem.frame import PageFrame, PageOwner
from repro.mem.tier import MemoryTier


def _by_fid(frame: PageFrame) -> int:
    return frame.fid


class MemoryTopology:
    """All memory tiers in a platform plus global frame bookkeeping.

    Besides the global ``frames`` table, the topology maintains
    **resident-frame indexes** so periodic scanners touch only their
    candidates instead of every live frame:

    * per-tier views (``resident_frames``) — fid-keyed dicts of the
      frames currently homed on one tier;
    * per-(tier, owner) views (``resident_frames_by_owner``);
    * a referenced-since-last-drain journal (``drain_referenced``), fed
      by :meth:`PageFrame.record_access` and by allocation (a fresh
      frame counts as touched, exactly as the brute-force scan's
      ``last_access >= last_scan`` predicate sees it).

    All three are updated at the three mutation points (`_make_frame`,
    `free`, `move_frame`) and cross-checked by :meth:`check_invariants`.
    """

    def __init__(
        self,
        tier_specs: Sequence[TierSpec],
        *,
        retired_limit: Optional[int] = None,
    ) -> None:
        if not tier_specs:
            raise ValueError("topology needs at least one tier")
        self.tiers: Dict[str, MemoryTier] = {}
        for spec in tier_specs:
            if spec.name in self.tiers:
                raise ValueError(f"duplicate tier name: {spec.name}")
            self.tiers[spec.name] = MemoryTier(spec)
        self._next_fid = 0
        #: The shared free-site ledger when ``REPRO_SANITIZE=1``; every
        #: allocator picks this up from the topology it is built on, and
        #: the kernel threads it into the KLOC manager — one coherent
        #: ledger per simulated machine. None when the mode is off.
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer() if sanitize_enabled() else None
        )
        self.frames: Dict[int, PageFrame] = {}
        #: Retired frames kept for lifetime analysis (Fig 2d).
        #: ``retired_limit=None`` keeps every freed frame (full-fidelity
        #: lifetime analysis); an integer keeps only the most recent N so
        #: long sweeps that never read lifetimes stay bounded.
        self.retired_limit = retired_limit
        self.retired = (
            [] if retired_limit is None else deque(maxlen=retired_limit)
        )
        # --- resident-frame indexes (see class docstring) ---
        self._tier_frames: Dict[str, Dict[int, PageFrame]] = {
            name: {} for name in self.tiers
        }
        self._tier_owner_frames: Dict[tuple, Dict[int, PageFrame]] = defaultdict(
            dict
        )
        self._referenced: Dict[int, PageFrame] = {}
        # --- counters the figures are built from ---
        #: pages ever allocated, keyed by (tier, owner)
        self.alloc_count: Dict[tuple, int] = defaultdict(int)
        #: live pages right now, keyed by (tier, owner)
        self.live_count: Dict[tuple, int] = defaultdict(int)
        #: pages migrated, keyed by (src_tier, dst_tier, owner)
        self.migration_count: Dict[tuple, int] = defaultdict(int)

    # ------------------------------------------------------------------
    # allocation / free
    # ------------------------------------------------------------------

    def allocate(
        self,
        npages: int,
        tier_order: Sequence[str],
        owner: PageOwner,
        *,
        node_id: int = 0,
        obj_type: Optional[str] = None,
        knode_id: Optional[int] = None,
        relocatable: bool = True,
        now_ns: int = 0,
    ) -> List[PageFrame]:
        """Allocate ``npages`` frames, trying tiers in ``tier_order``.

        A single allocation may span tiers (the first tier takes what it
        can, the rest spills to the next), mirroring a kernel falling back
        across zones. Raises :class:`AllocationError` if the order is
        exhausted — the kernel layer is expected to reclaim and retry.
        """
        if npages <= 0:
            raise ValueError(f"allocation must be positive: {npages}")
        if npages == 1:
            # Single page (the per-object common case): first tier with a
            # free page wins — no partial-placement machinery needed.
            tiers = self.tiers
            for tier_name in tier_order:
                tier = tiers.get(tier_name)
                if tier is None:
                    raise SimulationError(f"unknown tier: {tier_name!r}")
                if tier.used_pages < tier.capacity_pages:
                    return [
                        self._make_frame(
                            tier,
                            owner,
                            node_id=node_id,
                            obj_type=obj_type,
                            knode_id=knode_id,
                            relocatable=relocatable,
                            now_ns=now_ns,
                        )
                    ]
            raise AllocationError(
                f"cannot place 1 page (short 1) in tiers {list(tier_order)}"
            )
        placed: List[PageFrame] = []
        remaining = npages
        for tier_name in tier_order:
            tier = self._tier(tier_name)
            take = min(remaining, tier.free_pages)
            for _ in range(take):
                placed.append(
                    self._make_frame(
                        tier,
                        owner,
                        node_id=node_id,
                        obj_type=obj_type,
                        knode_id=knode_id,
                        relocatable=relocatable,
                        now_ns=now_ns,
                    )
                )
            remaining -= take
            if remaining == 0:
                return placed
        # Roll back the partial placement so failed allocations are atomic.
        for frame in placed:
            self.free(frame, now_ns=now_ns, retire=False)
            self.frames.pop(frame.fid, None)
        raise AllocationError(
            f"cannot place {npages} pages (short {remaining}) in tiers {list(tier_order)}"
        )

    def try_allocate(
        self, npages: int, tier_order: Sequence[str], owner: PageOwner, **kwargs
    ) -> Optional[List[PageFrame]]:
        """Like :meth:`allocate` but returns None instead of raising."""
        try:
            return self.allocate(npages, tier_order, owner, **kwargs)
        except AllocationError:
            return None

    @hot
    def _make_frame(
        self,
        tier: MemoryTier,
        owner: PageOwner,
        *,
        node_id: int,
        obj_type: Optional[str],
        knode_id: Optional[int],
        relocatable: bool,
        now_ns: int,
    ) -> PageFrame:
        # tier.reserve(1), inlined — every caller has already checked
        # capacity, so the over-commit guard cannot trip here.
        used = tier.used_pages + 1
        tier.used_pages = used
        tier.total_allocs += 1
        if used > tier.peak_pages:
            tier.peak_pages = used
        fid = self._next_fid
        self._next_fid += 1
        frame = PageFrame(
            fid,
            tier.name,
            owner,
            node_id=node_id,
            obj_type=obj_type,
            knode_id=knode_id,
            relocatable=relocatable,
            allocated_at=now_ns,
        )
        tname = tier.name
        key = (tname, owner)
        self.frames[fid] = frame
        self._tier_frames[tname][fid] = frame
        self._tier_owner_frames[key][fid] = frame
        # Allocation counts as a touch: the brute-force scan's predicate
        # (last_access >= last_scan, with last_access = allocated_at)
        # sees a freshly allocated frame as referenced.
        frame.journal = self._referenced
        self._referenced[fid] = frame
        self.alloc_count[key] += 1
        self.live_count[key] += 1
        return frame

    @hot
    def free(self, frame: PageFrame, *, now_ns: int, retire: bool = True) -> None:
        """Release a frame back to its tier.

        ``retire=True`` stores the dead frame for lifetime analysis
        (Fig 2d); internal rollbacks pass ``retire=False``.
        """
        san = self.sanitizer
        if san is not None:
            san.on_frame_free(frame, site=call_site(2))
        if not frame.live:
            raise SimulationError(f"double free of frame {frame.fid}")
        tname = frame.tier_name
        tier = self._tier(tname)
        # tier.release(1), inlined — a live frame always holds one
        # reservation, so the underflow guard cannot trip here.
        tier.used_pages -= 1
        tier.total_frees += 1
        frame.freed_at = now_ns
        key = (tname, frame.owner)
        self.live_count[key] -= 1
        fid = frame.fid
        del self.frames[fid]
        del self._tier_frames[tname][fid]
        del self._tier_owner_frames[key][fid]
        self._referenced.pop(fid, None)
        frame.journal = None
        if retire:
            self.retired.append(frame)

    def free_all(self, frames: Iterable[PageFrame], *, now_ns: int) -> None:
        for frame in list(frames):
            if frame.live:
                self.free(frame, now_ns=now_ns)

    # ------------------------------------------------------------------
    # migration accounting (the MigrationEngine drives this)
    # ------------------------------------------------------------------

    def move_frame(self, frame: PageFrame, dst_tier_name: str) -> None:
        """Re-home a live frame onto another tier (capacity-checked)."""
        if not frame.live:
            raise SimulationError(f"cannot move freed frame {frame.fid}")
        if frame.tier_name == dst_tier_name:
            return
        src = self._tier(frame.tier_name)
        dst = self._tier(dst_tier_name)
        if not dst.has_room(1):
            raise SimulationError(f"tier {dst_tier_name} full; migrate-evict first")
        src.release(1)
        dst.reserve(1)
        self.live_count[(src.name, frame.owner)] -= 1
        self.live_count[(dst.name, frame.owner)] += 1
        self.migration_count[(src.name, dst.name, frame.owner)] += 1
        fid = frame.fid
        del self._tier_frames[src.name][fid]
        del self._tier_owner_frames[(src.name, frame.owner)][fid]
        self._tier_frames[dst.name][fid] = frame
        self._tier_owner_frames[(dst.name, frame.owner)][fid] = frame
        frame.tier_name = dst_tier_name
        # Hotness state is per-residency: a just-promoted page must earn
        # its demotion age on the new tier from zero (and vice versa), not
        # inherit a stale streak/age from where it used to live.
        frame.lru_age = 0
        frame.scan_ref_streak = 0
        frame.record_migration()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def _tier(self, name: str) -> MemoryTier:
        try:
            return self.tiers[name]
        except KeyError:
            raise SimulationError(f"unknown tier: {name!r}") from None

    def tier(self, name: str) -> MemoryTier:
        """Public tier lookup."""
        return self._tier(name)

    def live_pages(self, tier_name: Optional[str] = None) -> int:
        if tier_name is None:
            return len(self.frames)
        return self.tiers[tier_name].used_pages

    def kernel_pages_in(self, tier_name: str) -> int:
        """Live kernel-object pages on one tier (everything but APP)."""
        return sum(
            count
            for (tier, owner), count in self.live_count.items()
            if tier == tier_name and owner.is_kernel
        )

    def live_pages_by_owner(self, owner: PageOwner) -> int:
        return sum(
            count for (tier, own), count in self.live_count.items() if own is owner
        )

    def allocated_pages_by_owner(self, owner: PageOwner) -> int:
        return sum(
            count for (tier, own), count in self.alloc_count.items() if own is owner
        )

    def total_allocated_pages(self) -> int:
        return sum(self.alloc_count.values())

    def migrations_between(self, src: str, dst: str) -> int:
        return sum(
            count
            for (s, d, _own), count in self.migration_count.items()
            if s == src and d == dst
        )

    def resident_frames(self, tier_name: str) -> Dict[int, PageFrame]:
        """The live frames homed on one tier, as a fid-keyed view.

        Insertion-ordered (allocation order, with migrated-in frames
        appended); callers that need the brute-force walk's fid order
        must sort — see :meth:`live_frames_in`.
        """
        self._tier(tier_name)  # raise on unknown tiers, like every query
        return self._tier_frames[tier_name]

    def resident_frames_by_owner(
        self, tier_name: str, owner: PageOwner
    ) -> Dict[int, PageFrame]:
        """Per-(tier, owner) resident view (same ordering caveat)."""
        self._tier(tier_name)
        return self._tier_owner_frames[(tier_name, owner)]

    def iter_frames_by_owner(self, owner: PageOwner) -> Iterator[PageFrame]:
        """All live frames of one owner, across every tier."""
        for tier_name in self.tiers:
            yield from self._tier_owner_frames[(tier_name, owner)].values()

    def drain_referenced(self) -> List[PageFrame]:
        """Frames touched (accessed or allocated) since the last drain.

        Clears the journal in place — the scan that drains it owns the
        window. Only live frames appear (frees drop their entry).
        """
        referenced = list(self._referenced.values())
        self._referenced.clear()
        return referenced

    def live_frames_in(self, tier_name: str) -> List[PageFrame]:
        """Live frames on a tier in fid order (the order the old global
        frame walk produced; scan-based policies' *modeled* cost is
        charged separately via the LRU engine)."""
        return sorted(self.resident_frames(tier_name).values(), key=_by_fid)

    def check_invariants(self) -> None:
        """Cross-check counters against the frame table (used by tests)."""
        per_tier: Dict[str, int] = defaultdict(int)
        for frame in self.frames.values():
            per_tier[frame.tier_name] += 1
        for name, tier in self.tiers.items():
            if per_tier[name] != tier.used_pages:
                raise SimulationError(
                    f"tier {name}: frame table has {per_tier[name]} frames, "
                    f"counter says {tier.used_pages}"
                )
        live_total = sum(self.live_count.values())
        if live_total != len(self.frames):
            raise SimulationError(
                f"live_count sum {live_total} != frame table {len(self.frames)}"
            )
        # The resident indexes must agree with the frame table exactly.
        index_total = 0
        for name, view in self._tier_frames.items():
            index_total += len(view)
            for fid, frame in view.items():
                if frame.tier_name != name or self.frames.get(fid) is not frame:
                    raise SimulationError(
                        f"tier index {name} out of sync for frame {fid}"
                    )
        if index_total != len(self.frames):
            raise SimulationError(
                f"tier indexes hold {index_total} frames, table {len(self.frames)}"
            )
        owner_total = 0
        for (tier_name, owner), view in self._tier_owner_frames.items():
            owner_total += len(view)
            for fid, frame in view.items():
                if (
                    frame.tier_name != tier_name
                    or frame.owner is not owner
                    or self.frames.get(fid) is not frame
                ):
                    raise SimulationError(
                        f"(tier, owner) index ({tier_name}, {owner}) out of "
                        f"sync for frame {fid}"
                    )
            if len(view) != self.live_count[(tier_name, owner)]:
                raise SimulationError(
                    f"(tier, owner) index ({tier_name}, {owner}) has "
                    f"{len(view)} frames, live_count says "
                    f"{self.live_count[(tier_name, owner)]}"
                )
        if owner_total != len(self.frames):
            raise SimulationError(
                f"(tier, owner) indexes hold {owner_total} frames, "
                f"table {len(self.frames)}"
            )
        for fid, frame in self._referenced.items():
            if not frame.live or self.frames.get(fid) is not frame:
                raise SimulationError(
                    f"referenced journal holds dead/unknown frame {fid}"
                )

    def __repr__(self) -> str:
        tiers = ", ".join(
            f"{t.name}:{t.used_pages}/{t.capacity_pages}" for t in self.tiers.values()
        )
        return f"MemoryTopology({tiers})"
