"""Scan-based LRU hotness engine — the machinery Nimble-family policies use.

§3.3's structural limit is encoded here: the scanner visits frames at a
finite rate (the paper measures one million pages ≈ 2 seconds), on a
periodic schedule. A kernel object whose lifetime is shorter than the
scan period is dead before the scanner can ever classify it — which is
exactly why Nimble++ "cannot adapt to changes in kernel object hotness
sufficiently rapidly" (§6.2) and why KLOCs short-circuit the scan.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Set, Tuple

from repro.core.config import LRUSpec
from repro.core.units import SEC
from repro.mem.frame import PageFrame, PageOwner

if TYPE_CHECKING:
    from repro.kernel.kernel import Kernel


def _by_fid(frame: PageFrame) -> int:
    return frame.fid


class LRUScanEngine:
    """Periodic page-table-style scan + two-direction migration."""

    def __init__(
        self,
        kernel: "Kernel",
        *,
        spec: Optional[LRUSpec] = None,
        owners: Optional[Set[PageOwner]] = None,
        promote_owners: Optional[Set[PageOwner]] = None,
        demote_owners: Optional[Set[PageOwner]] = None,
        fast_tier: str = "fast",
        slow_tier: str = "slow",
        promote: bool = True,
        demote: bool = True,
        migrate_batch: int = 2048,
        free_watermark_frac: float = 0.04,
    ) -> None:
        self.kernel = kernel
        self.spec = spec or LRUSpec()
        #: Which owners each direction manages (None = all). ``owners``
        #: is shorthand that sets both. KLOCs uses an asymmetric split:
        #: promotion covers kernel pages too (referenced slow pages come
        #: up at page granularity), while scan-demotion stays app-only —
        #: kernel-object downgrades go through knode events instead.
        self.promote_owners = promote_owners if promote_owners is not None else owners
        self.demote_owners = demote_owners if demote_owners is not None else owners
        self.fast_tier = fast_tier
        self.slow_tier = slow_tier
        self.promote = promote
        self.demote = demote
        self.migrate_batch = migrate_batch
        #: kswapd-style watermark: demotion only runs to keep this much of
        #: fast memory free (plus room for pending promotions) — pages are
        #: not evicted from fast memory without pressure.
        self.free_watermark_frac = free_watermark_frac
        self.scans = 0
        self.pages_scanned = 0
        self.promoted = 0
        self.demoted = 0
        self._last_scan_ns = 0
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self.kernel.clock.schedule_periodic(self.spec.scan_period_ns, self.scan)
        self._started = True

    def _promotable(self, frame: PageFrame) -> bool:
        return self.promote_owners is None or frame.owner in self.promote_owners

    def _demotable(self, frame: PageFrame) -> bool:
        return self.demote_owners is None or frame.owner in self.demote_owners

    def scan_cost_ns(self, npages: int) -> int:
        """Wall time to visit ``npages`` at the measured scan rate."""
        return int(npages / self.spec.scan_pages_per_second * SEC)

    def _collect(self) -> Tuple[List[PageFrame], List[PageFrame], int]:
        """Age residents and collect (demote, promote, visited) candidates.

        O(candidates) via the topology's resident-frame indexes. The
        decisions equal those of a walk over every live frame in fid order
        (the reference oracle in ``tests/policies/scan_oracles.py``); that
        equivalence rests on three facts:

        * a *referenced* fast-tier frame already has ``lru_age == 0``
          (``record_access`` reset it), so only unreferenced demotable
          residents can change state — age exactly those;
        * the referenced journal is a superset of the slow-tier frames the
          walk would see as referenced (accesses and allocations both
          enroll), and unreferenced slow frames only ever have their
          streak reset — done lazily via ``scan_ref_round``;
        * candidates are re-sorted by fid, restoring the walk's encounter
          order before THP expansion / truncation / the stable age sort.
        """
        topo = self.kernel.topology
        mark = self._last_scan_ns
        cold_rounds = self.spec.cold_age_rounds

        demote_candidates: List[PageFrame] = []
        if self.demote_owners is None:
            demotable = topo.resident_frames(self.fast_tier).values()
        else:
            demotable = [
                frame
                for owner in self.demote_owners
                for frame in topo.resident_frames_by_owner(
                    self.fast_tier, owner
                ).values()
            ]
        for frame in demotable:
            if frame.last_access >= mark:
                continue
            frame.lru_age += 1
            if frame.lru_age >= cold_rounds:
                demote_candidates.append(frame)
        demote_candidates.sort(key=_by_fid)

        promote_candidates: List[PageFrame] = []
        round_no = self.scans
        slow_tier = self.slow_tier
        for frame in topo.drain_referenced():
            if frame.tier_name != slow_tier or frame.last_access < mark:
                continue
            # Lazy two-touch streak: consecutive-window participation is
            # tracked by the round stamp instead of eagerly zeroing every
            # untouched slow frame each scan.
            if frame.scan_ref_round == round_no - 1:
                frame.scan_ref_streak += 1
            else:
                frame.scan_ref_streak = 1
            frame.scan_ref_round = round_no
            if (
                frame.scan_ref_streak >= 2
                and frame.relocatable
                and self._promotable(frame)
            ):
                promote_candidates.append(frame)
        promote_candidates.sort(key=_by_fid)

        # The *simulated* scan still visits every live frame (§3.3's rate
        # is the point of the model); only the host-side walk is indexed.
        return demote_candidates, promote_candidates, len(topo.frames)

    def scan(self, now_ns: int = 0) -> dict:
        """One scan round: age pages, then migrate hot/cold candidates."""
        now = now_ns or self.kernel.clock.now()
        self.scans += 1
        demote_candidates, promote_candidates, visited = self._collect()

        self.pages_scanned += visited
        # The scan itself burns a CPU at the measured rate (§3.3): charge
        # it as background work spread across the machine's cores.
        self.kernel.background_cpu_work(self.scan_cost_ns(visited))

        # THP handling: compound groups move whole-or-not-at-all, and a
        # single referenced member keeps the entire group resident.
        thp = getattr(self.kernel, "thp", None)
        if thp is not None and demote_candidates:
            demote_candidates = [
                f
                for f in thp.expand(demote_candidates)
                if f.compound_id is None
                or not thp.group_recently_referenced(
                    f.compound_id, self._last_scan_ns
                )
            ]
        if thp is not None and promote_candidates:
            promote_candidates = thp.expand(promote_candidates)

        demoted = promoted = 0
        fast = self.kernel.topology.tier(self.fast_tier)
        if self.demote and demote_candidates:
            # Demote only under pressure: enough to restore the free
            # watermark and admit this round's promotions, coldest first.
            watermark = int(fast.capacity_pages * self.free_watermark_frac)
            wanted = len(promote_candidates) if self.promote else 0
            need = min(
                max(0, watermark + wanted - fast.free_pages), self.migrate_batch
            )
            if need:
                demote_candidates.sort(key=lambda f: -f.lru_age)
                result = self.kernel.engine.migrate(
                    demote_candidates[:need], self.slow_tier, charge_time=False
                )
                self.kernel.background_cpu_work(result.cost_ns)
                demoted = result.moved
        if self.promote and promote_candidates:
            room = max(0, fast.free_pages)
            result = self.kernel.engine.migrate(
                promote_candidates[: min(room, self.migrate_batch)],
                self.fast_tier,
                charge_time=False,
            )
            self.kernel.background_cpu_work(result.cost_ns)
            promoted = result.moved
        self.promoted += promoted
        self.demoted += demoted
        self._last_scan_ns = now
        return {"scanned": visited, "demoted": demoted, "promoted": promoted}

    def __repr__(self) -> str:
        return (
            f"LRUScanEngine(scans={self.scans}, demoted={self.demoted}, "
            f"promoted={self.promoted})"
        )
