"""Optane Memory-Mode policies: AutoNUMA and friends (Table 5, Fig 5a).

The platform is two NUMA sockets, each a DRAM-cache-fronted PMEM node.
The experiment (§6.2): the workload starts on node 0; a streaming
co-runner then contends for node 0's bandwidth, and the scheduler moves
the task to node 1. What happens next distinguishes the policies:

* **AutoNUMA** migrates application pages toward the task's new socket
  ("vanilla AutoNUMA migrates application pages, kernel object pages are
  ignored").
* **Nimble** does the same with parallel page copy (bigger batches).
* **KLOCs** additionally migrates the kernel objects of active knodes,
  found via the kmap and per-CPU lists (§4.5).
* **All-local / all-remote** are the bounds Fig 5a normalizes against.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.units import MS
from repro.mem.frame import PageFrame, PageOwner
from repro.policies.base import TieringPolicy


def _by_fid(frame: PageFrame) -> int:
    return frame.fid

#: AutoNUMA's default scan/migrate cadence (time-compressed alongside the
#: LRU engine; see two_tier_platform_spec's discussion).
NUMA_SCAN_PERIOD_NS = 4 * MS
#: Pages AutoNUMA moves per wakeup (fault-driven, one at a time-ish).
AUTONUMA_BATCH = 256
#: Nimble's parallelized copy moves larger batches per wakeup.
NIMBLE_BATCH = 1024


class NumaPolicyBase(TieringPolicy):
    """Shared plumbing for node-preference policies."""

    numa_mode = True
    #: Which owners the periodic migrator moves (None = nothing).
    migrate_owners: Optional[set] = None
    batch = AUTONUMA_BATCH

    def __init__(self) -> None:
        super().__init__()
        self.migrated_app = 0
        self.migrated_kernel = 0
        self._started = False
        #: Allocation order per home node, built once and indexed by
        #: ``preferred_node()`` on every allocation. Shared and read-only.
        self._orders = self._placement_orders()

    def node_tier(self, node: int) -> str:
        return f"node{node}"

    def preferred_node(self) -> int:
        return self.kernel.task_node

    def _placement_orders(self) -> Tuple[Tuple[str, str], ...]:
        """Home socket first, then the other one, for home = 0 and 1."""
        return tuple(
            (self.node_tier(home), self.node_tier(1 - home)) for home in (0, 1)
        )

    def tier_order_app(self, *, cpu: int = 0) -> Sequence[str]:
        return self._orders[self.preferred_node()]

    def tier_order_kernel(
        self, otype, inode, *, covered: bool, cpu: int = 0
    ) -> Sequence[str]:
        # Modern OSes allocate kernel objects on the allocating CPU's
        # socket (§3.3) — which is the task's current socket here.
        return self._orders[self.preferred_node()]

    def start_daemons(self) -> None:
        if self._started or self.migrate_owners is None:
            return
        self.kernel.clock.schedule_periodic(NUMA_SCAN_PERIOD_NS, self._scan)
        self._started = True

    def _candidates(self, home_tier: str) -> List[PageFrame]:
        """The misplaced frames one wakeup moves: relocatable frames of
        the managed owners away from ``home_tier``, lowest fid first, at
        most ``batch`` of them.

        Only away-from-home residents can be misplaced, so the per-(tier,
        owner) resident indexes hold every candidate; the fid sort gives
        the order of a walk over the whole frame table (the reference
        oracle in ``tests/policies/scan_oracles.py``) before the cut.
        """
        topo = self.kernel.topology
        candidates: List[PageFrame] = []
        for tier_name in topo.tiers:
            if tier_name == home_tier:
                continue
            for owner in self.migrate_owners:
                candidates.extend(
                    frame
                    for frame in topo.resident_frames_by_owner(
                        tier_name, owner
                    ).values()
                    if frame.relocatable
                )
        candidates.sort(key=_by_fid)
        del candidates[self.batch :]
        return candidates

    def _scan(self, now_ns: int = 0) -> None:
        """Move misplaced frames toward the task's socket, batch-limited."""
        home_tier = self.node_tier(self.preferred_node())
        candidates = self._candidates(home_tier)
        if not candidates:
            return
        result = self.kernel.engine.migrate(candidates, home_tier, charge_time=False)
        self.kernel.background_cpu_work(result.cost_ns)
        for frame in result.frames:
            frame.node_id = self.preferred_node()
            if frame.owner is PageOwner.APP:
                self.migrated_app += 1
            else:
                self.migrated_kernel += 1


class NumaAllRemote(NumaPolicyBase):
    """Worst case: every access crosses the interconnect (Fig 5a's
    normalization baseline)."""

    name = "all_remote"

    def _placement_orders(self) -> Tuple[Tuple[str, str], ...]:
        """The socket away from home first, for home = 0 and 1."""
        return tuple(
            (self.node_tier(1 - home), self.node_tier(home)) for home in (0, 1)
        )


class NumaAllLocal(NumaPolicyBase):
    """Ideal: data follows the task instantly and freely (Fig 5a's 1.6x).

    The bound is generous on every axis, so it also gets the driver-level
    socket demux that KLOCs otherwise uniquely enable."""

    name = "all_local"
    early_demux = True

    def _away_frames(self, home_tier: str) -> List[PageFrame]:
        """Every live frame off ``home_tier``, in fid order."""
        topo = self.kernel.topology
        away = [
            frame
            for tier_name in topo.tiers
            if tier_name != home_tier
            for frame in topo.resident_frames(tier_name).values()
        ]
        away.sort(key=_by_fid)
        return away

    def on_task_moved(self) -> None:
        """Teleport everything to the new home node, free of charge."""
        topo = self.kernel.topology
        home_tier = self.node_tier(self.preferred_node())
        dst = topo.tier(home_tier)
        for frame in self._away_frames(home_tier):
            if not dst.has_room(1):
                break
            topo.move_frame(frame, home_tier)
            frame.node_id = self.preferred_node()


class AutoNumaPolicy(NumaPolicyBase):
    """Vanilla AutoNUMA: application pages follow the task; kernel objects
    stay stranded on the old socket."""

    name = "autonuma"
    migrate_owners = {PageOwner.APP}
    batch = AUTONUMA_BATCH


class NumaNimblePolicy(NumaPolicyBase):
    """Nimble on Optane: same app-only coverage, parallel-copy batches."""

    name = "nimble"
    migrate_owners = {PageOwner.APP}
    batch = NIMBLE_BATCH


class NumaKlocsPolicy(NumaPolicyBase):
    """AutoNUMA + KLOCs: kernel objects of active KLOCs migrate too (§4.5:
    "for all active KLOCs currently in use by an application, we identify
    related kernel objects and check if their pages are placed in local
    memory ... and subsequently migrate kernel objects that are remote")."""

    name = "klocs"
    uses_kloc = True
    uses_kloc_interface = True
    migrates_kernel_objects = True
    migrate_owners = {PageOwner.APP}
    batch = NIMBLE_BATCH

    def _scan(self, now_ns: int = 0) -> None:
        super()._scan(now_ns)
        manager = self.kernel.kloc_manager
        if manager is None:
            return
        home_tier = self.node_tier(self.preferred_node())
        moved = 0
        for knode in manager.kmap.all_knodes():
            if moved >= self.batch:
                break
            if not knode.inuse:
                continue
            remote = [
                f
                for f in self.kernel.kloc_daemon.knode_frames(knode)
                if f.tier_name != home_tier
            ]
            if not remote:
                continue
            result = self.kernel.engine.migrate(
                remote[: self.batch - moved], home_tier, charge_time=False
            )
            for frame in result.frames:
                frame.node_id = self.preferred_node()
            moved += result.moved
            self.migrated_kernel += result.moved
