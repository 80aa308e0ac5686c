"""The Kernel: the one real implementation of the KernelContext protocol.

A :class:`Kernel` is a complete simulated OS instance: memory topology,
the four allocator families, the migration engine, the ext4-like
filesystem, the network stack, the KLOC machinery (when the policy uses
it), and the metric counters every experiment reads. The active
:class:`~repro.policies.base.TieringPolicy` decides placement; the kernel
mechanically executes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.alloc.base import KernelObject
from repro.alloc.buddy import PageAllocator
from repro.alloc.kloc_alloc import KlocAllocator
from repro.alloc.slab import SlabAllocator
from repro.alloc.vmalloc import VmallocAllocator
from repro.core.clock import Clock
from repro.core.config import PlatformSpec
from repro.core.errors import AllocationError, SimulationError
from repro.core.hotpath import hot
from repro.core.objtypes import AllocatorKind, KernelObjectType
from repro.core.rng import DeterministicRNG
from repro.core.units import PAGE_SIZE
from repro.kernel.cpu import CpuSet
from repro.kloc.manager import KlocManager
from repro.kloc.migrationd import KlocMigrationDaemon
from repro.kloc.registry import KlocRegistry
from repro.mem.frame import PageFrame, PageOwner
from repro.mem.hwcache import HardwareDRAMCache
from repro.mem.migration import MigrationEngine
from repro.mem.node import NumaNode
from repro.mem.thp import CompoundRegistry
from repro.mem.topology import MemoryTopology
from repro.net.stack import NetworkStack
from repro.vfs.filesystem import Filesystem
from repro.vfs.inode import Inode
from repro.vfs.storage import NVMeDevice
from repro.vfs.writeback import WritebackDaemon

#: Hoisted enum member: the charge hot path tests page ownership once per
#: reference, and ``PageOwner.APP`` is two attribute loads per test.
_OWNER_APP = PageOwner.APP


class Kernel:
    """One simulated OS instance under one tiering policy."""

    def __init__(
        self,
        platform: PlatformSpec,
        policy,
        *,
        registry: Optional[KlocRegistry] = None,
        seed: int = 42,
        page_cache_max_pages: Optional[int] = None,
        readahead_enabled: bool = True,
        retired_limit: Optional[int] = None,
    ) -> None:
        self.platform = platform
        self.policy = policy
        self.clock = Clock()
        self.rng = DeterministicRNG(seed)
        self.num_cpus = platform.num_cpus
        self.cpus = CpuSet(platform.num_cpus)

        self.topology = MemoryTopology(
            [platform.fast, platform.slow], retired_limit=retired_limit
        )
        # Direct name → tier map for the access hot path (skips the
        # topology's checked lookup on every charged reference).
        self._tiers = self.topology.tiers
        #: The machine's shared sanitizer ledger (None unless
        #: ``REPRO_SANITIZE=1`` was set when the topology was built).
        self._san = self.topology.sanitizer
        self.engine = MigrationEngine(self.topology, self.clock, platform.migration)
        self.storage = NVMeDevice(platform.storage)
        self.thp = CompoundRegistry()

        self.slab = SlabAllocator(self.topology, self.clock)
        self.kloc_alloc = KlocAllocator(self.topology, self.clock)
        self.page_alloc = PageAllocator(self.topology, self.clock)
        self.vmalloc = VmallocAllocator(self.topology, self.clock)

        # NUMA (Optane Memory Mode) wiring: each tier is a socket with an
        # optional hardware DRAM cache in front.
        self.numa_mode = bool(getattr(policy, "numa_mode", False))
        self.task_node = 0
        self.nodes: Dict[str, NumaNode] = {}
        if self.numa_mode:
            for node_id, spec in enumerate([platform.fast, platform.slow]):
                cache = (
                    HardwareDRAMCache(platform.hw_cache_bytes)
                    if platform.hw_cache_bytes
                    else None
                )
                self.nodes[spec.name] = NumaNode(
                    node_id, self.topology.tier(spec.name), cache
                )

        # KLOC machinery (only when the policy asks for it).
        self.kloc_registry = registry if registry is not None else KlocRegistry()
        self.kloc_manager: Optional[KlocManager] = None
        self.kloc_daemon: Optional[KlocMigrationDaemon] = None
        if policy.uses_kloc:
            self.kloc_manager = KlocManager(
                self.clock,
                num_cpus=platform.num_cpus,
                registry=self.kloc_registry,
                spec=platform.kloc,
                sanitizer=self._san,
            )
            self.kloc_daemon = KlocMigrationDaemon(
                self.kloc_manager,
                self.engine,
                self.topology,
                fast_tier=platform.fast.name,
                slow_tier=platform.slow.name,
                kloc_allocator=self.kloc_alloc,
                spec=platform.kloc,
                background_charge=self.background_cpu_work,
            )
            self.kloc_manager.on_knode_inactive = policy.on_knode_inactive
            self.kloc_manager.on_knode_active = policy.on_knode_active
            self.kloc_manager.on_knode_deleted = self._on_knode_deleted
        #: Live reference to the registry's coverage set when KLOC
        #: tracking is on — the alloc path's ``covered`` test is a plain
        #: membership check instead of two attribute loads and a method
        #: call per allocation. Empty when the policy has no manager.
        self._covered_types = (
            self.kloc_registry._covered  # noqa: SLF001 - live reference
            if self.kloc_manager is not None
            else frozenset()
        )
        #: Bound hotness hook for the flat reference path (None when the
        #: policy runs without KLOC tracking).
        self._note_access = (
            self.kloc_manager.note_access if self.kloc_manager is not None else None
        )

        #: Per-node cost hook for :meth:`_charge`: in NUMA mode each access
        #: is priced by ``NumaNode.access_cost_ns`` (hardware DRAM cache
        #: probe, PMEM miss cost, interconnect premium); None on two-tier
        #: platforms, where ``_charge`` inlines the tier cost.
        self._numa_nodes: Optional[Dict[str, NumaNode]] = (
            self.nodes if self.numa_mode else None
        )

        # Metric counters (Fig 2c's reference attribution).
        self.kernel_refs = 0
        self.kernel_ref_bytes = 0
        self.app_refs = 0
        self.app_ref_bytes = 0
        self.refs_by_owner: Dict[PageOwner, int] = {o: 0 for o in PageOwner}
        # Reference attribution storage: nested counters preallocated for
        # every tier × owner pair, so the charge path is ``d[k] += v`` with
        # no tuple allocation or ``.get()``. ``refs_by_tier`` and
        # ``access_ns_by`` are properties that materialize the tuple-keyed
        # dicts for reporting. The sanitizer's use-after-free diagnostics
        # are built only on the raise branches, so a live access pays
        # nothing for it.
        tier_names = [platform.fast.name, platform.slow.name]
        #: tier → [app_refs, kernel_refs]; indexed by ``owner is not APP``.
        self._refs_by_tier_n: Dict[str, List[int]] = {
            t: [0, 0] for t in tier_names
        }
        #: owner → tier → [cumulative ns, access count]. The count decides
        #: which keys the materialized dict contains: a zero-cost access
        #: must still create its key.
        self._access_ns_n: Dict[PageOwner, Dict[str, List[int]]] = {
            o: {t: [0, 0] for t in tier_names} for o in PageOwner
        }
        self.storage_ns_total = 0
        self.background_ns_total = 0
        #: Optional tracepoint sink (repro.core.trace.Tracer); costs one
        #: None-check per event when unset.
        self.tracer = None

        # Subsystems.
        if page_cache_max_pages is None:
            # Tight enough that steady-state workloads see continual page
            # cache reclaim — the churn that recycles cold (including
            # fast-tier-stranded) pages and bounds cache-page lifetimes.
            total = platform.fast.capacity_pages + platform.slow.capacity_pages
            page_cache_max_pages = max(64, int(total * 0.4))
        self.fs = Filesystem(
            self,
            page_cache_max_pages=page_cache_max_pages,
            readahead_enabled=readahead_enabled,
        )
        demux = policy.early_demux if policy.early_demux is not None else policy.uses_kloc
        self.net = NetworkStack(self, early_demux=demux)
        self.writeback = WritebackDaemon(
            self.fs, period_ns=platform.writeback_period_ns
        )

        policy.attach(self)

    def start(self) -> None:
        """Start background daemons (writeback + policy scanners)."""
        self.writeback.start()
        self.policy.start_daemons()

    # ------------------------------------------------------------------
    # KernelContext: kernel-object lifecycle
    # ------------------------------------------------------------------

    def alloc_object(
        self,
        otype: KernelObjectType,
        inode: Optional[Inode] = None,
        *,
        cpu: int = 0,
    ) -> KernelObject:
        covered = otype in self._covered_types
        tier_order = self.policy.tier_order_kernel(
            otype, inode, covered=covered, cpu=cpu
        )
        knode_id = inode.knode_id if (inode is not None and covered) else None

        # Allocator routing, inlined:
        if otype.allocator is AllocatorKind.SLAB:
            if covered and self.policy.uses_kloc_interface:
                # §4.4: redirected sites get relocatable, knode-grouped pages.
                allocator = self.kloc_alloc.alloc
            else:
                allocator = self.slab.alloc
        else:
            allocator = self.page_alloc.alloc_object
        try:
            obj = allocator(otype, tier_order, knode_id=knode_id)
        except AllocationError:
            # Memory pressure: shrink the page cache, then retry once.
            self._emergency_reclaim(cpu=cpu)
            obj = allocator(otype, tier_order, knode_id=knode_id)

        if self.numa_mode:
            self._fix_node_id(obj.frame)
        if covered and inode is not None:
            self.kloc_manager.add_object(inode, obj, cpu=cpu)
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now(),
                "alloc",
                obj.otype.name,
                allocator=obj.allocator,
                tier=obj.frame.tier_name,
                knode=obj.knode_id,
            )
        return obj

    def free_object(
        self, obj: KernelObject, *, cpu: int = 0, now_ns: Optional[int] = None
    ) -> Optional[int]:
        """Free a kernel object.

        ``now_ns`` is the deferred-advance variant used by
        :class:`AccessBatch`: the free executes at that virtual time and
        the allocator's (constant) CPU cost is *returned* instead of
        advanced — the batch owns the coalesced advance. Plain calls
        (``now_ns=None``) advance the clock inside the allocator.
        """
        if now_ns is None:
            if self.tracer is not None:
                self.tracer.emit(
                    self.clock.now(),
                    "free",
                    obj.otype.name,
                    lifetime_ns=obj.lifetime_ns(self.clock.now()),
                )
            if self.kloc_manager is not None and obj.knode_id is not None:
                self.kloc_manager.remove_object(obj, cpu=cpu)
            if obj.allocator == "slab":
                self.slab.free(obj)
            elif obj.allocator == "kloc":
                self.kloc_alloc.free(obj)
            else:
                self.page_alloc.free_object(obj)
            return None
        # Deferred variant (AccessBatch): the free happens at ``now_ns``,
        # the virtual time a per-access loop would read from the clock.
        if self.tracer is not None:
            self.tracer.emit(
                now_ns, "free", obj.otype.name, lifetime_ns=obj.lifetime_ns(now_ns)
            )
        if self.kloc_manager is not None and obj.knode_id is not None:
            self.kloc_manager.remove_object(obj, cpu=cpu)
        if obj.allocator == "slab":
            return self.slab.free(obj, now_ns=now_ns)
        if obj.allocator == "kloc":
            return self.kloc_alloc.free(obj, now_ns=now_ns)
        return self.page_alloc.free_object(obj, now_ns=now_ns)

    # ------------------------------------------------------------------
    # KernelContext: references
    # ------------------------------------------------------------------

    @hot
    def _charge(self, frame: PageFrame, nbytes: int, write: bool, t: int) -> int:
        """Price one access to ``frame`` and record it at virtual time ``t``.

        The single charge primitive every access site goes through: the
        tier cost (or, in NUMA mode, the ``NumaNode.access_cost_ns`` hook:
        hardware DRAM cache probe, PMEM miss cost, interconnect premium),
        the tier byte counters, the per-tier / per-owner reference and
        access-time attribution, and the frame's access record stamped
        with ``t``. It does not advance the clock: callers either advance
        it at once or defer the advance inside a batching window, which
        is why the timestamp is explicit.
        """
        tier_name = frame.tier_name
        owner = frame.owner
        nodes = self._numa_nodes
        if nodes is not None:
            cost = nodes[tier_name].access_cost_ns(
                frame.fid, nbytes, write=write, from_node=self.task_node
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
        self.refs_by_owner[owner] += 1
        # frame.record_access(t, write=write), inlined:
        frame.last_access = t
        frame.lru_age = 0
        journal = frame.journal
        if journal is not None:
            journal[frame.fid] = frame
        if write:
            frame.writes += 1
            frame.dirty = True
        else:
            frame.reads += 1
        return cost

    @hot
    def access_object(
        self,
        obj: KernelObject,
        nbytes: Optional[int] = None,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        if obj.freed_at is not None:
            if self._san is not None:
                raise self._san.dead_object_error(obj)
            raise SimulationError(f"access to freed object {obj!r}")
        size = nbytes if nbytes is not None else obj.otype.size_bytes
        clock = self.clock
        cost = self._charge(obj.frame, size, write, clock._now)  # noqa: SLF001
        # clock.advance(cost), inlined (cost >= 0 by construction):
        clock._now = now = clock._now + cost  # noqa: SLF001
        if now >= clock._next_deadline:  # noqa: SLF001
            clock._fire_due()  # noqa: SLF001
        self.kernel_refs += 1
        self.kernel_ref_bytes += size
        note_access = self._note_access
        if note_access is not None and obj.knode_id is not None:
            note_access(obj, cpu=cpu)
        return cost

    @hot
    def access_frame(
        self, frame: PageFrame, nbytes: int, *, write: bool = False, cpu: int = 0
    ) -> int:
        if frame.freed_at is not None:
            if self._san is not None:
                raise self._san.dead_frame_error(frame)
            raise SimulationError(f"access to freed frame {frame!r}")
        clock = self.clock
        cost = self._charge(frame, nbytes, write, clock._now)  # noqa: SLF001
        # clock.advance(cost), inlined (cost >= 0 by construction):
        clock._now = now = clock._now + cost  # noqa: SLF001
        if now >= clock._next_deadline:  # noqa: SLF001
            clock._fire_due()  # noqa: SLF001
        if frame.owner is _OWNER_APP:
            self.app_refs += 1
            self.app_ref_bytes += nbytes
        else:
            self.kernel_refs += 1
            self.kernel_ref_bytes += nbytes
        return cost

    @hot
    def access_frames(
        self,
        frames: Sequence[PageFrame],
        nbytes: int,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        """Charge a run of frames, batching the clock advances.

        Chunks ``nbytes`` across ``frames`` in order (PAGE_SIZE per frame,
        the remainder on the last) — the shape of :meth:`Process.touch`'s
        loop. Every frame is charged by :meth:`_charge` in run order at its
        exact per-access virtual time; only ``Clock.advance`` is deferred
        and coalesced. An access is deferred only while
        ``now + pending + cost < clock.next_deadline_ns`` — no daemon can
        fire inside that span, so the single flush advance is
        indistinguishable from per-frame advances. An access that would
        cross the deadline flushes the pending time (still strictly before
        the deadline, so nothing fires early) and is charged with a real
        per-frame advance, which fires daemons exactly when a per-frame
        loop would. Batching reorders no access, so the stateful NUMA cost
        hook (the hardware DRAM cache's LRU, the per-node local/remote
        counters) sees exactly the per-frame sequence.
        """
        clock = self.clock
        start = clock._now  # noqa: SLF001 - hot-path read
        deadline = clock._next_deadline  # noqa: SLF001 - hot-path read
        pending = 0
        total = 0
        app_refs = 0
        app_bytes = 0
        kern_refs = 0
        kern_bytes = 0
        remaining = nbytes
        for frame in frames:
            if remaining <= 0:
                break
            chunk = PAGE_SIZE if remaining >= PAGE_SIZE else remaining
            remaining -= chunk
            if frame.freed_at is not None:
                if self._san is not None:
                    raise self._san.dead_frame_error(frame)
                raise SimulationError(f"access to freed frame {frame!r}")
            t = start + pending
            cost = self._charge(frame, chunk, write, t)
            if t + cost < deadline:
                pending += cost
            else:
                # Flush the deferred span (it lands strictly before the
                # deadline), then advance for real: daemons fire exactly
                # as in the per-frame loop; rebase on the post-firing clock.
                if pending:
                    clock.advance(pending)
                    pending = 0
                clock.advance(cost)
                start = clock._now  # noqa: SLF001
                deadline = clock._next_deadline  # noqa: SLF001
            total += cost
            if frame.owner is _OWNER_APP:
                app_refs += 1
                app_bytes += chunk
            else:
                kern_refs += 1
                kern_bytes += chunk
        if pending:
            clock.advance(pending)
        self.app_refs += app_refs
        self.app_ref_bytes += app_bytes
        self.kernel_refs += kern_refs
        self.kernel_ref_bytes += kern_bytes
        return total

    def begin_access_batch(self) -> "AccessBatch":
        """Open a deferred-advance charging window (see :class:`AccessBatch`).

        Available in every mode, traced or not: tracepoints emitted inside
        the window carry the exact per-access virtual time."""
        return AccessBatch(self)

    # ------------------------------------------------------------------
    # KernelContext: application memory
    # ------------------------------------------------------------------

    def alloc_app_pages(
        self, npages: int, *, cpu: int = 0, huge: bool = False
    ) -> List[PageFrame]:
        """Anonymous application pages; ``huge=True`` backs the region
        with transparent huge pages (512-page compound groups, §5)."""
        order = self.policy.tier_order_app(cpu=cpu)
        try:
            frames = self.page_alloc.alloc_frames(npages, order, PageOwner.APP)
        except AllocationError:
            self._emergency_reclaim(cpu=cpu)
            frames = self.page_alloc.alloc_frames(npages, order, PageOwner.APP)
        for frame in frames:
            self._fix_node_id(frame)
        if huge:
            self.thp.make_compounds(frames)
        return frames

    def free_app_pages(self, frames: List[PageFrame]) -> None:
        live = [f for f in frames if f.live]
        self.thp.drop(live)
        self.page_alloc.free_frames(live)

    # ------------------------------------------------------------------
    # KernelContext: storage + background work
    # ------------------------------------------------------------------

    def storage_io(
        self, nbytes: int, *, write: bool, sequential: bool, background: bool = False
    ) -> int:
        cost = self.storage.io_cost_ns(nbytes, write=write, sequential=sequential)
        if background:
            cost = cost // self.num_cpus
        self.storage_ns_total += cost
        self.clock.advance(cost)
        return cost

    def background_cpu_work(self, cost_ns: int) -> None:
        """Daemon CPU time, amortized across cores instead of stalling the
        foreground operation."""
        if cost_ns > 0:
            charged = cost_ns // self.num_cpus
            self.background_ns_total += charged
            self.clock.advance(charged)

    # ------------------------------------------------------------------
    # KernelContext: inode / KLOC lifecycle
    # ------------------------------------------------------------------

    def _on_knode_deleted(self, knode) -> None:
        """KlocManager deletion hook: drop the daemon's pending mark.

        A named method (not a lambda) so the kernel graph stays
        snapshot-serializable — see ``repro.snapshot``.
        """
        self.kloc_daemon.unmark(knode.knode_id)

    def on_inode_create(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.create_knode(inode, cpu=cpu)
            if self.tracer is not None:
                self.tracer.emit(
                    self.clock.now(), "knode", "create",
                    knode=inode.knode_id, ino=inode.ino,
                )

    def on_inode_open(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.open_knode(inode, cpu=cpu)

    def on_inode_close(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.close_knode(inode, cpu=cpu)

    def on_inode_unlink(self, inode: Inode, *, cpu: int = 0) -> None:
        if self.kloc_manager is not None:
            self.kloc_manager.delete_knode(inode, cpu=cpu)

    def notify_prefetch(self, inode: Inode, npages: int) -> None:
        """Readahead happened for this inode — let the policy piggyback
        (KLOCs promote the knode's kernel objects, §4.4)."""
        self.policy.on_prefetch(inode, npages)

    def adopt_object(self, obj: KernelObject, inode: Inode, *, cpu: int = 0) -> None:
        """Attach an object allocated before its inode existed (the inode
        structure itself, driver rx buffers resolved by early demux)."""
        if self.kloc_manager is not None:
            self.kloc_manager.add_object(inode, obj, cpu=cpu)

    # ------------------------------------------------------------------
    # NUMA helpers
    # ------------------------------------------------------------------

    def set_task_node(self, node: int) -> None:
        """The scheduler moved the workload to another socket (§6.2's
        interference experiment)."""
        if not self.numa_mode:
            raise SimulationError("set_task_node requires a NUMA-mode policy")
        self.task_node = node
        hook = getattr(self.policy, "on_task_moved", None)
        if hook is not None:
            hook()

    def _fix_node_id(self, frame: PageFrame) -> None:
        if self.numa_mode and frame.tier_name in self.nodes:
            frame.node_id = self.nodes[frame.tier_name].node_id

    # ------------------------------------------------------------------
    # pressure + reporting
    # ------------------------------------------------------------------

    def _emergency_reclaim(self, *, cpu: int = 0) -> None:
        """Direct reclaim: drop a slice of the coldest page-cache pages."""
        victims = self.fs.cache_mgr.eviction_victims(256)
        if not victims:
            raise AllocationError("memory exhausted and nothing reclaimable")
        if self.tracer is not None:
            self.tracer.emit(
                self.clock.now(), "reclaim", "direct", victims=len(victims)
            )
        for cache, page in victims:
            if page.dirty:
                self.storage_io(
                    page.obj.size_bytes, write=True, sequential=False, background=True
                )
                cache.clean(page)
            self.fs.cache_mgr.note_remove(page)
            cache.remove(page.index)
            self.free_object(page.obj, cpu=cpu)

    @property
    def refs_by_tier(self) -> Dict[tuple, int]:
        """(tier_name, is_kernel) → reference count, for placement quality
        diagnostics (what fraction of traffic actually hit fast memory).

        Materialized from the preallocated nested counters.
        Reporting-frequency only — the hot path never builds this."""
        out: Dict[tuple, int] = {}
        for tier_name, counts in self._refs_by_tier_n.items():
            if counts[0]:
                out[(tier_name, False)] = counts[0]
            if counts[1]:
                out[(tier_name, True)] = counts[1]
        return out

    @property
    def access_ns_by(self) -> Dict[tuple, int]:
        """(owner, tier) → cumulative access ns, for time decomposition.

        Keys exist for every pair that was accessed at least once (even at
        zero cost)."""
        out: Dict[tuple, int] = {}
        for owner, by_tier in self._access_ns_n.items():
            for tier_name, cell in by_tier.items():
                if cell[1]:
                    out[(owner, tier_name)] = cell[0]
        return out

    def reset_reference_counters(self) -> None:
        """Zero the Fig 2c attribution counters (called after a workload's
        load phase so measurements cover steady state only)."""
        self.kernel_refs = 0
        self.kernel_ref_bytes = 0
        self.app_refs = 0
        self.app_ref_bytes = 0
        for o in self.refs_by_owner:
            self.refs_by_owner[o] = 0
        for counts in self._refs_by_tier_n.values():
            counts[0] = 0
            counts[1] = 0
        # Time decomposition must cover the same window as the reference
        # split, or steady-state reports silently include the load phase.
        for by_tier in self._access_ns_n.values():
            for cell in by_tier.values():
                cell[0] = 0
                cell[1] = 0

    def fast_ref_fraction(self, fast_tier: str = "fast") -> float:
        """Fraction of references served by the fast tier — the quantity
        tiering quality ultimately controls."""
        total = sum(self.refs_by_tier.values())
        fast = sum(n for (t, _k), n in self.refs_by_tier.items() if t == fast_tier)
        return fast / total if total else 0.0

    def kernel_ref_fraction(self) -> float:
        """Fig 2c: fraction of memory references that hit kernel objects."""
        total = self.kernel_refs + self.app_refs
        return self.kernel_refs / total if total else 0.0

    def sanitize_teardown(self) -> Optional[Dict[str, int]]:
        """End-of-run accounting audit (``REPRO_SANITIZE=1`` only).

        Cross-checks every allocator's alloc/free balance against its live
        structures, the tier page counters against the frame table, and
        the KLOC metadata counters against a recomputation. Raises
        :class:`~repro.core.errors.SanitizerError` on any leak; returns
        the sanitizer's summary counters (None when the mode is off).
        Read-only — charges no simulated time, so callers may audit after
        building their payload without perturbing it.
        """
        san = self._san
        if san is None:
            return None
        self.topology.check_invariants()
        for tier in self.topology.tiers.values():
            san.expect(
                f"tier {tier.name} used_pages (allocs - frees)",
                tier.used_pages,
                tier.total_allocs - tier.total_frees,
            )
        slab = self.slab
        san.expect(
            "slab live objects (allocs - frees) vs oid->page table",
            slab.stats.allocs - slab.stats.frees,
            len(slab._page_of),  # noqa: SLF001 - ground-truth recount
        )
        slab_pages = 0
        for cache in slab._caches.values():  # noqa: SLF001
            slab_pages += len(cache.partial) + len(cache.full)
        san.expect(
            "slab live pages (grabbed - returned) vs cache lists",
            slab.live_pages(),
            slab_pages,
        )
        kloc = self.kloc_alloc
        san.expect(
            "kloc live objects (allocs - frees) vs oid->page table",
            kloc.stats.allocs - kloc.stats.frees,
            len(kloc._page_of),  # noqa: SLF001 - ground-truth recount
        )
        kloc_pages = 0
        for pages in kloc._knode_pages.values():  # noqa: SLF001
            kloc_pages += len(pages)
        san.expect(
            "kloc live pages (grabbed - returned) vs knode page groups",
            kloc.live_pages(),
            kloc_pages,
        )
        san.expect(
            "vmalloc live areas (allocs - frees) vs area table",
            self.vmalloc.stats.allocs - self.vmalloc.stats.frees,
            len(self.vmalloc._areas),  # noqa: SLF001 - ground-truth recount
        )
        if self.kloc_manager is not None:
            self.kloc_manager.verify_counters()
        return san.report()

    def __repr__(self) -> str:
        return (
            f"Kernel(policy={self.policy.name}, now={self.clock.now_seconds():.3f}s, "
            f"{self.topology!r})"
        )


class AccessBatch:
    """A deferred-advance charging window over a run of object accesses.

    Opened via :meth:`Kernel.begin_access_batch` by loops that issue many
    small charges back-to-back (the page-cache read hit loop, the skb
    copy-to-user loop). Each access/free executes all of its bookkeeping
    immediately, at the exact virtual time a per-access loop would see
    (``start + pending``) — access records (:meth:`Kernel._charge`), KLOC
    hotness timestamps, reference attribution, tracepoints — but
    the clock advance is accumulated and flushed once, which is legal
    precisely while ``start + pending + cost < next_deadline``: no daemon
    can fire inside that span, so per-item and coalesced advances are
    indistinguishable. An item that would cross the deadline flushes the
    pending span (still strictly before the deadline) and runs with a real
    advance, firing daemons in per-access order.

    Contract: callers must :meth:`sync` before doing any out-of-band clock
    work (block I/O, allocations, readahead) and :meth:`close` when the
    loop ends. After external work the next charge rebases automatically.
    """

    __slots__ = ("kernel", "clock", "start", "pending", "deadline")

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.clock = kernel.clock
        self.start = self.clock._now  # noqa: SLF001 - hot-path read
        self.pending = 0
        self.deadline = self.clock._next_deadline  # noqa: SLF001

    def access_object(
        self,
        obj: KernelObject,
        nbytes: Optional[int] = None,
        *,
        write: bool = False,
        cpu: int = 0,
    ) -> int:
        k = self.kernel
        clock = self.clock
        if self.pending == 0 and clock._now != self.start:  # noqa: SLF001
            # External work advanced the clock since the last sync.
            self.start = clock._now  # noqa: SLF001
            self.deadline = clock._next_deadline  # noqa: SLF001
        if obj.freed_at is not None:
            if k._san is not None:  # noqa: SLF001 - same-module hot path
                raise k._san.dead_object_error(obj)  # noqa: SLF001
            raise SimulationError(f"access to freed object {obj!r}")
        size = nbytes if nbytes is not None else obj.otype.size_bytes
        t = self.start + self.pending
        cost = k._charge(obj.frame, size, write, t)  # noqa: SLF001
        deferred = t + cost < self.deadline
        if deferred:
            self.pending += cost
        else:
            if self.pending:
                clock.advance(self.pending)  # strictly before the deadline
                self.pending = 0
            clock.advance(cost)  # may fire daemons, in per-access order
            self.start = clock._now  # noqa: SLF001
            self.deadline = clock._next_deadline  # noqa: SLF001
        k.kernel_refs += 1
        k.kernel_ref_bytes += size
        if k.kloc_manager is not None and obj.knode_id is not None:
            if deferred:
                # A per-access loop stamps hotness with the post-advance
                # clock; inside the window that is exactly t + cost.
                k.kloc_manager.note_access(obj, cpu=cpu, now_ns=t + cost)
            else:
                k.kloc_manager.note_access(obj, cpu=cpu)
        return cost

    def free_object(self, obj: KernelObject, *, cpu: int = 0) -> None:
        clock = self.clock
        if self.pending == 0 and clock._now != self.start:  # noqa: SLF001
            self.start = clock._now  # noqa: SLF001
            self.deadline = clock._next_deadline  # noqa: SLF001
        t = self.start + self.pending
        cost = self.kernel.free_object(obj, cpu=cpu, now_ns=t)
        if t + cost < self.deadline:
            self.pending += cost
            return
        if self.pending:
            clock.advance(self.pending)
            self.pending = 0
        clock.advance(cost)  # may fire daemons, in per-access order
        self.start = clock._now  # noqa: SLF001
        self.deadline = clock._next_deadline  # noqa: SLF001

    def sync(self) -> None:
        """Flush deferred time; call before out-of-band clock work."""
        if self.pending:
            self.clock.advance(self.pending)  # strictly before the deadline
            self.pending = 0
        self.start = self.clock._now  # noqa: SLF001
        self.deadline = self.clock._next_deadline  # noqa: SLF001

    def close(self) -> None:
        """Flush any deferred time at the end of the batched loop."""
        self.sync()
