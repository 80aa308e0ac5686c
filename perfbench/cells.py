"""One benchmark cell: a figure cell run through the public runner entry points.

A cell is one call of ``run_two_tier`` or ``run_optane_interference`` with
a fresh, empty snapshot store and an explicit ``run_seed``. The probe
installed around it times the phases users wait on (kernel build plus
``Workload.setup``, snapshot save, ``Workload.run`` and each ``run_op``)
without editing ``src/``: it swaps module attributes and class methods for
timing wrappers for the duration of the cell and restores them after.

Host speed drifts by tens of percent within minutes, and a calibration
loop timed only between cells does not track it. So the probe also runs a
short calibration tick between ops every ``TICK_PERIOD_NS`` of wall time.
The ticks are excluded from every host time of the cell; their mean
measures the host's speed while the cell ran.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro.experiments.cache as cache
import repro.experiments.runner as runner
import repro.platforms.optane as optane
from repro.core.version import SIM_VERSION
from repro.mem.frame import PageOwner
from repro.snapshot import SnapshotStore
from repro.workloads import WORKLOADS
from repro.workloads.base import Workload

perf_ns = time.perf_counter_ns

#: Wall time between two calibration ticks inside a cell's run loop.
TICK_PERIOD_NS = 10_000_000


@dataclass(frozen=True)
class Spec:
    """One benchmark workload: a single figure cell."""

    name: str
    platform: str  # "two_tier" or "optane"
    workload: str
    policy: str
    ops: int
    why: str
    #: Layers the traced run must see called at least once.
    must_exercise: Tuple[str, ...]
    #: True where the KLOC layer must stay idle (the bypass workloads).
    kloc_bypass: bool


#: Op budgets are the figures' defaults (``DEFAULT_OPS``), pinned here so
#: ``REPRO_QUICK``/``REPRO_FULL`` or a later default change cannot resize
#: the benchmark silently.
SPECS: Dict[str, Spec] = {
    s.name: s
    for s in (
        Spec(
            name="cassandra-klocs",
            platform="two_tier",
            workload="cassandra",
            policy="klocs",
            ops=20_000,
            why="KLOC mechanism: heaviest kernel-object churn, per-CPU knode "
            "lookups and ~13k migrations each way (kernel/kloc/alloc/mem)",
            must_exercise=("kloc", "kloc.migrationd"),
            kloc_bypass=False,
        ),
        Spec(
            name="rocksdb-nimble",
            platform="two_tier",
            workload="rocksdb",
            policy="nimble",
            ops=40_000,
            why="write-heavy LSM file churn with app-only LRU scans and the "
            "only costly setup; KLOC bypass check (vfs/ds/snapshot)",
            must_exercise=("policies.lru_scan", "vfs.writeback"),
            kloc_bypass=True,
        ),
        Spec(
            name="redis-autonuma-optane",
            platform="optane",
            workload="redis",
            policy="autonuma",
            ops=20_000,
            why="Optane Memory Mode: AutoNUMA scanner, hardware DRAM cache, "
            "socket-dominated ops, interferer and task move; KLOC bypass",
            must_exercise=("policies.autonuma_scan", "mem.migrate"),
            kloc_bypass=True,
        ),
    )
}


def payload_digest(payload: Any) -> str:
    """sha256 of the canonical JSON encoding (the equivalence suites' form)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sim_counters(kernel: Any) -> Dict[str, float]:
    """Simulated counters of a finished cell. Exact: a speed-only change
    must leave every one of them identical."""
    fast = kernel.platform.fast.name
    slow = kernel.platform.slow.name
    topo = kernel.topology
    hits = misses = 0
    for node in kernel.nodes.values():
        if node.hw_cache is not None:
            hits += node.hw_cache.hits
            misses += node.hw_cache.misses
    return {
        "sim.fast_ref_fraction": kernel.fast_ref_fraction(fast),
        "sim.kernel_ref_fraction": kernel.kernel_ref_fraction(),
        "sim.migrations_down": topo.migrations_between(fast, slow),
        "sim.migrations_up": topo.migrations_between(slow, fast),
        "sim.slow_allocs": sum(
            topo.alloc_count.get((slow, owner), 0)
            for owner in (PageOwner.PAGE_CACHE, PageOwner.SLAB)
        ),
        "sim.storage_ns": kernel.storage_ns_total,
        "sim.kloc_metadata_peak_bytes": (
            kernel.kloc_manager.peak_metadata_bytes if kernel.kloc_manager else 0
        ),
        "sim.hwcache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


@dataclass
class Cell:
    """Host-time and simulated outcome of one cell."""

    cell_s: float
    setup_s: float
    save_s: float
    snapshot_bytes: int
    restore_s: List[float]
    run_s: float
    run_ops: int
    op_ns: "array[int]"
    #: Duration of each calibration tick taken inside the cell.
    tick_ns: "array[int]"
    sim_ops_per_s: float
    digest: str
    sim: Dict[str, float] = field(default_factory=dict)


class _TimedStore(SnapshotStore):
    """A snapshot store that times its own save and load."""

    def __init__(self, root: Path) -> None:
        super().__init__(root, enabled=True)
        self.save_started_ns: Optional[int] = None
        self.save_ns = 0
        self.saved_key: Any = None

    def save(self, key: Any, kernel: Any, workload: Any) -> None:
        self.save_started_ns = t0 = perf_ns()
        super().save(key, kernel, workload)
        self.save_ns = perf_ns() - t0
        self.saved_key = key

    def snapshot_bytes(self) -> int:
        return self._path(self.saved_key).stat().st_size


class Patches:
    """Attributes swapped on modules and classes; ``undo`` puts every
    original back, last swapped first."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class _Probe:
    """Timing wrappers around one cell, installed only while it runs."""

    def __init__(self, spec: Spec) -> None:
        self.spec = spec
        self.kernel: Any = None
        self.build_started_ns: Optional[int] = None
        self.run_ns = 0
        self.run_ops = 0
        self.op_ns = array("q")
        self.tick_ns = array("q")
        #: Wall time spent in ticks, taken out of the cell's host times.
        self.tick_wall_ns = 0
        self.next_tick_ns = 0
        self._patches = Patches()

    def __enter__(self) -> "_Probe":
        probe = self
        if self.spec.platform == "two_tier":
            build_owner, build_name = runner, "build_two_tier_kernel"
        else:
            build_owner, build_name = optane, "build_optane_kernel"
        build = getattr(build_owner, build_name)

        def timed_build(*args: Any, **kwargs: Any) -> Any:
            probe.build_started_ns = perf_ns()
            kernel, policy = build(*args, **kwargs)
            probe.kernel = kernel
            return kernel, policy

        base_run = Workload.run

        def timed_run(wl: Workload, ops: int) -> Any:
            t0 = perf_ns()
            result = base_run(wl, ops)
            probe.run_ns += perf_ns() - t0
            probe.run_ops += ops
            return result

        wl_cls = WORKLOADS[self.spec.workload]
        run_op = wl_cls.run_op
        record = self.op_ns.append

        def timed_run_op(wl: Workload, op_index: int, cpu: int) -> None:
            t0 = perf_ns()
            run_op(wl, op_index, cpu)
            t1 = perf_ns()
            record(t1 - t0)
            if t1 >= probe.next_tick_ns:
                probe.tick_ns.append(calibration_tick())
                t2 = perf_ns()
                probe.tick_wall_ns += t2 - t1
                probe.next_tick_ns = t2 + TICK_PERIOD_NS

        self._patches.set(build_owner, build_name, timed_build)
        self._patches.set(Workload, "run", timed_run)
        self._patches.set(wl_cls, "run_op", timed_run_op)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.undo()


def _call_entry(spec: Spec, seed: int, ops: int, store: SnapshotStore) -> Any:
    """Run the cell through its public entry point and return its result:
    a ``TwoTierRun`` on the two-tier platform, the throughput on optane."""
    if spec.platform == "two_tier":
        return runner.run_two_tier(
            spec.workload, spec.policy, ops=ops, run_seed=seed, snapshots=store
        )
    return runner.run_optane_interference(
        spec.workload, spec.policy, ops, run_seed=seed, snapshots=store
    )


def run_cell(
    spec: Spec,
    seed: int,
    tmp_root: Path,
    *,
    ops: Optional[int] = None,
    restores: int = 3,
) -> Cell:
    """Run one cell with a fresh, empty snapshot store under ``tmp_root``.

    After the cell, the setup it saved is loaded ``restores`` times: that
    load is what every warm sweep cell pays instead of ``setup_s``.
    """
    ops = spec.ops if ops is None else ops
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=tmp_root))
    try:
        store = _TimedStore(store_dir)
        with _Probe(spec) as probe:
            t0 = perf_ns()
            result = _call_entry(spec, seed, ops, store)
            cell_ns = perf_ns() - t0
        sim = sim_counters(probe.kernel)
        probe.kernel = None  # one kernel in memory at a time: RSS is a metric
        # Two-tier cells hash the figure payload. The optane entry point
        # returns only the throughput, so its digest covers the throughput
        # plus the simulated counters of the kernel the probe captured.
        if spec.platform == "two_tier":
            throughput = result.throughput
            digest = payload_digest(cache.run_to_payload(result))
        else:
            throughput = result
            digest = payload_digest({"throughput": throughput, **sim})
        restore_s = []
        for _ in range(restores):
            t1 = perf_ns()
            loaded = store.load(store.saved_key)
            restore_s.append((perf_ns() - t1) / 1e9)
            if loaded is None:
                raise RuntimeError(f"{spec.name}: saved snapshot did not load")
            del loaded
        if probe.build_started_ns is None or store.save_started_ns is None:
            raise RuntimeError(f"{spec.name}: the cell did not build and save a setup")
        return Cell(
            cell_s=(cell_ns - probe.tick_wall_ns) / 1e9,
            setup_s=(store.save_started_ns - probe.build_started_ns) / 1e9,
            save_s=store.save_ns / 1e9,
            snapshot_bytes=store.snapshot_bytes(),
            restore_s=restore_s,
            run_s=(probe.run_ns - probe.tick_wall_ns) / 1e9,
            run_ops=probe.run_ops,
            op_ns=probe.op_ns,
            tick_ns=probe.tick_ns,
            sim_ops_per_s=throughput,
            digest=digest,
            sim=sim,
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


#: The smallest op count each entry point accepts; used by setup probes.
_SETUP_PROBE_OPS = {"two_tier": 1, "optane": 2}


def setup_probe(spec: Spec, seed: int, tmp_root: Path) -> Cell:
    """A cell with the smallest op budget: the same setup path as a full
    cell, used to take more ``setup_s``/``restore_s`` samples cheaply."""
    return run_cell(spec, seed, tmp_root, ops=_SETUP_PROBE_OPS[spec.platform], restores=1)


class DigestTable:
    """Recorded payload digests keyed by SIM_VERSION, workload and seed."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.data: Dict[str, Dict[str, Dict[str, str]]] = (
            json.loads(path.read_text()) if path.exists() else {}
        )

    def get(self, workload: str, seed: int) -> Optional[str]:
        return self.data.get(SIM_VERSION, {}).get(workload, {}).get(str(seed))

    def put(self, workload: str, seed: int, digest: str) -> None:
        by_seed = self.data.setdefault(SIM_VERSION, {}).setdefault(workload, {})
        by_seed[str(seed)] = digest

    def write(self) -> None:
        ordered = {
            version: {
                wl: dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
                for wl, seeds in sorted(per_wl.items())
            }
            for version, per_wl in sorted(self.data.items())
        }
        self.path.write_text(json.dumps(ordered, indent=1) + "\n")


def calibration_tick() -> int:
    """Nanoseconds for a fixed pure-Python loop of dict lookups and stores.
    Every value stays a cached small int, so the loop allocates nothing
    and its speed does not depend on the simulator's heap."""
    t0 = perf_ns()
    table: Dict[int, int] = {}
    get = table.get
    for i in range(800):
        table[i & 255] = (get(i & 127, 0) + i) & 255
    return perf_ns() - t0


def calibrate() -> float:
    """Seconds per calibration tick, median of 41, taken between cells."""
    return sorted(calibration_tick() for _ in range(41))[20] / 1e9
