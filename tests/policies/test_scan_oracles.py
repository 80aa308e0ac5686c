"""Indexed scanners vs. the frame-table oracles, on randomized runs.

Two identical kernels are driven through the same random sequence of
operations: app page allocs (some THP-backed), frees and accesses,
kernel object allocs, accesses and frees, task moves on the Optane
platform, and clock ticks that fire the periodic scanners. One kernel
scans through the resident-frame indexes, its twin through the oracles
in ``scan_oracles``. After every step both must have collected the same
candidates in the same order (LRU demote/promote lists, AutoNUMA wakeup
batches, all-local teleport sets), and every frame must sit on the same
tier.
"""

from __future__ import annotations

from typing import Any, Callable, List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import two_tier_platform_spec
from repro.core.errors import AllocationError
from repro.core.objtypes import KernelObjectType
from repro.core.units import MB, PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.mem.thp import CompoundRegistry
from repro.platforms.optane import build_optane_kernel
from repro.policies import TWO_TIER_POLICIES
from repro.policies.autonuma import NUMA_SCAN_PERIOD_NS, NumaAllLocal, NumaPolicyBase
from tests.policies import scan_oracles

#: Small THP groups keep huge regions within the tiny tiers.
THP_PAGES = 8
#: AutoNUMA wakeup batch on the twins: small enough that the batch cut
#: lands inside most candidate sets.
NUMA_BATCH = 16
OTYPES = (
    KernelObjectType.DENTRY,
    KernelObjectType.SOCK,
    KernelObjectType.JOURNAL,
    KernelObjectType.SKBUFF_DATA,
)


def _two_tier(policy: str) -> Kernel:
    spec = two_tier_platform_spec(
        fast_capacity_bytes=MB // 2, slow_capacity_bytes=4 * MB
    )
    kernel = Kernel(spec, TWO_TIER_POLICIES[policy](), seed=7)
    kernel.start()
    return kernel


def _optane(policy: str) -> Kernel:
    kernel, _ = build_optane_kernel(policy, scale_factor=8192, seed=7)
    return kernel


CONFIGS = {
    "nimble": lambda: _two_tier("nimble"),
    "nimble++": lambda: _two_tier("nimble++"),
    "klocs": lambda: _two_tier("klocs"),
    "optane-autonuma": lambda: _optane("autonuma"),
    "optane-all_local": lambda: _optane("all_local"),
}


def _record(log: List[Any], fn: Callable, shape: Callable) -> Callable:
    def recorded(*args):
        out = fn(*args)
        log.append(shape(out))
        return out

    return recorded


def _fids(frames) -> List[int]:
    return [f.fid for f in frames]


def _lru_shape(out):
    demote, promote, visited = out
    return ("lru", _fids(demote), _fids(promote), visited)


def _twin(config: str, oracle: bool):
    kernel = CONFIGS[config]()
    kernel.thp = CompoundRegistry(THP_PAGES)
    if oracle:
        scan_oracles.use_oracles(kernel)
    log: List[Any] = []
    policy = kernel.policy
    lru = getattr(policy, "lru", None)
    if lru is not None:
        lru._collect = _record(log, lru._collect, _lru_shape)
    if isinstance(policy, NumaPolicyBase):
        policy.batch = NUMA_BATCH
        policy._candidates = _record(
            log, policy._candidates, lambda out: ("numa", _fids(out))
        )
    if isinstance(policy, NumaAllLocal):
        policy._away_frames = _record(
            log, policy._away_frames, lambda out: ("away", _fids(out))
        )
    return kernel, log


class _Driver:
    """Applies one operation to one twin; both twins see the same ops."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.regions: List[list] = []
        self.objects: List[Any] = []
        if kernel.numa_mode:
            self.period = NUMA_SCAN_PERIOD_NS
        else:
            self.period = kernel.platform.lru.scan_period_ns

    def apply(self, op) -> None:
        kind, a, b, flag = op
        kernel = self.kernel
        if kind == "alloc_app":
            npages = THP_PAGES * (1 + a % 8) if flag else 1 + a % 96
            try:
                self.regions.append(kernel.alloc_app_pages(npages, huge=flag))
            except AllocationError:
                pass
        elif kind == "free_app" and self.regions:
            kernel.free_app_pages(self.regions.pop(a % len(self.regions)))
        elif kind == "touch" and self.regions:
            frames = self.regions[a % len(self.regions)]
            start = b % len(frames)
            run = [f for f in frames[start : start + 1 + a % 16] if f.live]
            if run:
                nbytes = len(run) * PAGE_SIZE - (b % 100)
                kernel.access_frames(run, nbytes, write=flag)
        elif kind == "alloc_obj":
            try:
                self.objects.append(kernel.alloc_object(OTYPES[a % len(OTYPES)]))
            except AllocationError:
                pass
        elif kind == "access_obj" and self.objects:
            kernel.access_object(self.objects[a % len(self.objects)], write=flag)
        elif kind == "free_obj" and self.objects:
            kernel.free_object(self.objects.pop(a % len(self.objects)))
        elif kind == "move" and kernel.numa_mode:
            kernel.set_task_node(a % 2)
        elif kind == "tick":
            if flag:
                # Touch every page of half the regions first: demoted
                # pages referenced in consecutive scan windows earn
                # promotion.
                for region in self.regions[b % 2 :: 2]:
                    for frame in region:
                        kernel.access_frame(frame, 64)
            kernel.clock.advance(self.period * (1 + a % 2))


OPS = st.tuples(
    st.sampled_from(
        [
            "alloc_app",
            "alloc_app",
            "free_app",
            "touch",
            "touch",
            "alloc_obj",
            "access_obj",
            "free_obj",
            "move",
            "tick",
            "tick",
            "tick",
        ]
    ),
    st.integers(0, 1000),
    st.integers(0, 1000),
    st.booleans(),
)


def _tiers(kernel: Kernel):
    return [(fid, f.tier_name) for fid, f in kernel.topology.frames.items()]


@pytest.mark.parametrize("config", sorted(CONFIGS))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(OPS, min_size=1, max_size=80))
def test_indexed_scanners_match_oracles(config, ops):
    indexed, indexed_log = _twin(config, oracle=False)
    oracle, oracle_log = _twin(config, oracle=True)
    drivers = (_Driver(indexed), _Driver(oracle))
    for op in ops:
        for driver in drivers:
            driver.apply(op)
        assert indexed_log == oracle_log, op
        assert _tiers(indexed) == _tiers(oracle), op
    indexed.topology.check_invariants()


def _drive(config: str, ops) -> List[Any]:
    kernel, log = _twin(config, oracle=False)
    driver = _Driver(kernel)
    for op in ops:
        driver.apply(op)
    return log


def test_the_drive_reaches_every_decision():
    """Fixed sequences of the same operations make every scanner collect
    candidates, so the randomized comparison above is not vacuous."""
    # Fill fast memory and spill, let it age, then keep half the regions
    # (one of them on the slow tier) referenced across scan windows.
    fill = [("alloc_app", 95, 0, False)] * 3
    lru_log = _drive(
        "nimble", fill + [("tick", 0, 0, False)] * 3 + [("tick", 0, 0, True)] * 4
    )
    assert any(demote for _, demote, _, _ in lru_log), "no LRU demote candidates"
    assert any(promote for _, _, promote, _ in lru_log), "no LRU promote candidates"
    moved = [("alloc_app", 40, 0, False)] * 3 + [("move", 1, 0, False)]
    numa_log = _drive("optane-autonuma", moved + [("tick", 0, 0, False)])
    assert any(batch for _, batch in numa_log), "no AutoNUMA candidates"
    away_log = _drive("optane-all_local", moved)
    assert any(away for _, away in away_log), "no all-local teleport set"


#: Frames that leave a tier and come back are re-appended to its
#: resident index, so index order stops being fid order; the scanners
#: must still produce the oracle's fid-ordered candidates.
REORDERING_DRIVES = {
    # Fill fast memory and spill; age it so the oldest pages demote; keep
    # the first region referenced so they are promoted back (behind the
    # pages that stayed); then let everything go cold again.
    "nimble": (
        [("alloc_app", 95, 0, False)] * 2
        + [("tick", 0, 0, False)] * 3
        + [("tick", 0, 0, True)] * 4
        + [("tick", 0, 0, False)] * 4
    ),
    # Pages follow the task to node 1, new pages are allocated there, and
    # the task moves back: node 1 holds migrated-in pages with lower fids
    # behind the newer local ones.
    "optane-autonuma": (
        [("alloc_app", 40, 0, False)] * 2
        + [("move", 1, 0, False)]
        + [("alloc_app", 40, 0, False)] * 2
        + [("tick", 0, 0, False)] * 6
        + [("move", 0, 0, False)]
        + [("tick", 0, 0, False)] * 6
    ),
}


@pytest.mark.parametrize("config", sorted(REORDERING_DRIVES))
def test_candidates_keep_fid_order_after_migrations(config):
    logs = []
    for oracle in (False, True):
        kernel, log = _twin(config, oracle=oracle)
        driver = _Driver(kernel)
        for op in REORDERING_DRIVES[config]:
            driver.apply(op)
        logs.append(log)
    indexed_log, oracle_log = logs
    assert indexed_log == oracle_log
    assert any(len(entry[1]) > 1 for entry in indexed_log)
