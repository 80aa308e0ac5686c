"""Reference oracles for the periodic scanners' candidate collection.

The scanners (``LRUScanEngine._collect``, ``NumaPolicyBase._candidates``,
``NumaAllLocal._away_frames``) read the topology's resident-frame
indexes and touch only their candidates. The functions here are the
straightforward walks over the whole frame table in fid order that those
indexes replaced: slow, but obviously right. Keep them as they are; they
are the definition the indexed scanners are tested against.

:func:`use_oracles` makes a kernel's scanners decide through these walks,
so a twin kernel driven through the same operations shows what the
indexed scanners must reproduce.
"""

from __future__ import annotations

from functools import partial
from typing import List, Tuple

from repro.mem.frame import PageFrame
from repro.policies.autonuma import NumaAllLocal, NumaPolicyBase
from repro.policies.lru_engine import LRUScanEngine


def lru_collect(engine: LRUScanEngine) -> Tuple[List[PageFrame], List[PageFrame], int]:
    """One LRU scan round's aging and (demote, promote, visited) candidates,
    by walking every live frame."""
    demote_candidates: List[PageFrame] = []
    promote_candidates: List[PageFrame] = []
    visited = 0
    for frame in list(engine.kernel.topology.frames.values()):
        if not frame.live:
            continue
        visited += 1
        referenced = frame.last_access >= engine._last_scan_ns
        if frame.tier_name == engine.fast_tier:
            if referenced:
                frame.lru_age = 0
            elif engine._demotable(frame):
                frame.lru_age += 1
                if frame.lru_age >= engine.spec.cold_age_rounds:
                    demote_candidates.append(frame)
        elif frame.tier_name == engine.slow_tier:
            # Two-touch activation (Linux's referenced/active bits): a page
            # must be referenced in consecutive scan windows to earn
            # promotion, so touch-once streams stay in slow memory.
            frame.scan_ref_streak = frame.scan_ref_streak + 1 if referenced else 0
            if (
                frame.scan_ref_streak >= 2
                and frame.relocatable
                and engine._promotable(frame)
            ):
                promote_candidates.append(frame)
    return demote_candidates, promote_candidates, visited


def numa_candidates(policy: NumaPolicyBase, home_tier: str) -> List[PageFrame]:
    """AutoNUMA's wakeup candidates: the first ``batch`` relocatable frames
    of the managed owners found away from home in a frame-table walk."""
    candidates: List[PageFrame] = []
    for frame in policy.kernel.topology.frames.values():
        if frame.tier_name == home_tier or not frame.relocatable:
            continue
        if frame.owner in policy.migrate_owners:
            candidates.append(frame)
            if len(candidates) >= policy.batch:
                break
    return candidates


def away_frames(policy: NumaAllLocal, home_tier: str) -> List[PageFrame]:
    """Every live frame off the home tier, in frame-table order."""
    return [
        frame
        for frame in policy.kernel.topology.frames.values()
        if frame.tier_name != home_tier
    ]


def use_oracles(kernel) -> None:
    """Route ``kernel``'s scanners through the oracles above."""
    policy = kernel.policy
    lru = getattr(policy, "lru", None)
    if lru is not None:
        lru._collect = partial(lru_collect, lru)
    if isinstance(policy, NumaPolicyBase):
        policy._candidates = partial(numa_candidates, policy)
    if isinstance(policy, NumaAllLocal):
        policy._away_frames = partial(away_frames, policy)
