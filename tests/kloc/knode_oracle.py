"""Reference candidate lists for the KLOC migration daemon.

The daemon once built a knode's candidate frames by walking the knode's
two red-black trees in order with an explicit stack (cache tree first,
then slab tree), keeping each live frame the first time it appeared,
then merging the KLOC allocator's knode-grouped pages it had not seen;
each pass filtered that list to one tier and cut it to its batch.
``Knode.frames`` and ``KlocMigrationDaemon.knode_frames`` now filter and
cut as they build, and order the cache tree by fid instead of walking
it. This module keeps the walk, read-only, as the oracle they are
compared with in ``test_knode_frames_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ds.rbtree import NIL, RedBlackTree
from repro.mem.frame import PageFrame


def _tree(members: Dict[int, object]) -> RedBlackTree:
    """The red-black tree a knode's dict-held tree models."""
    tree = RedBlackTree()
    for oid, obj in members.items():
        tree.insert(oid, obj)
    return tree


def walk_frames(knode) -> List[PageFrame]:
    """Distinct live frames of the knode's members: an in-order walk of
    the cache tree, then of the slab tree."""
    seen: Set[int] = set()
    out: List[PageFrame] = []
    for tree in (_tree(knode.rbtree_cache), _tree(knode.rbtree_slab)):
        stack: List = []
        node = tree.root
        while stack or node is not NIL:
            while node is not NIL:
                stack.append(node)
                node = node.left
            node = stack.pop()
            frame = node.value.frame
            if frame.freed_at is None:
                fid = frame.fid
                if fid not in seen:
                    seen.add(fid)
                    out.append(frame)
            node = node.right
    return out


def knode_frames(
    knode, kloc_allocator=None, tier: Optional[str] = None, limit: Optional[int] = None
) -> List[PageFrame]:
    """The walk, plus the allocator's live pages not yet listed, filtered
    to ``tier`` (any tier if None) and cut to ``limit``."""
    frames = {f.fid: f for f in walk_frames(knode)}
    if kloc_allocator is not None:
        for frame in kloc_allocator.knode_frames(knode.knode_id):
            if frame.live:
                frames.setdefault(frame.fid, frame)
    out = [f for f in frames.values() if tier is None or f.tier_name == tier]
    return out if limit is None else out[:limit]
