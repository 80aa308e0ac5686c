"""Radix tree, as used by the Linux page cache to index file offsets.

The interior nodes matter to this paper: they are slab-allocated kernel
objects ("buffers added to radix tree nodes to track file metadata ...
are frequently queried, allocated, and deleted when trees are rebalanced"
— §3.3). Node creation/destruction is therefore surfaced via callbacks so
the filesystem can charge them to the slab allocator and count them in
the Figure 2 breakdowns.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Linux uses 6-bit fanout (64 slots per node).
RADIX_SHIFT = 6
RADIX_SLOTS = 1 << RADIX_SHIFT


class _RadixNode:
    __slots__ = ("slots", "count", "shift", "token")

    def __init__(self, shift: int) -> None:
        self.slots: Dict[int, Any] = {}
        self.count = 0
        self.shift = shift
        #: Opaque handle the owner attaches (e.g. the backing slab object).
        self.token: Any = None


class RadixTree:
    """Sparse index → value map with kernel-style interior nodes.

    ``on_node_alloc``/``on_node_free`` fire whenever an interior node is
    created or torn down, letting callers model node allocations.
    """

    def __init__(
        self,
        on_node_alloc: Optional[Callable[[_RadixNode], None]] = None,
        on_node_free: Optional[Callable[[_RadixNode], None]] = None,
    ) -> None:
        self._root: Optional[_RadixNode] = None
        self._height_shift = 0  # shift of the root node
        self._size = 0
        self._on_alloc = on_node_alloc
        self._on_free = on_node_free
        self.node_count = 0
        self.lookups = 0
        self.lookup_hops = 0

    def __len__(self) -> int:
        return self._size

    def _new_node(self, shift: int) -> _RadixNode:
        node = _RadixNode(shift)
        self.node_count += 1
        if self._on_alloc:
            self._on_alloc(node)
        return node

    def _free_node(self, node: _RadixNode) -> None:
        self.node_count -= 1
        if self._on_free:
            self._on_free(node)

    # ------------------------------------------------------------------

    def insert(self, index: int, value: Any) -> bool:
        """Map ``index`` to ``value``; returns True if the slot was empty."""
        if index < 0:
            raise ValueError(f"radix index must be non-negative: {index}")
        if value is None:
            raise ValueError("radix tree cannot store None")
        self._maybe_grow(index)
        if self._root is None:
            self._root = self._new_node(self._height_shift)
        node = self._root
        while node.shift > 0:
            slot = (index >> node.shift) & (RADIX_SLOTS - 1)
            child = node.slots.get(slot)
            if child is None:
                child = self._new_node(node.shift - RADIX_SHIFT)
                node.slots[slot] = child
                node.count += 1
            node = child
        slot = index & (RADIX_SLOTS - 1)
        fresh = slot not in node.slots
        if fresh:
            node.count += 1
            self._size += 1
        node.slots[slot] = value
        return fresh

    def _maybe_grow(self, index: int) -> None:
        while index >= (1 << (self._height_shift + RADIX_SHIFT)):
            old_root = self._root
            self._height_shift += RADIX_SHIFT if old_root is not None else RADIX_SHIFT
            if old_root is not None:
                new_root = self._new_node(old_root.shift + RADIX_SHIFT)
                new_root.slots[0] = old_root
                new_root.count = 1
                self._root = new_root
            # With no root yet, just remember the required height.

    def lookup(self, index: int) -> Any:
        """Return the value at ``index`` or None."""
        self.lookups += 1
        node = self._root
        if node is None or index >= (1 << (self._height_shift + RADIX_SHIFT)):
            return None
        while node is not None and node.shift > 0:
            self.lookup_hops += 1
            node = node.slots.get((index >> node.shift) & (RADIX_SLOTS - 1))
        if node is None:
            return None
        self.lookup_hops += 1
        return node.slots.get(index & (RADIX_SLOTS - 1))

    def delete(self, index: int) -> Any:
        """Remove and return the value at ``index`` (None if absent).

        Empty interior nodes are freed on the way back up — the churn §3.3
        attributes radix-node slab traffic to.
        """
        path: List[Tuple[_RadixNode, int]] = []
        node = self._root
        if node is None or index >= (1 << (self._height_shift + RADIX_SHIFT)):
            return None
        while node.shift > 0:
            slot = (index >> node.shift) & (RADIX_SLOTS - 1)
            child = node.slots.get(slot)
            if child is None:
                return None
            path.append((node, slot))
            node = child
        slot = index & (RADIX_SLOTS - 1)
        if slot not in node.slots:
            return None
        value = node.slots.pop(slot)
        node.count -= 1
        self._size -= 1
        # Prune empty nodes bottom-up.
        child = node
        for parent, pslot in reversed(path):
            if child.count:
                break
            self._free_node(child)
            parent.slots.pop(pslot, None)
            parent.count -= 1
            child = parent
        if self._root is not None and self._root.count == 0:
            self._free_node(self._root)
            self._root = None
            self._height_shift = 0
        return value

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Iterate (index, value) pairs in index order.

        One flat generator with an explicit stack — the recursive
        ``yield from`` formulation resumes depth-many generators per
        yielded page, which dominates full-tree walks (``PageCache.pages``
        on unlink, fsck audits).
        """
        root = self._root
        if root is None:
            return
        stack = [(root, 0)]
        while stack:
            node, prefix = stack.pop()
            slots = node.slots
            if node.shift > 0:
                shift = node.shift
                for slot in sorted(slots, reverse=True):
                    stack.append((slots[slot], prefix | (slot << shift)))
            else:
                for slot in sorted(slots):
                    yield prefix | slot, slots[slot]

    def mean_lookup_hops(self) -> float:
        return self.lookup_hops / self.lookups if self.lookups else 0.0

    def __repr__(self) -> str:
        return f"RadixTree(size={self._size}, nodes={self.node_count})"
