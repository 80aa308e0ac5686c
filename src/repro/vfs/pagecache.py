"""Page cache: per-inode radix-tree indexes plus a global LRU manager.

Page-cache pages are the dominant kernel objects for the paper's
filesystem-heavy workloads (Fig 2a: "page cache pages dominate RocksDB
allocation"; §4.4: 79% of downgrade migrations are page cache pages).
Each inode owns a radix tree of cached pages; a global manager enforces a
capacity cap with Linux's two-list LRU, producing the eviction churn that
gives cache pages their ~160ms lifetimes (Fig 2d).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.alloc.base import KernelObject
from repro.core.errors import SimulationError
from repro.ds.lru import ActiveInactiveLRU
from repro.ds.radix import RadixTree


@dataclass
class CachePage:
    """One cached file page: the PAGE_CACHE object plus its identity."""

    obj: KernelObject
    ino: int
    index: int

    @property
    def dirty(self) -> bool:
        return self.obj.frame.dirty

    def __hash__(self) -> int:
        return hash((self.ino, self.index))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CachePage)
            and other.ino == self.ino
            and other.index == self.index
        )


class PageCache:
    """Per-inode page index, backed by a kernel radix tree.

    ``alloc_node``/``free_node`` create and destroy the RADIX_NODE slab
    objects for interior nodes, so index metadata shows up in the
    footprint breakdowns exactly as §3.3 describes.

    ``dirty_tags`` is the dirty-page index, the counterpart of Linux's
    ``PAGECACHE_TAG_DIRTY`` radix tag: it maps page index to page for
    every cached page whose frame is dirty, so writeback, fsync and dirty
    counts cost O(dirty pages) instead of a walk over the whole tree.
    The filesystem tags a page (:meth:`tag_dirty`) before the write
    charge that sets its frame's dirty bit; :meth:`clean` and
    :meth:`remove` drop the tag. A tag whose frame is already clean is
    harmless: readers skip it.
    """

    def __init__(
        self,
        ino: int,
        alloc_node: Callable[[], KernelObject],
        free_node: Callable[[KernelObject], None],
    ) -> None:
        self.ino = ino
        self._alloc_node = alloc_node
        self._free_node = free_node
        self.tree = RadixTree(
            on_node_alloc=self._node_alloc, on_node_free=self._node_free
        )
        self.dirty_tags: Dict[int, CachePage] = {}

    def _node_alloc(self, node) -> None:
        node.token = self._alloc_node()

    def _node_free(self, node) -> None:
        if node.token is not None:
            self._free_node(node.token)

    def lookup(self, index: int) -> Optional[CachePage]:
        return self.tree.lookup(index)

    def root_node_token(self) -> Optional[KernelObject]:
        """The RADIX_NODE object backing the root — the filesystem charges
        one index-structure reference per lookup against it (§3.1: page
        cache radix walks are themselves memory-intensive)."""
        root = self.tree._root  # noqa: SLF001 - modeled pointer chase
        return root.token if root is not None else None

    def insert(self, page: CachePage) -> None:
        if not self.tree.insert(page.index, page):
            raise SimulationError(
                f"page {page.index} of inode {self.ino} already cached"
            )

    def remove(self, index: int) -> Optional[CachePage]:
        self.dirty_tags.pop(index, None)
        return self.tree.delete(index)

    def tag_dirty(self, page: CachePage) -> None:
        """Tag ``page`` dirty; call before the write that dirties it."""
        self.dirty_tags[page.index] = page

    def clean(self, page: CachePage) -> None:
        """Clear the page's dirty bit and its tag (written back or dropped)."""
        page.obj.frame.dirty = False
        self.dirty_tags.pop(page.index, None)

    def pages(self) -> List[CachePage]:
        return [page for _idx, page in self.tree.items()]

    def dirty_pages(self) -> List[CachePage]:
        """Dirty pages in index order, read from the dirty-page index."""
        tags = self.dirty_tags
        return [tags[i] for i in sorted(tags) if tags[i].dirty]

    def __len__(self) -> int:
        return len(self.tree)


class PageCacheManager:
    """Global page-cache accounting, LRU ordering, and pressure handling."""

    def __init__(self, max_pages: int) -> None:
        if max_pages <= 0:
            raise ValueError(f"page cache cap must be positive: {max_pages}")
        self.max_pages = max_pages
        self.lru: ActiveInactiveLRU[CachePage] = ActiveInactiveLRU()
        self._caches: Dict[int, PageCache] = {}
        self.inserted = 0
        self.evicted = 0

    def register(self, cache: PageCache) -> None:
        if cache.ino in self._caches:
            raise SimulationError(f"page cache for inode {cache.ino} exists")
        self._caches[cache.ino] = cache

    def unregister(self, ino: int) -> None:
        self._caches.pop(ino, None)

    def cache_for(self, ino: int) -> Optional[PageCache]:
        return self._caches.get(ino)

    def caches(self) -> Iterable[PageCache]:
        """Registered caches, in registration order."""
        return self._caches.values()

    @property
    def total_pages(self) -> int:
        return len(self.lru)

    def note_insert(self, page: CachePage) -> None:
        self.lru.insert(page)
        self.inserted += 1

    def note_access(self, page: CachePage) -> None:
        self.lru.touch(page)

    def note_remove(self, page: CachePage) -> None:
        self.lru.remove(page)

    def over_pressure(self, incoming: int = 1) -> int:
        """How many pages must be evicted to admit ``incoming`` more."""
        excess = self.total_pages + incoming - self.max_pages
        return max(0, excess)

    def eviction_victims(self, n: int) -> List[Tuple[PageCache, CachePage]]:
        """Pick the ``n`` coldest pages with their owning caches.

        The caller (filesystem) writes back dirty victims, frees the
        backing objects, and calls :meth:`note_remove`; pages whose cache
        vanished already are skipped defensively.
        """
        victims: List[Tuple[PageCache, CachePage]] = []
        for page in self.lru.eviction_candidates(n):
            cache = self._caches.get(page.ino)
            if cache is not None:
                victims.append((cache, page))
        return victims

    def __repr__(self) -> str:
        return f"PageCacheManager({self.total_pages}/{self.max_pages} pages)"
