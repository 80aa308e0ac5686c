"""Writeback daemon: periodic dirty-page flushing and journal commits.

Models the kernel's flusher threads plus jbd2's periodic commit. Work is
submitted as *background* I/O — it consumes device bandwidth and CPU but
does not stall the foreground operation that happened to advance the
clock past the timer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.sanitize import sanitize_enabled
from repro.core.units import MS

if TYPE_CHECKING:
    from repro.vfs.filesystem import Filesystem

#: Flusher wakeup period. Linux uses 5s dirty_writeback_centisecs; the
#: simulator compresses time, so 50ms keeps the same "many ops between
#: flushes" relationship.
WRITEBACK_PERIOD_NS = 50 * MS
#: Max pages flushed per wakeup (like MAX_WRITEBACK_PAGES batching).
WRITEBACK_BATCH = 256


class WritebackDaemon:
    """Flush dirty page-cache pages and commit the journal periodically."""

    def __init__(
        self,
        fs: "Filesystem",
        *,
        period_ns: int = WRITEBACK_PERIOD_NS,
        batch_pages: int = WRITEBACK_BATCH,
    ) -> None:
        if period_ns <= 0:
            raise ValueError(f"period must be positive: {period_ns}")
        if batch_pages <= 0:
            raise ValueError(f"batch must be positive: {batch_pages}")
        self.fs = fs
        self.period_ns = period_ns
        self.batch_pages = batch_pages
        self.wakeups = 0
        self.pages_flushed = 0
        self._started = False
        self._sanitize = sanitize_enabled()

    def start(self) -> None:
        """Register with the clock; safe to call once."""
        if self._started:
            return
        self.fs.ctx.clock.schedule_periodic(self.period_ns, self._wake)
        self._started = True

    def _wake(self, now_ns: int) -> None:
        self.wakeups += 1
        if self._sanitize:
            self.fs.check_dirty_index()
        self.flush(self.batch_pages)
        self.fs.journal.commit(background=True)

    def flush(self, max_pages: int) -> int:
        """Write back up to ``max_pages`` dirty pages (oldest inodes first).

        Caches are visited in registration order and, within a cache, the
        dirty-tagged pages in index order, so the cost is O(dirty pages).
        A tagged page whose frame is already clean is skipped. A page
        evicted mid-flush (direct reclaim inside a bio allocation) has lost
        its tag and is skipped too.
        """
        flushed = 0
        submit = self.fs.blk.submit_pages
        for cache in self.fs.cache_mgr.caches():
            if flushed >= max_pages:
                break
            tags = cache.dirty_tags
            for index in sorted(tags):
                if flushed >= max_pages:
                    break
                page = tags.get(index)
                if page is None or not page.dirty:
                    continue
                submit(1, write=True, sequential=True, background=True)
                cache.clean(page)
                flushed += 1
        self.pages_flushed += flushed
        return flushed

    def __repr__(self) -> str:
        return f"WritebackDaemon(wakeups={self.wakeups}, flushed={self.pages_flushed})"
