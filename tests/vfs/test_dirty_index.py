"""Tests for the page cache's dirty-page index (the PAGECACHE_TAG_DIRTY
counterpart): who tags, who clears, and that the O(dirty) flusher cleans
exactly the pages the old full-cache walk would have, in the same order."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import two_tier_platform_spec
from repro.core.errors import VFSError
from repro.core.units import MB, PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.policies import NaivePolicy
from repro.vfs.filesystem import Filesystem
from repro.vfs.pagecache import PageCache
from repro.vfs.writeback import WritebackDaemon
from tests.fakes import FakeKernel


def reference_flush(fs, max_pages):
    """Reference oracle: the full-cache walk the flusher made before the
    dirty-page index existed. Every cached page of every registered cache,
    in registration order then index order; the first ``max_pages`` dirty
    ones are what a flush must clean. Read-only: it cleans nothing."""
    out = []
    for cache in fs.cache_mgr.caches():
        for page in cache.pages():
            if len(out) >= max_pages:
                return out
            if page.dirty:
                out.append((page.ino, page.index))
    return out


def cleaned_by(call):
    """Run ``call`` and return the (ino, index) of every page it cleaned,
    in order."""
    cleaned = []
    original = PageCache.clean

    def recording(cache, page):
        cleaned.append((page.ino, page.index))
        original(cache, page)

    with mock.patch.object(PageCache, "clean", recording):
        result = call()
    return result, cleaned


def tagged(fs, handle):
    return set(fs.cache_mgr.cache_for(handle.inode.ino).dirty_tags)


@pytest.fixture
def kernel():
    return FakeKernel(fast_bytes=8 * MB, slow_bytes=64 * MB)


@pytest.fixture
def fs(kernel):
    return Filesystem(kernel, page_cache_max_pages=4096)


class TestTagging:
    def test_write_tags_each_page(self, fs):
        fh = fs.create("/a")
        fs.write(fh, PAGE_SIZE, 3 * PAGE_SIZE)
        assert tagged(fs, fh) == {1, 2, 3}
        fs.check_dirty_index()

    def test_from_disk_fill_is_untagged(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, 4 * PAGE_SIZE)
        fs.fsync(fh)
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        page = cache.lookup(2)
        fs.cache_mgr.note_remove(page)
        cache.remove(2)
        kernel.free_object(page.obj)
        fs.read(fh, 2 * PAGE_SIZE, PAGE_SIZE)  # miss: filled from disk
        assert cache.lookup(2) is not None
        assert tagged(fs, fh) == set()
        assert fs.dirty_page_count() == 0

    def test_fsync_clears_tags(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 5 * PAGE_SIZE)
        assert fs.fsync(fh) == 5
        assert tagged(fs, fh) == set()

    def test_evicting_a_dirty_page_clears_its_tag(self, kernel):
        fs = Filesystem(kernel, page_cache_max_pages=8)
        fh = fs.create("/a")
        fs.write(fh, 0, 20 * PAGE_SIZE)
        assert fs.cache_mgr.evicted == 12
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        assert tagged(fs, fh) == {p.index for p in cache.pages()}
        assert fs.dirty_page_count() == 8
        fs.check_dirty_index()

    def test_direct_reclaim_clears_tags(self):
        spec = two_tier_platform_spec(
            fast_capacity_bytes=1 * MB, slow_capacity_bytes=2 * MB
        )
        kernel = Kernel(spec, NaivePolicy(), seed=3, page_cache_max_pages=10_000)
        fh = kernel.fs.create("/big")
        kernel.fs.write(fh, 0, 4 * MB)  # more than memory: direct reclaim
        cache = kernel.fs.cache_mgr.cache_for(fh.inode.ino)
        assert kernel.fs.cache_mgr.evicted == 0  # the cap never bit
        assert len(cache) < 4 * MB // PAGE_SIZE
        assert set(cache.dirty_tags) <= {p.index for p in cache.pages()}
        kernel.fs.check_dirty_index()

    def test_unlinking_a_dirty_file_leaves_no_tags(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 6 * PAGE_SIZE)
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        fs.close(fh)
        fs.unlink("/a")
        assert cache.dirty_tags == {}
        assert fs.dirty_page_count() == 0


class TestFlush:
    def test_batch_cap_holds_across_caches(self, fs):
        handles = [fs.create(f"/f{i}") for i in range(3)]
        for fh in handles:
            fs.write(fh, 0, 4 * PAGE_SIZE)
        daemon = WritebackDaemon(fs, period_ns=10**12, batch_pages=6)
        assert daemon.flush(6) == 6
        assert tagged(fs, handles[0]) == set()
        assert tagged(fs, handles[1]) == {2, 3}
        assert tagged(fs, handles[2]) == {0, 1, 2, 3}
        assert fs.dirty_page_count() == 6
        assert daemon.flush(6) == 6
        assert fs.dirty_page_count() == 0
        assert daemon.pages_flushed == 12

    def test_flush_skips_tag_on_clean_frame(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        cache.lookup(0).obj.frame.dirty = False  # cleared behind the index
        daemon = WritebackDaemon(fs, period_ns=10**12)
        flushed, cleaned = cleaned_by(lambda: daemon.flush(8))
        assert flushed == 1
        assert cleaned == [(fh.inode.ino, 1)]


class TestIndexCheck:
    def test_detects_untagged_dirty_page(self, fs):
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        del fs.cache_mgr.cache_for(fh.inode.ino).dirty_tags[1]
        with pytest.raises(VFSError, match="untagged"):
            fs.check_consistency()

    def test_detects_tag_on_uncached_page(self, fs, kernel):
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        cache = fs.cache_mgr.cache_for(fh.inode.ino)
        page = cache.lookup(1)
        fs.cache_mgr.note_remove(page)
        cache.tree.delete(1)  # dropped from the tree, tag left behind
        kernel.free_object(page.obj)
        with pytest.raises(VFSError, match="not cached"):
            fs.check_dirty_index()

    def test_sanitized_wake_checks_the_index(self, monkeypatch, kernel):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        fs = Filesystem(kernel, page_cache_max_pages=4096)
        daemon = WritebackDaemon(fs, period_ns=10**9)
        daemon.start()
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        del fs.cache_mgr.cache_for(fh.inode.ino).dirty_tags[0]
        with pytest.raises(VFSError, match="untagged"):
            kernel.clock.advance(10**9)

    def test_wake_inside_the_write_charge_finds_the_tag(self, monkeypatch, kernel):
        # A 1 ns period fires a sanitized wake on every clock advance,
        # the write charge's included.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        fs = Filesystem(kernel, page_cache_max_pages=4096)
        daemon = WritebackDaemon(fs, period_ns=1)
        daemon.start()
        fh = fs.create("/a")
        fs.write(fh, 0, 3 * PAGE_SIZE)
        assert daemon.pages_flushed == 3
        assert fs.dirty_page_count() == 0

    def test_plain_wake_does_not_check(self, monkeypatch, kernel):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        fs = Filesystem(kernel, page_cache_max_pages=4096)
        daemon = WritebackDaemon(fs, period_ns=10**9)
        daemon.start()
        fh = fs.create("/a")
        fs.write(fh, 0, 2 * PAGE_SIZE)
        del fs.cache_mgr.cache_for(fh.inode.ino).dirty_tags[0]
        kernel.clock.advance(10**9)
        assert daemon.wakeups == 1


class _Driver:
    """Random syscall tape against a filesystem with a tiny page-cache
    cap, so writes and reads evict (dirty) pages as they go."""

    def __init__(self, cap):
        self.kernel = FakeKernel(fast_bytes=8 * MB, slow_bytes=64 * MB)
        self.fs = Filesystem(self.kernel, page_cache_max_pages=cap)
        self.daemon = WritebackDaemon(self.fs, period_ns=10**12)
        self.handles = []
        self.next_file = 0

    def step(self, op, arg):
        fs = self.fs
        kind = op % 6
        if kind == 0 or not self.handles:
            self.handles.append(fs.create(f"/f{self.next_file}"))
            self.next_file += 1
            return
        fh = self.handles[arg % len(self.handles)]
        if kind == 1:
            fs.write(fh, (arg % 24) * PAGE_SIZE, (1 + arg % 3) * PAGE_SIZE - arg % 7)
        elif kind == 2 and fh.inode.size_bytes:
            fs.read(fh, (arg % 16) * PAGE_SIZE, 2 * PAGE_SIZE)
        elif kind == 3:
            expected = len(fs.cache_mgr.cache_for(fh.inode.ino).dirty_pages())
            assert fs.fsync(fh) == expected
        elif kind == 4:
            batch = 1 + arg % 5
            expected = reference_flush(fs, batch)
            flushed, cleaned = cleaned_by(lambda: self.daemon.flush(batch))
            assert cleaned == expected
            assert flushed == len(expected)
        elif kind == 5:
            self.handles.remove(fh)
            fs.close(fh)
            fs.unlink(fh.path)

    def check(self):
        self.fs.check_consistency()
        assert self.fs.dirty_page_count() == len(reference_flush(self.fs, 1 << 30))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    st.integers(min_value=4, max_value=24),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=1000),
        ),
        max_size=80,
    ),
)
def test_flush_matches_full_cache_walk(cap, tape):
    driver = _Driver(cap)
    for op, arg in tape:
        driver.step(op, arg)
        driver.check()
