"""Unit tests for the snapshot store, the cache size budget, and the
cache maintenance CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.cache import ResultCache, two_tier_spec
from repro.kernel.kernel import Kernel
from repro.platforms.twotier import build_two_tier_kernel
from repro.snapshot import (
    SnapshotStore,
    cache_max_mb,
    enforce_size_limit,
    setup_key,
    usage,
)
from repro.snapshot.state import SNAPSHOT_FORMAT, capture, restore


def warmed_pair():
    from repro.experiments.runner import make_workload

    kernel, _pol = build_two_tier_kernel("klocs", retired_limit=0)
    wl = make_workload(kernel, "rocksdb")
    wl.setup()
    return kernel, wl


KEY = setup_key(
    kind="two_tier",
    workload="rocksdb",
    policy="klocs",
    scale_factor=1024,
    seed=42,
)


class TestCaptureRestore:
    def test_round_trip_preserves_graph(self):
        kernel, wl = warmed_pair()
        clock_before = kernel.clock.now()
        k2, w2 = restore(capture(kernel, wl))
        assert isinstance(k2, Kernel)
        assert k2.clock.now() == clock_before
        # The restored workload must drive the restored kernel, not a
        # twin: pickling them as one graph preserves the shared edge.
        assert w2.kernel is k2
        assert k2._tiers is k2.topology.tiers

    def test_restore_rejects_garbage(self):
        assert restore(b"not a pickle") is None
        assert restore(b"") is None

    def test_restore_rejects_wrong_shape(self):
        import pickle  # simlint: ok[snapshot-path] testing the blessed path

        assert restore(pickle.dumps({"format": SNAPSHOT_FORMAT, "state": "scalar"})) is None
        assert restore(pickle.dumps(["no", "header"])) is None


class TestSetupKey:
    def test_digest_is_stable_and_filename_short(self):
        again = setup_key(
            kind="two_tier",
            workload="rocksdb",
            policy="klocs",
            scale_factor=1024,
            seed=42,
        )
        assert again == KEY
        assert KEY.filename() == f"rocksdb-klocs-{KEY.digest[:20]}.snap"

    @pytest.mark.parametrize(
        "override",
        [
            {"kind": "optane"},
            {"workload": "redis"},
            {"policy": "naive"},
            {"scale_factor": 2048},
            {"seed": 43},
            {"bandwidth_ratio": 4},
            {"fast_bytes_paper": 1 << 30},
            {"readahead_enabled": False},
            {"retired_limit": 100},
        ],
    )
    def test_every_setup_knob_moves_the_digest(self, override):
        base = dict(
            kind="two_tier",
            workload="rocksdb",
            policy="klocs",
            scale_factor=1024,
            seed=42,
        )
        base.update(override)
        assert setup_key(**base).digest != KEY.digest

    def test_ops_is_not_part_of_the_key(self):
        """The whole point: every ops point shares one warmed kernel, so
        the key function does not even accept measurement knobs."""
        import inspect

        params = inspect.signature(setup_key).parameters
        assert "ops" not in params
        assert "measure_setup" not in params


class TestSnapshotStore:
    def test_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path, enabled=True)
        kernel, wl = warmed_pair()
        store.save(KEY, kernel, wl)
        assert store.stores == 1
        loaded = store.load(KEY)
        assert loaded is not None
        k2, w2 = loaded
        assert store.hits == 1
        assert w2.kernel is k2

    def test_miss_on_empty_store(self, tmp_path):
        store = SnapshotStore(tmp_path, enabled=True)
        assert store.load(KEY) is None
        assert store.misses == 1

    def test_disabled_store_is_inert(self, tmp_path):
        store = SnapshotStore(tmp_path, enabled=False)
        kernel, wl = warmed_pair()
        store.save(KEY, kernel, wl)
        assert list(tmp_path.glob("*.snap")) == []
        assert store.load(KEY) is None

    def test_clear(self, tmp_path):
        store = SnapshotStore(tmp_path, enabled=True)
        kernel, wl = warmed_pair()
        store.save(KEY, kernel, wl)
        assert store.clear() == 1
        assert store.load(KEY) is None


def make_file(path: Path, size: int, mtime: float) -> Path:
    path.write_bytes(b"x" * size)
    os.utime(path, (mtime, mtime))
    return path


_MB = 1 << 20


class TestBudget:
    def test_cache_max_mb_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert cache_max_mb() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "64")
        assert cache_max_mb() == 64
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "nope")
        with pytest.raises(ValueError):
            cache_max_mb()
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "-1")
        with pytest.raises(ValueError):
            cache_max_mb()

    def test_unbounded_touches_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        make_file(tmp_path / "a.json", 2 * _MB, 100)
        assert enforce_size_limit(tmp_path) == []
        assert (tmp_path / "a.json").exists()

    def test_evicts_oldest_first_across_subdirs(self, tmp_path):
        (tmp_path / "snapshots").mkdir()
        old = make_file(tmp_path / "snapshots" / "old.snap", _MB, 100)
        mid = make_file(tmp_path / "mid.json", _MB, 200)
        new = make_file(tmp_path / "new.json", _MB, 300)
        evicted = enforce_size_limit(tmp_path, max_mb=2)
        assert evicted == [old]
        assert not old.exists() and mid.exists() and new.exists()

    def test_mtime_tie_breaks_by_name(self, tmp_path):
        b = make_file(tmp_path / "b.json", _MB, 100)
        a = make_file(tmp_path / "a.json", _MB, 100)
        evicted = enforce_size_limit(tmp_path, max_mb=1)
        assert evicted == [a]
        assert b.exists()

    def test_ignores_foreign_files(self, tmp_path):
        keep = make_file(tmp_path / "notes.txt", 4 * _MB, 100)
        make_file(tmp_path / "a.json", _MB, 200)
        assert enforce_size_limit(tmp_path, max_mb=8) == []
        assert keep.exists()

    def test_usage_counts_cache_files_only(self, tmp_path):
        make_file(tmp_path / "a.json", 10, 100)
        make_file(tmp_path / "b.snap", 20, 100)
        make_file(tmp_path / "other.txt", 1000, 100)
        assert usage(tmp_path) == {"files": 2, "bytes": 30}

    def test_result_cache_store_enforces_budget(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        cache = ResultCache(tmp_path, enabled=True)
        filler = make_file(tmp_path / "snapshots.snap", 2 * _MB, 100)
        (tmp_path / "snapshots.snap").rename(tmp_path / "old.snap")
        spec = two_tier_spec("rocksdb", "klocs", ops=10)
        cache.store(spec, {"kind": "two_tier"})
        assert not (tmp_path / "old.snap").exists()
        assert cache.load(spec) is not None
        del filler


class TestMaintenanceCli:
    def run_cli(self, *args, cache_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *args],
            capture_output=True,
            text=True,
            env=env,
        )

    def test_cache_info_reports_both_stores(self, tmp_path):
        (tmp_path / "snapshots").mkdir(parents=True)
        make_file(tmp_path / "res.json", 1024, 100)
        make_file(tmp_path / "snapshots" / "s.snap", 2048, 100)
        proc = self.run_cli("--cache-info", cache_dir=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "results:       1 file(s)" in proc.stdout
        assert "snapshots:     1 file(s)" in proc.stdout
        assert "unbounded" in proc.stdout

    def test_cache_clear_empties_both_stores(self, tmp_path):
        (tmp_path / "snapshots").mkdir(parents=True)
        make_file(tmp_path / "res.json", 1024, 100)
        make_file(tmp_path / "snapshots" / "s.snap", 2048, 100)
        proc = self.run_cli("--cache-clear", cache_dir=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "cleared: 1 result(s), 1 snapshot(s)" in proc.stdout
        assert list(tmp_path.rglob("*.json")) == []
        assert list(tmp_path.rglob("*.snap")) == []

    def test_missing_experiment_errors(self, tmp_path):
        proc = self.run_cli(cache_dir=tmp_path)
        assert proc.returncode == 2
        assert "experiment id is required" in proc.stderr

    def test_in_process_cache_info(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert experiments_main(["--cache-info"]) == 0
        out = capsys.readouterr().out
        assert "budget:    unbounded" in out
