#!/usr/bin/env python3
"""The repo benchmark: one figure cell per workload, closed loop, host time
and simulated throughput end to end, per-layer self time in a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cassandra-klocs --seed 42 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 35

``--trace 0`` repeats the cell (each time with a fresh, empty snapshot
store) until ``--seconds`` is used up and prints the end-to-end metrics.
``--trace 1`` alternates an untraced and a traced cell and prints the
per-layer metrics. Every cell's payload digest is checked against
``digests.json``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs each workload in its own process and prints one table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"

#: Seconds per calibration tick on the reference host. A cell's calibrated
#: host times are its raw times scaled by CALIB_REF_S / its mean tick.
CALIB_REF_S = 0.0001
#: Which form of the host-time metrics the end-to-end output carries
#: ("raw" or "calibrated"); the detail line always has both.
GATED_HOST_FORM = "calibrated"
#: setup_s and restore_s are medians of at least this many samples; cells
#: too few to supply them are topped up with minimal-ops setup probes.
MIN_SETUP_SAMPLES = 12

#: End-to-end metric → unit.
END_TO_END: Dict[str, str] = {
    "cell_s": "s",
    "run_ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail1pct_us": "us",
    "setup_s": "s",
    "restore_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "1/s",
}

#: Per-layer metric → unit. Self times are seconds per traced cell.
PER_LAYER: Dict[str, str] = {
    "workloads.self_s": "s",
    "kernel.calls": "count",
    "kernel.self_s": "s",
    "kernel.touch.calls": "count",
    "kernel.touch.self_s": "s",
    "kernel.syscalls": "count",
    "kernel.syscall.self_s": "s",
    "kloc.calls": "count",
    "kloc.self_s": "s",
    "kloc.migrationd.runs": "count",
    "kloc.migrationd.self_s": "s",
    "alloc.calls": "count",
    "alloc.self_s": "s",
    "mem.calls": "count",
    "mem.self_s": "s",
    "mem.migrate.calls": "count",
    "mem.migrate.self_s": "s",
    "vfs.calls": "count",
    "vfs.self_s": "s",
    "vfs.writeback.runs": "count",
    "vfs.writeback.self_s": "s",
    "net.calls": "count",
    "net.self_s": "s",
    "policies.lru_scan.runs": "count",
    "policies.lru_scan.self_s": "s",
    "policies.lru_scan.moved_per_scanned": "ratio",
    "policies.autonuma_scan.runs": "count",
    "policies.autonuma_scan.self_s": "s",
    "core.clock_advance.calls": "count",
    "core.clock_advance.self_s": "s",
    "snapshot.save_s": "s",
    "snapshot.load_s": "s",
    "snapshot.bytes": "B",
    "report.self_s": "s",
    "sim.fast_ref_fraction": "ratio",
    "sim.kernel_ref_fraction": "ratio",
    "sim.migrations_down": "count",
    "sim.migrations_up": "count",
    "sim.slow_allocs": "count",
    "sim.storage_ns": "ns",
    "sim.kloc_metadata_peak_bytes": "B",
    "sim.hwcache_hit_rate": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class DigestGate:
    """Checks each cell's digest against the recorded one for its
    (SIM_VERSION, workload, seed). A seed with no recorded digest is
    checked for agreement across the run's cells instead, and says so."""

    def __init__(self, table: Any, workload: str, seed: int) -> None:
        self.expected = table.get(workload, seed)
        self.source = "recorded" if self.expected is not None else "self"
        if self.expected is None:
            print(
                f"perfbench: no recorded digest for {workload} seed {seed}; "
                "checking the run's cells against each other",
                file=sys.stderr,
            )

    def ok(self, digest: str) -> bool:
        if self.expected is None:
            self.expected = digest
        return digest == self.expected


class Run:
    """Counts attempts and failures and owns the run's scratch directory."""

    def __init__(self, spec: Any, seed: int) -> None:
        from cells import DigestTable

        self.spec = spec
        self.seed = seed
        self.gate = DigestGate(DigestTable(DIGESTS), spec.name, seed)
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def cell(self, **kwargs: Any) -> Any:
        """One gated cell; ``None`` if it raised."""
        from cells import run_cell

        self.attempted += 1
        try:
            cell = run_cell(self.spec, self.seed, self.tmp, **kwargs)
        except Exception:  # a failed cell is counted and reported, not fatal
            traceback.print_exc()
            self.failed += 1
            self.notes.append("cell raised")
            return None
        if not self.gate.ok(cell.digest):
            self.failed += 1
            self.notes.append(f"digest mismatch: {cell.digest}")
        return cell


def _keep_going(started: float, units_done: int, seconds: float) -> bool:
    """Closed loop: start another cell only if it should end in time."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / units_done <= seconds


def host_metrics(
    units: List[Any], n_cells: int, run_f: List[float], setup_f: List[float],
    restore_f: List[float],
) -> Dict[str, float]:
    """Host-time metrics of a run's units (cells, then setup probes). Each
    unit's run-phase, setup and restore times are multiplied by its entry
    of ``run_f``, ``setup_f`` and ``restore_f``."""
    cells = list(zip(units[:n_cells], run_f))
    ops = sorted(ns * f for c, f in cells for ns in c.op_ns)
    tail = ops[math.ceil(0.99 * len(ops)) - 1:]
    return {
        "cell_s": statistics.median(c.cell_s * f for c, f in cells),
        "run_ops_per_s": statistics.median(c.run_ops / (c.run_s * f) for c, f in cells),
        "op_p50_us": percentile(ops, 0.50) / 1e3,
        "op_p99_us": percentile(ops, 0.99) / 1e3,
        "op_tail1pct_us": sum(tail) / len(tail) / 1e3,
        "setup_s": statistics.median(c.setup_s * f for c, f in zip(units, setup_f)),
        "restore_s": statistics.median(
            r * f for c, f in zip(units, restore_f) for r in c.restore_s
        ),
    }


def measure(run: Run, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Untraced cells until ``seconds`` is used up; end-to-end metrics.

    Each host time is calibrated with the calibration nearest to it: the
    run phase with the mean of the ticks taken inside it, setup (the start
    of a unit) with the calibration run just before the unit, restore
    (its end) with the one run just after it.
    """
    from cells import calibrate, setup_probe

    calibs = [calibrate()]
    units = []
    started = time.perf_counter()
    while True:
        cell = run.cell()
        if cell is None:
            break
        units.append(cell)
        calibs.append(calibrate())
        if not _keep_going(started, len(units), seconds):
            break
    if not units:
        return {}, {"notes": run.notes}
    n_cells = len(units)
    while len(units) < MIN_SETUP_SAMPLES:
        units.append(setup_probe(run.spec, run.seed, run.tmp))
        calibs.append(calibrate())
    throughputs = {c.sim_ops_per_s for c in units[:n_cells]}
    if len(throughputs) != 1:
        run.failed += 1
        run.notes.append(f"simulated throughput not repeatable: {sorted(throughputs)}")
    common = {"peak_rss_mb": peak_rss_mb(), "sim_ops_per_s": units[0].sim_ops_per_s}
    ones = [1.0] * len(units)
    raw = {**host_metrics(units, n_cells, ones, ones, ones), **common}
    tick_s = [sum(c.tick_ns) / len(c.tick_ns) / 1e9 for c in units[:n_cells]]
    calibrated = {
        **host_metrics(
            units,
            n_cells,
            [CALIB_REF_S / t for t in tick_s],
            [CALIB_REF_S / t for t in calibs[:-1]],
            [CALIB_REF_S / t for t in calibs[1:]],
        ),
        **common,
    }
    detail = {
        "cells": n_cells,
        "op_samples": sum(len(c.op_ns) for c in units[:n_cells]),
        "setup_samples": len(units),
        "restore_samples": sum(len(c.restore_s) for c in units),
        "cell_s_each": [c.cell_s for c in units[:n_cells]],
        "op_p50_us_each": [
            percentile(sorted(c.op_ns), 0.50) / 1e3 for c in units[:n_cells]
        ],
        "op_p99_us_each": [
            percentile(sorted(c.op_ns), 0.99) / 1e3 for c in units[:n_cells]
        ],
        "setup_s_each": [c.setup_s for c in units],
        "host_calib_s": statistics.median(tick_s),
        "host_calib_ticks_each": tick_s,
        "host_calib_between_units": calibs,
        "ticks": sum(len(c.tick_ns) for c in units),
        "raw": raw,
        "calibrated": calibrated,
        "gated_form": GATED_HOST_FORM,
        "digest": units[0].digest,
        "digest_source": run.gate.source,
        "sim": units[0].sim,
        "notes": run.notes,
    }
    return (raw if GATED_HOST_FORM == "raw" else calibrated), detail


def measure_traced(run: Run, seconds: float) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Pairs of (untraced, traced) cells until ``seconds`` is used up;
    per-layer metrics from the traced cells."""
    import layertrace
    from repro.workloads import WORKLOADS

    plain, traced, recorders = [], [], []
    started = time.perf_counter()
    while True:
        cell = run.cell()
        if cell is None:
            break
        plain.append(cell)
        installed = layertrace.Installed(list(WORKLOADS.values()))
        recorder = layertrace.Recorder()
        layertrace.activate(recorder)
        try:
            cell = run.cell(restores=1)
        finally:
            layertrace.activate(None)
            installed.undo()
        if cell is None:
            break
        traced.append(cell)
        recorders.append(recorder)
        if cell.digest != plain[0].digest or cell.sim != plain[0].sim:
            run.failed += 1
            run.notes.append("traced cell differs from the untraced one")
        if not _keep_going(started, len(traced), seconds):
            break
    if not traced:
        return {}, {"notes": run.notes}

    rec = recorders[0]
    calls = dict(rec.calls)
    for other in recorders[1:]:
        if dict(other.calls) != calls:
            run.failed += 1
            run.notes.append("traced call counts not repeatable")

    def self_s(layer: str) -> float:
        return statistics.median(r.self_ns.get(layer, 0) for r in recorders) / 1e9

    metrics: Dict[str, float] = {"workloads.self_s": self_s("workloads")}
    for layer, count in (
        ("kernel", "kernel.calls"),
        ("kernel.touch", "kernel.touch.calls"),
        ("kernel.syscall", "kernel.syscalls"),
        ("kloc", "kloc.calls"),
        ("kloc.migrationd", "kloc.migrationd.runs"),
        ("alloc", "alloc.calls"),
        ("mem", "mem.calls"),
        ("mem.migrate", "mem.migrate.calls"),
        ("vfs", "vfs.calls"),
        ("vfs.writeback", "vfs.writeback.runs"),
        ("net", "net.calls"),
        ("policies.lru_scan", "policies.lru_scan.runs"),
        ("policies.autonuma_scan", "policies.autonuma_scan.runs"),
        ("core.clock_advance", "core.clock_advance.calls"),
    ):
        metrics[count] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s(layer)
    metrics["policies.lru_scan.moved_per_scanned"] = (
        rec.lru_moved / rec.lru_scanned if rec.lru_scanned else 0.0
    )
    metrics["snapshot.save_s"] = statistics.median(c.save_s for c in plain)
    metrics["snapshot.load_s"] = statistics.median(r for c in plain for r in c.restore_s)
    metrics["snapshot.bytes"] = plain[0].snapshot_bytes
    metrics["report.self_s"] = self_s("report")
    metrics.update(traced[0].sim)
    metrics["trace.coverage"] = statistics.median(
        sum(r.self_ns.values()) / 1e9 / c.cell_s for r, c in zip(recorders, traced)
    )
    metrics["trace.overhead"] = statistics.median(
        c.run_s / c.run_ops for c in traced
    ) / statistics.median(c.run_s / c.run_ops for c in plain)

    for layer in run.spec.must_exercise:
        if calls.get(layer, 0) == 0:
            run.failed += 1
            run.notes.append(f"layer {layer} was not exercised")
    if run.spec.kloc_bypass and (calls.get("kloc", 0) or calls.get("kloc.migrationd", 0)):
        run.failed += 1
        run.notes.append("kloc layer called on a bypass workload")
    detail = {
        "pairs": len(traced),
        "digest": plain[0].digest,
        "digest_source": run.gate.source,
        "layers_called": sorted(calls),
        "notes": run.notes,
    }
    return metrics, detail


def print_table(title: str, rows: List[Tuple[str, Any, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>16} {unit}")


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    from cells import SPECS

    spec = SPECS[workload]
    run = Run(spec, seed)
    try:
        if trace:
            metrics, detail = measure_traced(run, seconds)
            units = PER_LAYER
        else:
            metrics, detail = measure(run, seconds)
            units = END_TO_END
    finally:
        run.close()
    rows = [(name, metrics[name], unit) for name, unit in units.items() if name in metrics]
    print_table(f"{workload} seed={seed} trace={int(trace)}", rows)
    if "op_samples" in detail:
        print(f"  op latency samples: {detail['op_samples']}, of which "
              f"{detail['op_samples'] // 100} in the slowest 1%; "
              f"op_p99_us {metrics['op_p99_us']:.6g} us (reported, not gated)")
        print(f"  setup samples: {detail['setup_samples']}, "
              f"restore samples: {detail['restore_samples']}, "
              f"host_calib_s: {detail['host_calib_s']:.6g} s, "
              f"gated form: {GATED_HOST_FORM}")
    print(f"  failure share: {run.failed}/{run.attempted}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": run.failed == 0 and all(name in metrics for name in units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one summary table at the end."""
    from cells import SPECS

    summary: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    for name in SPECS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            correct = False
            continue
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, value in result["metrics"].items():
            summary[f"{name}/{metric}"] = value
    print()
    print_table(
        f"all workloads seed={seed} trace={int(trace)} — failure share {failed}/{attempted}",
        [(k, v["value"], v["unit"]) for k, v in summary.items()],
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0 if correct else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Pin the default user path: no env knob may switch code paths, resize
    # op budgets or reseed the run (the seed comes from --seed only).
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(ROOT / "src"))

    from cells import SPECS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(SPECS)} or all")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
