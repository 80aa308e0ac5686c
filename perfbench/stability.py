#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, raw and calibrated.

Usage (from the repository root)::

    python3 perfbench/stability.py --seeds 1-10 --seconds 35 --out stability.json

Runs the benchmark once per seed on each workload (sequentially, one
process per run) and reports, per metric, the spread of the ten values:
the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of their median. Both
the raw host times and the calibrated ones (scaled by the run's
calibration loop) are reported, so the steadier form can be gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from bless import parse_seeds  # noqa: E402


def spread(values: List[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="cassandra-klocs,rocksdb-nimble,redis-autonuma-optane")
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--out", type=Path, help="write every run's output here as JSON")
    args = parser.parse_args()

    runs: Dict[str, List[dict]] = {}
    ok = True
    for name in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name} seed {seed}: run failed", file=sys.stderr)
                ok = False
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            runs.setdefault(name, []).append({"seed": seed, "result": result, "detail": detail})
            print(f"{name} seed {seed}: cells {detail['cells']} "
                  f"calib {detail['host_calib_s']:.4g}s "
                  f"cell_s {detail['raw']['cell_s']:.3f} failed {result['failed']}",
                  flush=True)

    report: Dict[str, Dict[str, Dict[str, float]]] = {}
    for name, entries in runs.items():
        if len(entries) < 2:
            continue
        report[name] = {}
        for metric in entries[0]["detail"]["raw"]:
            raw = [e["detail"]["raw"][metric] for e in entries]
            cal = [e["detail"]["calibrated"][metric] for e in entries]
            report[name][metric] = {
                "median_raw": statistics.median(raw),
                "spread_raw": spread(raw),
                "spread_calibrated": spread(cal),
            }
        calib = [e["detail"]["host_calib_s"] for e in entries]
        report[name]["host_calib_s"] = {
            "median_raw": statistics.median(calib),
            "spread_raw": spread(calib),
            "spread_calibrated": 0.0,
        }
    for name, metrics in report.items():
        print(f"\n{name}: spread = IQR / median over {len(runs[name])} runs")
        print(f"  {'metric':<16} {'median':>14} {'raw':>8} {'calibrated':>11}")
        for metric, row in metrics.items():
            print(f"  {metric:<16} {row['median_raw']:>14.6g} "
                  f"{row['spread_raw']:>8.4f} {row['spread_calibrated']:>11.4f}")
    if args.out:
        args.out.write_text(json.dumps({"runs": runs, "spreads": report}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
