#!/usr/bin/env python3
"""Record payload digests for the digest gate in ``digests.json``.

Usage (from the repository root)::

    python3 perfbench/bless.py --seeds 0-99,2026 --workers 2

Each (workload, seed) missing for the current ``SIM_VERSION`` is run once
as a benchmark cell and its digest recorded. Entries are only ever added,
never rewritten, so a change to simulated behaviour shows up as a digest
mismatch in the benchmark until ``SIM_VERSION`` is bumped, which starts a
fresh set of entries.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _init_worker() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _digest(job: Tuple[str, int, str]) -> Tuple[str, int, str]:
    from cells import SPECS, run_cell

    workload, seed, tmp = job
    cell = run_cell(SPECS[workload], seed, Path(tmp), restores=0)
    return workload, seed, cell.digest


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return list(dict.fromkeys(seeds))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-99,2026")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()

    _init_worker()
    from cells import SPECS, DigestTable

    table = DigestTable(HERE / "digests.json")
    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    jobs = [
        (name, seed, str(tmp))
        for seed in parse_seeds(args.seeds)
        for name in SPECS
        if table.get(name, seed) is None
    ]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.workers, initializer=_init_worker) as pool:
        for workload, seed, digest in pool.imap_unordered(_digest, jobs):
            table.put(workload, seed, digest)
            table.write()
            print(f"{workload} seed {seed} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
