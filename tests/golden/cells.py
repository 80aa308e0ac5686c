"""Golden payload digests: simulated behaviour pinned across commits.

Each cell below runs a small, fixed experiment and reduces everything it
observed to one sha256 over canonical JSON. ``digests.json`` stores the
digests per ``SIM_VERSION``; ``test_golden.py`` recomputes every cell and
compares. A refactor that leaves behaviour alone passes unchanged; a
change that alters any payload, charge counter or traced event must bump
``SIM_VERSION`` and record a new key.

The cells:

* ``two_tier/cassandra/<policy>`` — ``run_to_payload(run_two_tier(...))``
  at 600 ops for klocs, nimble++ and nimble (object, frame and batched
  charges, the KLOC daemon and both LRU scanner flavours).
* ``two_tier/<workload>/klocs`` — the same payload for rocksdb, spark,
  filebench and redis at 600 ops, and ``two_tier/cassandra/klocs@2000``
  at 2000 ops. All but redis are *daemon cells*: their KLOC migration
  daemon moves pages (at 600 ops the cassandra cell's daemon passes move
  none), so they pin the order in which the daemon picks a knode's
  frames. ``test_golden.py`` checks that each daemon cell's daemon moved
  at least a page.
* ``optane/<workload>/<policy>`` — ``run_optane_interference`` at 600 ops
  for cassandra and redis under autonuma, all_local and all_remote, hashed
  together with the kernel's charge counters: hardware DRAM cache
  hits/misses/evictions, local/remote accesses, tier bytes, reference
  counts, ``refs_by_tier``, ``access_ns_by`` and the final clock.
* ``trace/rocksdb/klocs`` — the ``(ts, category, name, fields)`` event
  stream of the traced rocksdb/klocs run that ``test_cross_accounting``
  checks (alloc, free and knode tracepoints).
* ``trace/cassandra/klocs`` — the event stream of the
  ``two_tier/cassandra/klocs`` cell run with a tracer attached and every
  category enabled.

Record the digests for a new ``SIM_VERSION``, or for cells added since
the current one was recorded, with::

    PYTHONPATH=src python -m tests.golden.cells

The recorder adds a missing ``SIM_VERSION`` key, or the missing cells
under an existing key, and never rewrites a recorded digest: a behaviour
change always shows up as a version bump. Record new cells on the commit
before the change they are meant to check.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.core.trace import Tracer
from repro.core.version import SIM_VERSION
from repro.experiments.cache import run_to_payload

DIGESTS = Path(__file__).with_name("digests.json")

OPS = 600
SEED = 42
TWO_TIER_POLICIES = ("klocs", "nimble++", "nimble")
#: Cell name → (workload, ops) of a further two-tier klocs run.
KLOC_CELLS = {
    "two_tier/rocksdb/klocs": ("rocksdb", OPS),
    "two_tier/spark/klocs": ("spark", OPS),
    "two_tier/filebench/klocs": ("filebench", OPS),
    "two_tier/redis/klocs": ("redis", OPS),
    "two_tier/cassandra/klocs@2000": ("cassandra", 2000),
}
#: The KLOC cells whose migration daemon moves pages.
DAEMON_CELLS = (
    "two_tier/rocksdb/klocs",
    "two_tier/spark/klocs",
    "two_tier/filebench/klocs",
    "two_tier/cassandra/klocs@2000",
)
OPTANE_WORKLOADS = ("cassandra", "redis")
OPTANE_POLICIES = ("autonuma", "all_local", "all_remote")

#: Large enough that no traced cell ever wraps the ring buffer.
TRACE_CAPACITY = 1 << 22


def digest(obj: Any) -> str:
    """sha256 over canonical JSON (sorted keys, no whitespace)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@contextmanager
def _no_result_cache() -> Iterator[None]:
    """Cold runs only: no cached payloads, no restored snapshots."""
    old = os.environ.get("REPRO_NO_CACHE")
    os.environ["REPRO_NO_CACHE"] = "1"
    try:
        yield
    finally:
        if old is None:
            del os.environ["REPRO_NO_CACHE"]
        else:
            os.environ["REPRO_NO_CACHE"] = old


@contextmanager
def _wrapped(module: Any, name: str, after: Callable[[Any], None]) -> Iterator[None]:
    """Temporarily wrap ``module.name`` (a kernel builder) so ``after``
    sees every kernel it builds."""
    real = getattr(module, name)

    def build(*args: Any, **kwargs: Any) -> Any:
        kernel, policy = real(*args, **kwargs)
        after(kernel)
        return kernel, policy

    setattr(module, name, build)
    try:
        yield
    finally:
        setattr(module, name, real)


def two_tier_payload(workload: str, policy: str, ops: int = OPS) -> Dict[str, Any]:
    from repro.experiments.runner import run_two_tier

    with _no_result_cache():
        return run_to_payload(
            run_two_tier(workload=workload, policy=policy, ops=ops, run_seed=SEED)
        )


def kloc_cell(name: str) -> Tuple[Dict[str, Any], int]:
    """A KLOC cell's payload and the pages its migration daemon moved
    (downgrades plus upgrades, setup phase included)."""
    import repro.experiments.runner as runner

    workload, ops = KLOC_CELLS[name]
    built: List[Any] = []
    with _wrapped(runner, "build_two_tier_kernel", built.append):
        payload = two_tier_payload(workload, "klocs", ops)
    (kernel,) = built
    daemon = kernel.kloc_daemon
    return payload, daemon.downgraded_pages + daemon.upgraded_pages


def kernel_counters(kernel: Any) -> Dict[str, Any]:
    """Everything the charge path writes, in canonical JSON form."""
    nodes = {}
    for name, node in sorted(kernel.nodes.items()):
        cache = node.hw_cache
        nodes[name] = [
            node.local_accesses,
            node.remote_accesses,
            node.tier.bytes_read,
            node.tier.bytes_written,
            None if cache is None else [cache.hits, cache.misses, cache.evictions],
        ]
    return {
        "now": kernel.clock.now(),
        "nodes": nodes,
        "refs": [
            kernel.kernel_refs,
            kernel.kernel_ref_bytes,
            kernel.app_refs,
            kernel.app_ref_bytes,
        ],
        "refs_by_tier": sorted(
            [tier, is_kernel, n] for (tier, is_kernel), n in kernel.refs_by_tier.items()
        ),
        "access_ns_by": sorted(
            [owner.value, tier, ns] for (owner, tier), ns in kernel.access_ns_by.items()
        ),
    }


def optane_observation(workload: str, policy: str) -> Dict[str, Any]:
    import repro.platforms.optane as optane
    from repro.experiments.runner import run_optane_interference

    built: List[Any] = []
    with _no_result_cache(), _wrapped(optane, "build_optane_kernel", built.append):
        throughput = run_optane_interference(workload, policy, OPS, run_seed=SEED)
    (kernel,) = built
    return {"throughput": throughput, "counters": kernel_counters(kernel)}


def event_stream(tracer: Tracer) -> List[Any]:
    if tracer.dropped:
        raise AssertionError(f"trace buffer wrapped ({tracer.dropped} dropped)")
    return [
        [e.timestamp_ns, e.category, e.name, [list(kv) for kv in e.fields]]
        for e in tracer.query()
    ]


def traced_two_tier(workload: str, policy: str) -> Tuple[Dict[str, Any], Tracer]:
    """The two-tier cell with a tracer attached from kernel construction
    on (every category enabled): its payload and its tracer."""
    import repro.experiments.runner as runner

    tracer = Tracer(capacity=TRACE_CAPACITY)
    tracer.enable("*")

    def attach(kernel: Any) -> None:
        kernel.tracer = tracer

    with _wrapped(runner, "build_two_tier_kernel", attach):
        payload = two_tier_payload(workload, policy)
    return payload, tracer


def traced_rocksdb_events() -> List[Any]:
    """``test_cross_accounting``'s traced rocksdb/klocs run."""
    from repro.experiments.runner import make_workload
    from repro.platforms.twotier import build_two_tier_kernel

    scale = 4096
    kernel, _ = build_two_tier_kernel("klocs", scale_factor=scale)
    tracer = Tracer(capacity=TRACE_CAPACITY)
    tracer.enable("alloc", "free", "knode")
    kernel.tracer = tracer
    wl = make_workload(kernel, "rocksdb", scale_factor=scale)
    wl.setup()
    wl.run(800)
    return event_stream(tracer)


def _cells() -> Dict[str, Callable[[], Any]]:
    cells: Dict[str, Callable[[], Any]] = {}
    for policy in TWO_TIER_POLICIES:
        cells[f"two_tier/cassandra/{policy}"] = (
            lambda p=policy: two_tier_payload("cassandra", p)
        )
    for name in KLOC_CELLS:
        cells[name] = lambda n=name: kloc_cell(n)[0]
    for workload in OPTANE_WORKLOADS:
        for policy in OPTANE_POLICIES:
            cells[f"optane/{workload}/{policy}"] = (
                lambda w=workload, p=policy: optane_observation(w, p)
            )
    cells["trace/rocksdb/klocs"] = traced_rocksdb_events
    cells["trace/cassandra/klocs"] = (
        lambda: event_stream(traced_two_tier("cassandra", "klocs")[1])
    )
    return cells


#: Cell name → zero-argument function returning the cell's observation.
CELLS = _cells()


def compute(name: str) -> str:
    return digest(CELLS[name]())


def recorded() -> Dict[str, str]:
    """The committed digests for the current ``SIM_VERSION`` ({} if none)."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(SIM_VERSION, {})


def main() -> int:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    entry = table.setdefault(SIM_VERSION, {})
    missing = [name for name in CELLS if name not in entry]
    if not missing:
        print(
            f"golden: every cell is recorded for SIM_VERSION {SIM_VERSION!r}; "
            "bump SIM_VERSION to record new digests",
            file=sys.stderr,
        )
        return 1
    for name in missing:
        entry[name] = compute(name)
        print(f"{name} {entry[name]}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
