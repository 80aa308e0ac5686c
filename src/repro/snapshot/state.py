"""The one blessed serialization path for simulated kernel state.

Every figure cell replays its workload's ``setup()`` load phase before
measuring, even when dozens of cells share a bit-identical warmed
kernel (ops-count sensitivity sweeps, capacity sweeps that only change
measurement-phase knobs, repeated bench reps). This module captures the
*complete* simulated machine after setup — clock and scheduled daemons,
tiers/topology with the frame indexes and referenced journal, all four
allocator families, the KLOC registry/knodes/per-CPU caches and their
incremental counters, the VFS and network object graphs, and the
workload's RNG streams — as one pickle graph, so a later run with the
same setup key can restore instead of replaying.

Why pickle is safe *here* and banned everywhere else (the simlint
``snapshot-path`` rule): correctness rests on class-level contracts that
this module owns and the equivalence suite enforces —

- the whole machine is serialized as **one object graph** (kernel +
  workload in a single ``dumps``), so every shared reference — the
  topology's tier map aliased by ``Kernel._tiers``, the frame journal
  aliased by every resident ``PageFrame``, the registry's coverage set
  aliased by ``Kernel._covered_types`` — is restored as the *same*
  shared object, not a copy;
- callbacks stored in live state (clock daemons, KLOC lifecycle hooks,
  radix-node alloc/free) must be bound methods or module-level
  functions, never closures — the lint rule keeps new closures out;
- identity-compared singletons (the rbtree ``NIL`` sentinel) define
  ``__reduce__`` to resolve back to the module singleton;
- enum members (``PageOwner``, ``KernelObjectType``) pickle by name,
  restoring the interned member, so ``is`` comparisons keep working.

Restored runs are **byte-identical** to cold runs:
``tests/experiments/test_snapshot_equivalence.py`` asserts full-payload
sha256 equality for every workload. ``REPRO_NO_SNAPSHOT=1`` disables
the path entirely (every run replays setup, the pre-snapshot behavior).
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import Any, Optional, Tuple

from repro.core.sanitize import sanitize_enabled

#: Snapshot container format version. Bump whenever the capture contract
#: changes shape (what is serialized, the header layout) so stale blobs
#: written by older code are ignored rather than misread. Orthogonal to
#: ``SIM_VERSION``, which tracks simulated *behavior*.
SNAPSHOT_FORMAT = "5"

#: Pinned pickle protocol: snapshots written by one interpreter must load
#: in any other CPython >= 3.8 this repo supports.
PICKLE_PROTOCOL = 4

#: Deep object graphs (rbtree/radix interiors, long allocator lists) can
#: exceed the default interpreter recursion limit during (de)serialization.
_RECURSION_LIMIT = 200_000


def snapshot_enabled() -> bool:  # simlint: config-site
    """True unless ``REPRO_NO_SNAPSHOT`` is set (to anything non-empty).

    Read at store-construction time, like every other ``REPRO_*`` knob.
    """
    return not os.environ.get("REPRO_NO_SNAPSHOT")


def mode_fingerprint() -> str:  # simlint: config-site
    """The construction-time mode flag baked into pickled objects.

    ``REPRO_SANITIZE`` is read when topologies are *built* and frozen
    into their structure (the sanitizer ledger every allocator and the
    KLOC manager share). A snapshot taken in one mode must never be
    restored into a run expecting the other, so the fingerprint is part
    of every setup key. Both modes are bit-identical in results —
    segregating them costs only duplicate snapshots, never wrong ones.
    """
    return f"san={int(sanitize_enabled())}"


def capture(kernel: Any, workload: Any) -> bytes:
    """Serialize a warmed (kernel, workload) pair into one snapshot blob.

    Called after ``workload.setup()`` returns; pure read — the live
    objects continue into the measurement phase untouched.
    """
    payload = {
        "format": SNAPSHOT_FORMAT,
        "state": (kernel, workload),
    }
    limit = sys.getrecursionlimit()
    if limit < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        return pickle.dumps(payload, protocol=PICKLE_PROTOCOL)
    finally:
        if limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(limit)


def restore(blob: bytes) -> Optional[Tuple[Any, Any]]:
    """Rebuild the (kernel, workload) pair from a snapshot blob.

    Returns ``None`` for anything unusable — truncated or corrupted
    bytes, a foreign pickle, a stale container format — so callers fall
    back to a cold setup instead of crashing. Only blobs this repo wrote
    into its own cache directory are ever loaded.
    """
    limit = sys.getrecursionlimit()
    if limit < _RECURSION_LIMIT:
        sys.setrecursionlimit(_RECURSION_LIMIT)
    try:
        payload = pickle.loads(blob)
    except Exception:  # corrupted/truncated/foreign blob: treat as a miss
        return None
    finally:
        if limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(limit)
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != SNAPSHOT_FORMAT:
        return None
    state = payload.get("state")
    if not isinstance(state, tuple) or len(state) != 2:
        return None
    return state
