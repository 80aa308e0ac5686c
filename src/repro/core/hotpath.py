"""Registry of the hand-flattened hot-path functions.

The per-operation paths (the single charge primitive
``Kernel._charge`` and its batched callers, incremental KLOC metadata,
inlined per-CPU lookups, constant-cost clock advances in the
allocators) are written for host speed; ``tests/golden`` pins their
simulated behaviour across commits.

Functions whose bodies were hand-flattened for the hot path are marked
with the :func:`hot` decorator. The decorator is a zero-cost no-op at
runtime (it records the qualname and returns the function unchanged);
its purpose is static: ``simlint``'s ``hotpath`` rule
(:mod:`repro.analysis.simlint`) walks every ``@hot``-marked function and
rejects allocation-building constructs (closures, lambdas,
comprehensions, generator expressions), self-recursion, and calls to
anything outside :data:`HOT_CALLEE_WHITELIST` — pinning the discipline
the hand-flattening established so later edits cannot silently
reintroduce per-call overhead.

To mark a new function hot: decorate it with ``@hot``, then extend the
whitelist with any callees it legitimately needs (each addition is a
reviewed, grep-able decision).
"""

from __future__ import annotations

from typing import Callable, Set, TypeVar

F = TypeVar("F", bound=Callable)

#: Qualnames of every function registered via :func:`hot`, for
#: introspection and the lint rule's "is anything registered?" check.
HOT_FUNCTIONS: Set[str] = set()

#: Callees a ``@hot`` function may invoke. Bare names cover builtins and
#: in-module constructors on the allocation paths; attribute names cover
#: the method calls the flattened bodies still make (other registered
#: hot functions, O(1) container operations, and the accounting hooks).
#: The ``simlint`` ``hotpath`` rule imports this set — extending it is
#: the explicit act of admitting a call onto the hot path. Calls inside
#: ``raise`` statements (error constructors) are always allowed.
HOT_CALLEE_WHITELIST: Set[str] = {
    # builtins / constructors (bare-name calls)
    "len",
    "int",
    "min",
    "max",
    "isinstance",
    "KernelObject",
    "PageFrame",
    "_SlabPage",
    "_KlocPage",
    # clock
    "advance",
    "_fire_due",
    "now",
    # O(1) container operations
    "get",
    "pop",
    "popitem",
    "append",
    "add",
    "discard",
    "remove",
    "insert",
    "delete",
    "setdefault",
    "move_to_end",
    "fits",
    # registered hot functions / same-layer accounting calls
    "access_cost_ns",
    "allocate",
    "free",
    "free_object",
    "record",
    "record_migration",
    "lookup",
    "_kmap_get",
    "_percpu_lookup",
    "note_access",
    "_note_metadata",
    "knode_for_inode",
    "add_obj",
    "remove_obj",
    "lifetime_ns",
    "_charge",
    "_tier",
    "_cache",
    "_make_frame",
    "_check_cpu",
    "_drop_holder",
    # sanitizer hooks (no-ops unless REPRO_SANITIZE=1; see repro.core.sanitize)
    "on_object_free",
    "on_frame_free",
    "on_area_free",
    "call_site",
    "check_object",
    "check_frame",
    "poison_object",
    "dead_object_error",
    "dead_frame_error",
}


def hot(fn: F) -> F:
    """Mark ``fn`` as a hot-path function (statically checked, zero cost).

    Returns ``fn`` unchanged — no wrapper frame, no indirection — after
    recording its qualname in :data:`HOT_FUNCTIONS`.
    """
    HOT_FUNCTIONS.add(fn.__qualname__)
    return fn

