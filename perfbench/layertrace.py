"""Outside-in per-layer tracing: spans around the public functions of each
``repro.*`` package, installed from the benchmark's own files.

Each wrapped call is a span. A layer's self time is the sum of its spans'
durations minus the part covered by nested wrapped spans, so self times
add up to the traced wall time that falls inside any span.

Path neutrality is the design constraint — a traced cell must produce the
same payload digest as an untraced one:

* wrappers are installed before the kernel is built, so bound methods the
  simulator caches at construction are the wrapped ones;
* ``repro.core.trace.Tracer`` is never attached, because an attached
  tracer makes ``Kernel.begin_access_batch`` return ``None`` and switches
  the charge path;
* periodic daemon callbacks are wrapped in :class:`Tick`, a module-level
  picklable callable holding only the layer name and the callback (a
  closure would break the snapshot save). For the same reason the active
  recorder is a module-level slot, not a reference stored in the kernel.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from cells import Patches

perf_ns = time.perf_counter_ns

#: Every public function not starting with ``_`` defined on the class.
PUBLIC = None

#: (layer, module, class, methods or PUBLIC).
METHOD_TARGETS: Tuple[Tuple[str, str, str, Optional[Tuple[str, ...]]], ...] = (
    ("kernel", "repro.kernel.kernel", "Kernel", (
        "alloc_object", "free_object", "access_object", "access_frame",
        "access_frames", "alloc_app_pages", "free_app_pages",
    )),
    ("kernel.touch", "repro.kernel.process", "Process", ("touch",)),
    ("kernel.syscall", "repro.kernel.syscalls", "SyscallInterface", PUBLIC),
    ("kloc", "repro.kloc.manager", "KlocManager", PUBLIC),
    ("alloc", "repro.alloc.slab", "SlabAllocator", ("alloc", "free")),
    ("alloc", "repro.alloc.kloc_alloc", "KlocAllocator", ("alloc", "free")),
    ("alloc", "repro.alloc.vmalloc", "VmallocAllocator", ("alloc", "free")),
    ("alloc", "repro.alloc.buddy", "PageAllocator", (
        "alloc_object", "free_object", "alloc_frames", "free_frames",
    )),
    ("mem", "repro.mem.topology", "MemoryTopology", (
        "allocate", "try_allocate", "free", "free_all", "move_frame",
    )),
    ("mem.migrate", "repro.mem.migration", "MigrationEngine", ("migrate",)),
    ("vfs", "repro.vfs.filesystem", "Filesystem", PUBLIC),
    ("net", "repro.net.stack", "NetworkStack", PUBLIC),
    ("core.clock_advance", "repro.core.clock", "Clock", ("advance",)),
    # Counted in trace.coverage only; snapshot.* metrics come from the
    # untraced cells' store timings.
    ("snapshot", "repro.snapshot.store", "SnapshotStore", ("save",)),
)

#: Module-level functions; every ``repro.*`` module that imported one by
#: name gets the wrapper too.
FUNCTION_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("report", "repro.experiments.cache", "run_to_payload"),
    ("report", "repro.metrics.footprint", "footprint_snapshot"),
    ("report", "repro.metrics.references", "reference_report"),
)

#: Periodic callback owner → layer.
TICK_LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("policies.lru_scan", "repro.policies.lru_engine", "LRUScanEngine"),
    ("policies.autonuma_scan", "repro.policies.autonuma", "NumaPolicyBase"),
    ("kloc.migrationd", "repro.kloc.migrationd", "KlocMigrationDaemon"),
    ("vfs.writeback", "repro.vfs.writeback", "WritebackDaemon"),
)


class Recorder:
    """Calls and self time per layer, plus the LRU scan's work counts."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        #: One ``[child_ns]`` cell per open span.
        self.stack: List[List[int]] = []
        self.lru_scanned = 0
        self.lru_moved = 0

    def span(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        stack = self.stack
        child = [0]
        stack.append(child)
        t0 = perf_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_ns() - t0
            stack.pop()
            self.self_ns[layer] += dt - child[0]
            self.calls[layer] += 1
            if stack:
                stack[-1][0] += dt


#: The recorder spans report to; ``None`` makes every wrapper a pass-through.
_active: Optional[Recorder] = None


def _wrap(layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    # functools.wraps keeps ``__name__``, which pickling a bound method of
    # a wrapped class attribute looks up again on restore.
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec = _active
        if rec is None:
            return fn(*args, **kwargs)
        return rec.span(layer, fn, *args, **kwargs)

    return wrapper


class Tick:
    """A traced periodic callback. Picklable: it holds only its layer and
    the (picklable) bound method the daemon registered."""

    def __init__(self, layer: str, callback: Callable[[int], Any]) -> None:
        self.layer = layer
        self.callback = callback

    def __call__(self, now_ns: int) -> Any:
        rec = _active
        if rec is None:
            return self.callback(now_ns)
        result = rec.span(self.layer, self.callback, now_ns)
        if self.layer == "policies.lru_scan" and isinstance(result, dict):
            rec.lru_scanned += result["scanned"]
            rec.lru_moved += result["demoted"] + result["promoted"]
        return result


def _tick_layer(callback: Callable[..., Any]) -> str:
    owner = getattr(callback, "__self__", None)
    for layer, module, cls in TICK_LAYERS:
        if isinstance(owner, getattr(importlib.import_module(module), cls)):
            return layer
    return "daemon.other"


class Installed(Patches):
    """Wrappers installed on the ``repro`` classes and modules; ``undo``
    puts every original back."""

    def __init__(self, workload_classes: List[type]) -> None:
        super().__init__()
        for layer, module, cls_name, methods in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module), cls_name)
            names = methods if methods is not PUBLIC else tuple(
                name for name, value in vars(cls).items()
                if not name.startswith("_") and callable(value)
                and not isinstance(value, (staticmethod, classmethod, type))
            )
            for name in names:
                self.set(cls, name, _wrap(layer, getattr(cls, name)))
        for cls in workload_classes:
            self.set(cls, "run_op", _wrap("workloads", cls.run_op))
        for layer, module, name in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module), name)
            wrapped = _wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and getattr(mod, name, None) is original:
                    self.set(mod, name, wrapped)
        from repro.core.clock import Clock

        schedule = Clock.schedule_periodic

        @functools.wraps(schedule)
        def schedule_traced(clock: Clock, period_ns: int, callback: Any, **kw: Any) -> None:
            schedule(clock, period_ns, Tick(_tick_layer(callback), callback), **kw)

        self.set(Clock, "schedule_periodic", schedule_traced)


def activate(recorder: Optional[Recorder]) -> None:
    """Route spans to ``recorder`` (``None`` turns recording off)."""
    global _active
    _active = recorder
