"""The KLOC daemon's candidate frames vs. the in-order tree walk.

A small two-tier klocs kernel is driven through random sequences of file
creat/open/write/read/close/unlink, socket creation, ingress (early demux
adopts each RX_BUF into the socket's knode), recv, send and close, plus
receive buffers held unattached and adopted later, newest first (as a
second NIC queue's LIFO free list would hand them over, so a socket's
cache tree fills out of oid order), and clock ticks that fire
the LRU scans and the KLOC migration daemon. After every step, for every
knode, every tier (any, fast, slow) and every limit, the daemon's
``knode_frames`` and ``Knode.frames`` must list exactly the frames, in
exactly the order, of the reference walk in ``knode_oracle``; Table 2's
iterators must yield members in oid order; and the membership premises
of ``Knode.check_invariants`` must hold.
"""

from __future__ import annotations

from typing import Any, Dict, List

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import two_tier_platform_spec
from repro.core.errors import AllocationError
from repro.core.objtypes import KernelObjectType
from repro.core.units import MB, PAGE_SIZE
from repro.kernel.kernel import Kernel
from repro.policies import TWO_TIER_POLICIES
from tests.kloc import knode_oracle

TIERS = (None, "fast", "slow")
LIMITS = (None, 0, 1, 3, 64)
FILES = 4
PORTS = 3


def _kernel() -> Kernel:
    spec = two_tier_platform_spec(
        fast_capacity_bytes=MB // 2, slow_capacity_bytes=4 * MB
    )
    kernel = Kernel(spec, TWO_TIER_POLICIES["klocs"](), seed=7)
    kernel.start()
    return kernel


class _Driver:
    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.handles: Dict[int, Any] = {}
        self.sockets: Dict[int, Any] = {}
        #: Receive buffers allocated with no knode, awaiting adoption.
        self.held: List[Any] = []
        #: Adopted buffers, still live.
        self.adopted: List[Any] = []

    def apply(self, op) -> None:
        kind, a, b = op
        kernel = self.kernel
        fs, net = kernel.fs, kernel.net
        path = f"/f{a % FILES}"
        port = 1000 + a % PORTS
        try:
            if kind == "creat" and not fs.exists(path):
                self.handles[a % FILES] = fs.create(path)
            elif kind == "open" and fs.exists(path) and a % FILES not in self.handles:
                self.handles[a % FILES] = fs.open(path)
            elif kind == "write" and a % FILES in self.handles:
                fs.write(self.handles[a % FILES], (b % 24) * PAGE_SIZE, (1 + a % 6) * PAGE_SIZE)
            elif kind == "read" and a % FILES in self.handles:
                fs.read(self.handles[a % FILES], (b % 24) * PAGE_SIZE, (1 + b % 6) * PAGE_SIZE)
            elif kind == "close" and a % FILES in self.handles:
                fs.close(self.handles.pop(a % FILES))
            elif kind == "unlink" and fs.exists(path) and a % FILES not in self.handles:
                fs.unlink(path)
            elif kind == "socket" and port not in self.sockets:
                self.sockets[port] = net.socket(port)
            elif kind == "deliver" and port in self.sockets:
                net.deliver(port, 1 + b * 700)
            elif kind == "recv" and port in self.sockets:
                net.recv(self.sockets[port])
            elif kind == "send" and port in self.sockets:
                net.send(self.sockets[port], 1 + b * 900)
            elif kind == "close_socket" and port in self.sockets:
                net.close(self.sockets.pop(port))
            elif kind == "hold":
                for _ in range(1 + b % 3):
                    self.held.append(kernel.alloc_object(KernelObjectType.RX_BUF, None))
            elif kind == "adopt" and self.held and self.sockets:
                sock = self.sockets.get(port) or next(iter(self.sockets.values()))
                obj = self.held.pop()  # newest first, as a LIFO free list
                kernel.adopt_object(obj, sock.inode)
                self.adopted.append(obj)
            elif kind == "free_adopted" and self.adopted:
                kernel.free_object(self.adopted.pop(b % len(self.adopted)))
            elif kind == "tick_lru":
                kernel.clock.advance(kernel.platform.lru.scan_period_ns)
            elif kind == "tick_daemon":
                kernel.clock.advance(kernel.platform.kloc.migrate_period_ns * (1 + b % 4))
        except AllocationError:
            pass


def check(kernel: Kernel) -> None:
    daemon = kernel.kloc_daemon
    for knode in kernel.kloc_manager.kmap.all_knodes():
        knode.check_invariants()
        assert [o.oid for o in knode.iter_cache()] == sorted(knode.rbtree_cache)
        assert [o.oid for o in knode.iter_slab()] == sorted(knode.rbtree_slab)
        for tier in TIERS:
            for limit in LIMITS:
                want = knode_oracle.knode_frames(knode, kernel.kloc_alloc, tier, limit)
                got = daemon.knode_frames(knode, tier, limit)
                assert [f.fid for f in got] == [f.fid for f in want], (knode, tier, limit)
                own = knode_oracle.knode_frames(knode, None, tier, limit)
                assert [f.fid for f in knode.frames(tier, limit)] == [f.fid for f in own]


def drive(ops) -> _Driver:
    driver = _Driver(_kernel())
    for op in ops:
        driver.apply(op)
        check(driver.kernel)
    return driver


KINDS = (
    "creat",
    "open",
    "write",
    "read",
    "close",
    "unlink",
    "socket",
    "deliver",
    "recv",
    "send",
    "close_socket",
    "hold",
    "adopt",
    "free_adopted",
    "tick_lru",
    "tick_daemon",
)
OPS = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=11),
    ),
    min_size=24,
    max_size=80,
)


#: Every random drive starts with two open sockets, two open files and
#: six unattached receive buffers, so its ops rarely fall through.
PROLOGUE = [
    ("socket", 0, 0),
    ("socket", 1, 0),
    ("creat", 0, 0),
    ("creat", 1, 0),
    ("hold", 0, 2),
    ("hold", 0, 2),
]


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(OPS)
def test_candidates_match_the_tree_walk(ops):
    drive(PROLOGUE + ops)


#: A fixed drive that reaches what the random ones may miss: files spread
#: over both tiers, closed knodes downgraded and reopened ones upgraded,
#: and socket knodes whose cache tree was filled out of oid order.
FIXED = (
    [("socket", 0, 0), ("socket", 1, 0)]
    + [("hold", 0, 0)] * 6
    + [("creat", f, 0) for f in range(FILES)]
    + [("write", f, b) for b in range(0, 24, 6) for f in range(FILES)]
    + [("deliver", 0, 3), ("deliver", 1, 2), ("adopt", 0, 5), ("adopt", 1, 0)]
    + [("adopt", 0, 1), ("deliver", 0, 4), ("adopt", 0, 0)]
    + [("close", f, 0) for f in range(FILES)]
    + [("tick_daemon", 0, 3)] * 6
    + [("open", 0, 0), ("open", 1, 0), ("tick_daemon", 0, 0), ("tick_lru", 0, 0)]
    + [("read", 0, b) for b in range(0, 24, 6)]
    + [("recv", 0, 0), ("send", 1, 5), ("free_adopted", 0, 0), ("close_socket", 1, 0)]
    + [("tick_daemon", 0, 3)] * 3
)


def test_fixed_drive_reaches_every_case():
    driver = drive(FIXED)
    kernel = driver.kernel
    daemon = kernel.kloc_daemon
    assert daemon.downgraded_pages > 0 and daemon.upgraded_pages > 0
    knodes = kernel.kloc_manager.kmap.all_knodes()
    assert any(
        knode.frames("fast") and knode.frames("slow") for knode in knodes
    ), "no knode spans both tiers"
    assert any(
        list(knode.rbtree_cache) != sorted(knode.rbtree_cache) for knode in knodes
    ), "no cache tree was filled out of oid order"
    assert any(len(knode.frames("fast")) > 3 for knode in knodes)
