"""The sanitizer on the batched charge paths.

Under ``REPRO_SANITIZE=1`` kernels run the same charge paths as plain
runs, and those raise the sanitizer's use-after-free diagnostic on their
dead-object branches. These cases cover the batched entry points the per-call tests
in ``test_sanitizer.py`` do not reach, on both platforms.
"""

from __future__ import annotations

import pytest

from repro.core.errors import SanitizerError, SimulationError
from repro.core.objtypes import KernelObjectType
from repro.core.units import PAGE_SIZE
from repro.mem.frame import PageOwner
from repro.platforms.optane import build_optane_kernel
from repro.platforms.twotier import build_two_tier_kernel

SCALE = 4096


def _kernel(platform):
    if platform == "two_tier":
        kernel, _ = build_two_tier_kernel("klocs", scale_factor=SCALE)
    else:
        kernel, _ = build_optane_kernel("autonuma", scale_factor=SCALE)
    return kernel


@pytest.fixture(params=["two_tier", "optane"])
def sankernel(request, monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    return _kernel(request.param)


@pytest.fixture(params=["two_tier", "optane"])
def plainkernel(request, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    return _kernel(request.param)


def test_frame_uaf_through_access_frames(sankernel):
    order = sankernel.policy.tier_order_app()
    frames = sankernel.topology.allocate(3, order, PageOwner.APP)
    sankernel.access_frames(frames, 3 * PAGE_SIZE)  # live: fine
    sankernel.topology.free(frames[1], now_ns=sankernel.clock.now())
    with pytest.raises(SanitizerError) as exc:
        sankernel.access_frames(frames, 3 * PAGE_SIZE)
    msg = str(exc.value)
    assert "use-after-free" in msg
    assert f"frame {frames[1].fid}" in msg
    assert "freed at tests/kernel/test_sanitizer_flat.py" in msg


def test_object_uaf_through_access_batch(sankernel):
    assert sankernel._san is not None
    obj = sankernel.alloc_object(KernelObjectType.SOCK)
    batch = sankernel.begin_access_batch()
    batch.access_object(obj)  # live: fine
    batch.free_object(obj)
    with pytest.raises(SanitizerError) as exc:
        batch.access_object(obj)
    msg = str(exc.value)
    assert "use-after-free" in msg
    assert f"#{obj.oid}" in msg and "SOCK" in msg
    assert "freed at src/repro/kernel/kernel.py" in msg


def test_plain_uaf_is_generic(plainkernel):
    order = plainkernel.policy.tier_order_app()
    frames = plainkernel.topology.allocate(2, order, PageOwner.APP)
    plainkernel.topology.free(frames[0], now_ns=plainkernel.clock.now())
    with pytest.raises(SimulationError) as exc:
        plainkernel.access_frames(frames, 2 * PAGE_SIZE)
    assert not isinstance(exc.value, SanitizerError)
    obj = plainkernel.alloc_object(KernelObjectType.SOCK)
    batch = plainkernel.begin_access_batch()
    batch.free_object(obj)
    with pytest.raises(SimulationError) as exc:
        batch.access_object(obj)
    assert not isinstance(exc.value, SanitizerError)
