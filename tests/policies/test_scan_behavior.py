"""Behavioral tests for the periodic scanners.

These pin down the decision rules the resident-frame indexes must
preserve exactly: watermark-gated demotion, two-touch promotion with
streak reset, and AutoNUMA's batch-limited wakeups. Every test runs
twice: with the indexed scanners, and with the frame-table walks of
``scan_oracles`` deciding instead — so the rules are checked on the
production scanners and on the reference they are compared against.
"""

import pytest

from repro.core.config import two_tier_platform_spec
from repro.core.units import MB
from repro.kernel.kernel import Kernel
from repro.mem.frame import PageOwner
from repro.platforms.optane import build_optane_kernel
from repro.policies.nimble import NimblePolicy
from tests.policies.scan_oracles import use_oracles


def make_kernel(fast_mb=4):
    spec = two_tier_platform_spec(
        fast_capacity_bytes=fast_mb * MB, slow_capacity_bytes=40 * MB
    )
    kernel = Kernel(spec, NimblePolicy(), seed=3)
    kernel.start()
    return kernel


@pytest.fixture(params=["indexed", "brute"])
def scanners(request):
    """Prepares a kernel: indexed scanners, or the oracle walks."""

    def prepare(kernel):
        if request.param == "brute":
            use_oracles(kernel)
        return kernel

    return prepare


class TestWatermarkGatedDemotion:
    def test_cold_pages_stay_put_without_pressure(self, scanners):
        kernel = scanners(make_kernel())
        lru = kernel.policy.lru
        frames = kernel.alloc_app_pages(64)  # fast tier is mostly free
        now = 0
        for _ in range(kernel.platform.lru.cold_age_rounds + 2):
            now += kernel.platform.lru.scan_period_ns
            lru.scan(now)
        # Every frame aged past cold_age_rounds, yet none were demoted:
        # free memory sits above the kswapd watermark.
        assert all(f.lru_age >= kernel.platform.lru.cold_age_rounds for f in frames)
        assert lru.demoted == 0
        assert all(f.tier_name == "fast" for f in frames)

    def test_pressure_demotes_to_restore_watermark(self, scanners):
        kernel = scanners(make_kernel())
        lru = kernel.policy.lru
        fast = kernel.topology.tier("fast")
        kernel.alloc_app_pages(fast.capacity_pages)  # exhaust fast memory
        now = 0
        for _ in range(kernel.platform.lru.cold_age_rounds + 2):
            now += kernel.platform.lru.scan_period_ns
            lru.scan(now)
        watermark = int(fast.capacity_pages * lru.free_watermark_frac)
        assert lru.demoted >= watermark
        assert fast.free_pages >= watermark


class TestTwoTouchPromotion:
    def _slow_app_frames(self, kernel, n):
        return kernel.topology.allocate(n, ["slow"], PageOwner.APP)

    def test_single_touches_never_promote(self, scanners):
        kernel = scanners(make_kernel())
        lru = kernel.policy.lru
        (frame,) = self._slow_app_frames(kernel, 1)
        period = kernel.platform.lru.scan_period_ns
        lru.scan(period)      # allocation touch: streak 1
        lru.scan(2 * period)  # untouched window: streak back to 0
        frame.record_access(2 * period + 10, write=False)
        lru.scan(3 * period)  # touched again, but streak restarts at 1
        assert lru.promoted == 0
        assert frame.tier_name == "slow"
        assert frame.scan_ref_streak <= 1

    def test_consecutive_touches_promote(self, scanners):
        kernel = scanners(make_kernel())
        lru = kernel.policy.lru
        (frame,) = self._slow_app_frames(kernel, 1)
        period = kernel.platform.lru.scan_period_ns
        lru.scan(period)  # allocation counts as the first touch
        frame.record_access(period + 10, write=False)
        lru.scan(2 * period)  # second consecutive window: promote
        assert lru.promoted == 1
        assert frame.tier_name == "fast"

    def test_streak_reset_matches_between_modes(self):
        """Same touch schedule, indexed and oracle: identical promote
        decisions."""
        outcomes = {}
        for oracle in (False, True):
            kernel = make_kernel()
            if oracle:
                use_oracles(kernel)
            lru = kernel.policy.lru
            frames = self._slow_app_frames(kernel, 8)
            period = kernel.platform.lru.scan_period_ns
            for round_no in range(1, 7):
                now = round_no * period
                for i, frame in enumerate(frames):
                    # Frame i is touched in rounds where round_no % (i+1) == 0:
                    # frame 0 every round (promotes), frame 7 rarely (never).
                    if round_no % (i + 1) == 0:
                        frame.record_access(now - 50, write=False)
                lru.scan(now)
            outcomes[oracle] = (
                lru.promoted,
                [f.tier_name for f in frames],
                [f.scan_ref_streak for f in frames],
            )
        assert outcomes[False][:2] == outcomes[True][:2]


class TestAutoNumaBatchLimit:
    def _away_kernel(self, pages):
        kernel, pol = build_optane_kernel("autonuma", scale_factor=8192)
        frames = kernel.alloc_app_pages(pages)
        kernel.set_task_node(1)  # every frame is now away from home
        return kernel, pol, frames

    def test_wakeup_moves_at_most_batch(self, scanners):
        kernel, pol, frames = self._away_kernel(pol_batch_plus := 600)
        scanners(kernel)
        pol._scan()
        assert pol.migrated_app == pol.batch < pol_batch_plus
        # Earliest-allocated (lowest-fid) frames move first, matching the
        # global walk's encounter order.
        moved = sorted(f.fid for f in frames if f.tier_name == "node1")
        assert moved == sorted(f.fid for f in frames)[: pol.batch]

    def test_repeated_wakeups_drain_the_away_set(self, scanners):
        kernel, pol, frames = self._away_kernel(600)
        scanners(kernel)
        for _ in range(4):
            pol._scan()
        assert pol.migrated_app == 600
        assert all(f.tier_name == "node1" for f in frames)
        # Settled: further wakeups find nothing to do.
        pol._scan()
        assert pol.migrated_app == 600
