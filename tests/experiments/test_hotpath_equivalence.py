"""The flat charge path reproduces the deleted legacy charge path.

``REPRO_NO_HOTPATH=1`` used to build kernels on the layered legacy
accounting (``Kernel._charge_access``, per-structure walks). That path is
deleted; before it was, every cell below was run in both modes and the
identical output was recorded in ``tests/golden/digests.json``. These
tests run each cell with the retired variable still set, as a script
written for the old knob would, and require the recorded output: the
variable selects nothing any more, and the one remaining path gives
exactly what the legacy path gave.

The Optane cells report only a throughput, so their digests also cover
the kernel's charge counters (hardware DRAM cache hits/misses/evictions,
local/remote accesses, tier bytes, reference attribution, final clock).
"""

import pytest

from tests.golden import cells


@pytest.fixture
def recorded(monkeypatch):
    monkeypatch.setenv("REPRO_NO_HOTPATH", "1")
    digests = cells.recorded()
    assert digests, "no golden digests recorded for this SIM_VERSION"
    return digests


def _check(recorded, name):
    assert cells.compute(name) == recorded[name]


class TestTwoTierEquivalence:
    def test_klocs_mixed_workload(self, recorded):
        _check(recorded, "two_tier/cassandra/klocs")

    def test_nimblepp_mixed_workload(self, recorded):
        _check(recorded, "two_tier/cassandra/nimble++")

    def test_nimble_app_only_scan(self, recorded):
        _check(recorded, "two_tier/cassandra/nimble")


class TestOptaneEquivalence:
    @pytest.mark.parametrize("policy", ["autonuma", "all_local", "all_remote"])
    def test_interference_run(self, recorded, policy):
        _check(recorded, f"optane/cassandra/{policy}")

    @pytest.mark.parametrize("policy", ["autonuma", "all_local", "all_remote"])
    def test_redis_interference_run(self, recorded, policy):
        # redis is the benchmark's Optane workload: socket-dominated ops,
        # so nearly every charge goes through the node cost hook.
        _check(recorded, f"optane/redis/{policy}")
