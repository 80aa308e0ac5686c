"""The indexed scanners reproduce the deleted brute-force frame walks.

``REPRO_NO_FRAME_INDEX=1`` used to make the LRU scanners and AutoNUMA
walk every frame instead of the resident-frame indexes. The walks are
deleted from ``src`` (they live on as oracles in
``tests/policies/scan_oracles.py``); before they were, every cell below
was run in both modes and the identical output was recorded in
``tests/golden/digests.json``. These tests run each cell with the
retired variable still set and require the recorded output: the
variable selects nothing any more, and the indexed scanners make exactly
the decisions the walks made.

cassandra is the probe workload: it mixes filesystem activity (SSTable
reads/writes through the page cache) with network traffic (client
sockets), so slab, page-cache, and app frames all churn through the
scanners at once.
"""

import pytest

from tests.golden import cells


@pytest.fixture
def recorded(monkeypatch):
    monkeypatch.setenv("REPRO_NO_FRAME_INDEX", "1")
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
    @pytest.mark.parametrize("policy", ["autonuma", "all_local"])
    def test_interference_run(self, recorded, policy):
        _check(recorded, f"optane/cassandra/{policy}")
