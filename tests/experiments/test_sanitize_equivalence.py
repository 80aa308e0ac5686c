"""Bit-identity of sanitized runs vs. plain runs.

``REPRO_SANITIZE=1`` is advertised as *behavior-preserving*: the
sanitizer's checks read state — free-site ledgers, counter
recomputations, teardown audits — and never advance the clock or mutate
a counter the payload is built from. These tests enforce that contract
the same way the hot-path equivalence suite does: run a full measured
experiment twice, plain then sanitized, and require the complete result
payloads to match bit for bit. Any check that perturbs the simulation
(an extra clock tick, a counter bumped by the audit itself) fails here
immediately.

The flag is read at kernel construction time, so toggling the env var
between runs inside one process switches modes (each ``run_*`` builds a
fresh kernel).

cassandra/klocs is the probe pair: it exercises every sanitizer hook at
once — slab and kloc object free paths, frame frees from page-cache
eviction and writeback, vmalloc areas, and the migration daemon's
scan-boundary counter cross-checks.

CI treats a *skip* of this module as a failure (the sanitize job greps
pytest's skip report), so keep these tests unconditional.
"""

import pytest

from repro.experiments.cache import run_to_payload
from repro.experiments.runner import run_optane_interference, run_two_tier

TINY = 600


def _payload_both_modes(monkeypatch, **kwargs):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = run_to_payload(run_two_tier(**kwargs))
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_to_payload(run_two_tier(**kwargs))
    return plain, sanitized


class TestTwoTierSanitizeEquivalence:
    def test_klocs_mixed_workload(self, monkeypatch):
        plain, sanitized = _payload_both_modes(
            monkeypatch, workload="cassandra", policy="klocs", ops=TINY
        )
        assert sanitized == plain

    def test_nimblepp_mixed_workload(self, monkeypatch):
        plain, sanitized = _payload_both_modes(
            monkeypatch, workload="cassandra", policy="nimble++", ops=TINY
        )
        assert sanitized == plain


def _optane_both_modes(monkeypatch, workload, policy):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = run_optane_interference(workload, policy, TINY)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_optane_interference(workload, policy, TINY)
    return plain, sanitized


class TestOptaneSanitizeEquivalence:
    @pytest.mark.parametrize("policy", ["autonuma", "all_local", "all_remote"])
    def test_interference_run(self, monkeypatch, policy):
        plain, sanitized = _optane_both_modes(monkeypatch, "cassandra", policy)
        assert sanitized == plain

    @pytest.mark.parametrize("policy", ["autonuma", "all_local", "all_remote"])
    def test_redis_interference_run(self, monkeypatch, policy):
        plain, sanitized = _optane_both_modes(monkeypatch, "redis", policy)
        assert sanitized == plain
