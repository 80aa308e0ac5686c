"""Bit-identity of the O(1) hot-path accounting vs. the legacy paths.

The hot-path work (flattened charge path, incremental KLOC metadata,
inlined per-CPU lookups, batched region touches, single-page allocation
shortcut) is a pure host-side optimization: every simulated cost, clock
reading, counter, and metadata figure must be *exactly* what the layered
legacy implementations produce. These tests run full measured experiments
twice — hot, then with ``REPRO_NO_HOTPATH=1`` — and require the complete
result payloads to match bit for bit.

Both flags are read at kernel/structure construction time, so toggling
the env var between runs inside one process switches implementations
(each ``run_*`` builds a fresh kernel).

cassandra is the probe workload: it mixes filesystem activity (SSTable
reads/writes through the page cache, journal commits, writeback) with
network traffic (client sockets), so every charge path — object refs,
frame refs, batched touches, alloc/free churn — runs at once.

The Optane cells price every access through the NUMA node cost hook
(hardware DRAM cache, interconnect premium) on the flat path and through
``Kernel._charge_access`` on the legacy one. The cell reports only a
throughput, so those tests also compare the kernel's charge counters:
cache hits/misses/evictions, local/remote accesses, tier bytes,
reference attribution and the final clock.

CI treats a *skip* of this module as a failure (the op-bench job greps
pytest's skip report), so keep these tests unconditional.
"""

import pytest

from repro.experiments.cache import run_to_payload
from repro.experiments.runner import run_optane_interference, run_two_tier

TINY = 600


def _payload_both_modes(monkeypatch, **kwargs):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.delenv("REPRO_NO_HOTPATH", raising=False)
    hot = run_to_payload(run_two_tier(**kwargs))
    monkeypatch.setenv("REPRO_NO_HOTPATH", "1")
    legacy = run_to_payload(run_two_tier(**kwargs))
    return hot, legacy


class TestTwoTierEquivalence:
    def test_klocs_mixed_workload(self, monkeypatch):
        hot, legacy = _payload_both_modes(
            monkeypatch, workload="cassandra", policy="klocs", ops=TINY
        )
        assert hot == legacy

    def test_nimblepp_mixed_workload(self, monkeypatch):
        hot, legacy = _payload_both_modes(
            monkeypatch, workload="cassandra", policy="nimble++", ops=TINY
        )
        assert hot == legacy

    def test_nimble_app_only_scan(self, monkeypatch):
        hot, legacy = _payload_both_modes(
            monkeypatch, workload="cassandra", policy="nimble", ops=TINY
        )
        assert hot == legacy


def _kernel_counters(kernel):
    """Everything the NUMA charge path writes, in comparable form."""
    nodes = {}
    for name, node in kernel.nodes.items():
        cache = node.hw_cache
        nodes[name] = (
            node.local_accesses,
            node.remote_accesses,
            node.tier.bytes_read,
            node.tier.bytes_written,
            None if cache is None else (cache.hits, cache.misses, cache.evictions),
        )
    return {
        "now": kernel.clock.now(),
        "nodes": nodes,
        "refs": (
            kernel.kernel_refs,
            kernel.kernel_ref_bytes,
            kernel.app_refs,
            kernel.app_ref_bytes,
        ),
        "refs_by_tier": kernel.refs_by_tier,
        "access_ns_by": kernel.access_ns_by,
    }


def _optane_both_modes(monkeypatch, workload, policy):
    """Throughput plus the kernel's charge counters, hot then legacy.

    The kernel is captured by wrapping ``build_optane_kernel`` (the cell
    builds it internally; REPRO_NO_CACHE also turns snapshots off, so
    every run builds one)."""
    import repro.platforms.optane as optane

    real_build = optane.build_optane_kernel
    built = []

    def capturing_build(*args, **kwargs):
        kernel, pol = real_build(*args, **kwargs)
        built.append(kernel)
        return kernel, pol

    monkeypatch.setattr(optane, "build_optane_kernel", capturing_build)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    results = []
    for legacy in (False, True):
        if legacy:
            monkeypatch.setenv("REPRO_NO_HOTPATH", "1")
        else:
            monkeypatch.delenv("REPRO_NO_HOTPATH", raising=False)
        throughput = run_optane_interference(workload, policy, TINY)
        (kernel,) = built
        built.clear()
        assert kernel._flat is not legacy
        results.append((throughput, _kernel_counters(kernel)))
    return results


class TestOptaneEquivalence:
    @pytest.mark.parametrize("policy", ["autonuma", "all_local", "all_remote"])
    def test_interference_run(self, monkeypatch, policy):
        hot, legacy = _optane_both_modes(monkeypatch, "cassandra", policy)
        assert hot == legacy

    @pytest.mark.parametrize("policy", ["autonuma", "all_local", "all_remote"])
    def test_redis_interference_run(self, monkeypatch, policy):
        # redis is the benchmark's Optane workload: socket-dominated ops,
        # so nearly every charge goes through the node cost hook.
        hot, legacy = _optane_both_modes(monkeypatch, "redis", policy)
        assert hot == legacy
