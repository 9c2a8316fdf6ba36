"""Kernel-level cost memoization (docs/performance.md, layer 1)."""

import pytest

from repro import perf
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.compiler import compile_program
from repro.gpu import K40, VEGA64
from repro.gpu.cost import kernel_fingerprint


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


def _counter(name):
    return perf.counters().get(name, 0)


def _reports_equal(a, b):
    assert a.time == b.time
    assert a.host_time == b.host_time
    assert a.alloc_bytes == b.alloc_bytes
    assert len(a.kernels) == len(b.kernels)
    for ka, kb in zip(a.kernels, b.kernels):
        assert (ka.kind, ka.level, ka.time, ka.threads) == (
            kb.kind,
            kb.level,
            kb.time,
            kb.threads,
        )


class TestFingerprint:
    def test_separate_builds_get_distinct_fingerprints(self):
        # program builds gensym fresh names, so separate builds fingerprint
        # differently: the kernel cache shares work across the proposals /
        # datasets of ONE compiled program (which compile_program_cached
        # shares across pipelines), never across unrelated ASTs
        a = matmul_program().body
        b = matmul_program().body
        assert a is not b
        assert kernel_fingerprint(a) != kernel_fingerprint(b)

    def test_deterministic_for_one_compilation(self):
        cp = compile_program(matmul_program(), "incremental")
        assert kernel_fingerprint(cp.body) == kernel_fingerprint(cp.body)

    def test_different_programs_differ(self):
        a = compile_program(matmul_program(), "incremental")
        b = compile_program(locvolcalib_program(), "incremental")
        assert kernel_fingerprint(a.body) != kernel_fingerprint(b.body)

    def test_modes_differ(self):
        a = compile_program(matmul_program(), "incremental")
        b = compile_program(matmul_program(), "full")
        assert kernel_fingerprint(a.body) != kernel_fingerprint(b.body)

    def test_memoized_per_node(self):
        cp = compile_program(matmul_program(), "incremental")
        assert kernel_fingerprint(cp.body) is kernel_fingerprint(cp.body)


class TestKernelCache:
    def test_warm_run_hits_and_is_bit_identical(self, matmul_if):
        sizes = matmul_sizes(5, 20)
        cfg = {t: 2**15 for t in matmul_if.thresholds()}
        perf.clear_caches()
        perf.reset()
        matmul_if._sim_memo.clear()
        cold = matmul_if.simulate(sizes, K40, thresholds=cfg)
        misses = _counter("kernel_cache.misses")
        assert misses > 0
        # a fresh simulation (simulate memo bypassed) reuses every kernel
        matmul_if._sim_memo.clear()
        warm = matmul_if.simulate(sizes, K40, thresholds=cfg)
        assert _counter("kernel_cache.misses") == misses
        assert _counter("kernel_cache.hits") > 0
        _reports_equal(cold, warm)

    def test_irrelevant_threshold_does_not_invalidate(self, matmul_if):
        sizes = matmul_sizes(5, 20)
        cfg = {t: 2**15 for t in matmul_if.thresholds()}
        perf.clear_caches()
        perf.reset()
        matmul_if._sim_memo.clear()
        matmul_if.simulate(sizes, K40, thresholds=cfg)
        misses = _counter("kernel_cache.misses")
        # a threshold no kernel reads cannot change any kernel's cost key
        matmul_if._sim_memo.clear()
        matmul_if.simulate(sizes, K40, thresholds={**cfg, "unrelated_t": 7})
        assert _counter("kernel_cache.misses") == misses

    def test_device_is_part_of_the_key(self, matmul_if):
        sizes = matmul_sizes(5, 20)
        cfg = {t: 2**15 for t in matmul_if.thresholds()}
        perf.clear_caches()
        perf.reset()
        matmul_if._sim_memo.clear()
        matmul_if.simulate(sizes, K40, thresholds=cfg)
        misses = _counter("kernel_cache.misses")
        matmul_if._sim_memo.clear()
        matmul_if.simulate(sizes, VEGA64, thresholds=cfg)
        assert _counter("kernel_cache.misses") > misses

    def test_cache_disabled_matches_cached(self, matmul_if):
        sizes = matmul_sizes(7, 20)
        cfg = {t: 1 for t in matmul_if.thresholds()}
        perf.clear_caches()
        matmul_if._sim_memo.clear()
        plain = matmul_if.simulate(sizes, K40, thresholds=cfg, cache=False)
        cached1 = matmul_if.simulate(sizes, K40, thresholds=cfg, cache=True)
        matmul_if._sim_memo.clear()
        cached2 = matmul_if.simulate(sizes, K40, thresholds=cfg, cache=True)
        _reports_equal(plain, cached1)
        _reports_equal(plain, cached2)

    def test_local_mem_fallback_path_cached_soundly(self):
        """All-ones thresholds steer into intra versions, where §4.1's
        local-memory fallback (a cached LocalMemExceeded) decides paths."""
        cp = compile_program(locvolcalib_program(), "incremental")
        cfg = {t: 1 for t in cp.thresholds()}
        for device in (K40, VEGA64):
            for name in ("small", "medium", "large"):
                sizes = locvolcalib_sizes(name)
                perf.clear_caches()
                cp._sim_memo.clear()
                plain = cp.simulate(sizes, device, thresholds=cfg, cache=False)
                cp._sim_memo.clear()
                cold = cp.simulate(sizes, device, thresholds=cfg, cache=True)
                cp._sim_memo.clear()
                warm = cp.simulate(sizes, device, thresholds=cfg, cache=True)
                _reports_equal(plain, cold)
                _reports_equal(plain, warm)

    def test_no_cache_env_disables(self, matmul_if, configure):
        sizes = matmul_sizes(5, 20)
        cfg = {t: 2**15 for t in matmul_if.thresholds()}
        configure(cache=False)
        perf.clear_caches()
        perf.reset()
        matmul_if._sim_memo.clear()
        matmul_if.simulate(sizes, K40, thresholds=cfg)
        matmul_if.simulate(sizes, K40, thresholds=cfg)
        assert _counter("kernel_cache.hits") == 0
        assert _counter("kernel_cache.misses") == 0
        assert _counter("sim_memo.hits") == 0
