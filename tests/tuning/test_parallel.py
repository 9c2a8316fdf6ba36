"""Parallel proposal evaluation: deterministic, identical to serial runs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.compiler import compile_program
from repro.gpu import K40
from repro.tuning import Autotuner
from repro.tuning.parallel import BatchExecutor


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


@pytest.fixture(scope="module")
def train():
    return [matmul_sizes(e, 20) for e in range(0, 11, 2)]


def _tune(cp, datasets, *, seed, noise=0.0, workers=1, batch_size=1, n=60):
    tuner = Autotuner(cp, datasets, K40, seed=seed, noise=noise)
    return tuner.tune(max_proposals=n, workers=workers, batch_size=batch_size)


def _assert_same(a, b):
    assert a.best_thresholds == b.best_thresholds
    assert a.best_cost == b.best_cost
    assert a.proposals == b.proposals
    assert a.simulations == b.simulations
    assert a.cache_hits == b.cache_hits
    assert a.history == b.history
    assert a.full_history == b.full_history


def test_parallel_equals_serial(matmul_if, train):
    serial = _tune(matmul_if, train, seed=0, batch_size=4)
    parallel = _tune(matmul_if, train, seed=0, workers=3, batch_size=4)
    _assert_same(serial, parallel)
    assert serial.path_counts == parallel.path_counts


class TestWorkersValidation:
    """BatchExecutor used to silently coerce workers with max(2, N)."""

    @pytest.mark.parametrize("workers", [1, 0, -3])
    def test_rejects_fewer_than_two_workers(self, matmul_if, train, workers):
        tuner = Autotuner(matmul_if, train, K40, seed=0)
        with pytest.raises(ValueError, match="at least 2 workers"):
            BatchExecutor(tuner, workers)

    def test_close_is_deterministic_and_idempotent(self, matmul_if, train):
        tuner = Autotuner(matmul_if, train, K40, seed=0)
        ex = BatchExecutor(tuner, 2)
        ex.close()
        ex.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            ex.evaluate([tuner.space.default_config()])

    def test_context_manager(self, matmul_if, train):
        tuner = Autotuner(matmul_if, train, K40, seed=0)
        with BatchExecutor(tuner, 2) as ex:
            out = ex.evaluate([tuner.space.default_config()])
            assert len(out) == 1
        assert ex._pool is None


class TestWorkerPerfMerge:
    """Counters incremented in worker processes must reach the coordinator
    (they were lost entirely before), and the tuner-layer accounting must
    be bit-identical to a serial run."""

    CANONICAL = (
        "tuner.simulations",
        "tuner.path_cache.hits",
        "tuner.path_cache.misses",
        "signature.cache_hits",
        "signature.cache_misses",
    )

    def _snapshot_tune(self, workers, n=36):
        perf.reset()
        perf.clear_caches()
        cp = compile_program(matmul_program(), "incremental")
        datasets = [matmul_sizes(e, 20) for e in range(0, 11, 2)]
        tuner = Autotuner(cp, datasets, K40, seed=0)
        res = tuner.tune(max_proposals=n, workers=workers, batch_size=6)
        return res, perf.snapshot()["counters"]

    def test_canonical_counters_equal_serial(self):
        serial_res, serial = self._snapshot_tune(1)
        parallel_res, parallel = self._snapshot_tune(4)
        assert serial_res.full_history == parallel_res.full_history
        for name in self.CANONICAL:
            assert serial.get(name, 0) == parallel.get(name, 0), name

    def test_worker_gpu_layer_counters_reach_coordinator(self):
        _, serial = self._snapshot_tune(1)
        _, parallel = self._snapshot_tune(2)
        # per-process layers report at least the serial work (each worker
        # re-misses kernels its siblings priced; see docs/performance.md)
        assert parallel.get("kernel_cache.misses", 0) >= serial["kernel_cache.misses"]
        assert parallel.get("sim_memo.misses", 0) >= serial["sim_memo.misses"]
        assert parallel.get("tuner.parallel_batches", 0) > 0

    def test_worker_timers_reach_coordinator(self):
        perf.reset()
        perf.clear_caches()
        cp = compile_program(matmul_program(), "incremental")
        tuner = Autotuner(cp, [matmul_sizes(4, 20)], K40, seed=0)
        tuner.tune(max_proposals=12, workers=2, batch_size=6)
        assert perf.timers().get("simulate", 0.0) > 0.0


def test_parallel_equals_serial_with_noise(matmul_if, train):
    serial = _tune(matmul_if, train, seed=7, noise=0.03, batch_size=5)
    parallel = _tune(matmul_if, train, seed=7, noise=0.03, workers=2, batch_size=5)
    _assert_same(serial, parallel)


def test_worker_count_does_not_change_results(matmul_if, train):
    two = _tune(matmul_if, train, seed=1, workers=2, batch_size=6, n=36)
    four = _tune(matmul_if, train, seed=1, workers=4, batch_size=6, n=36)
    _assert_same(two, four)


def test_batching_alone_preserves_classic_results(matmul_if, train):
    """batch_size=1 (any workers) reproduces the unbatched serial search."""
    classic = _tune(matmul_if, train, seed=3)
    batched = _tune(matmul_if, train, seed=3, workers=2, batch_size=1)
    _assert_same(classic, batched)


def test_parallel_respects_max_proposals(matmul_if, train):
    res = _tune(matmul_if, train, seed=0, workers=2, batch_size=7, n=30)
    assert res.proposals == 30
    assert len(res.full_history) == 30


@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    noise=st.sampled_from([0.0, 0.01, 0.03]),
    batch_size=st.integers(min_value=1, max_value=6),
)
def test_parallel_reproduces_serial_best(seed, noise, batch_size):
    cp = compile_program(matmul_program(), "incremental")
    datasets = [matmul_sizes(e, 20) for e in (1, 5, 9)]
    serial = _tune(cp, datasets, seed=seed, noise=noise, batch_size=batch_size, n=24)
    parallel = _tune(
        cp, datasets, seed=seed, noise=noise, workers=2, batch_size=batch_size, n=24
    )
    assert serial.best_thresholds == parallel.best_thresholds
    assert serial.best_cost == parallel.best_cost
    assert serial.full_history == parallel.full_history


# a worker hard-exiting can trip a CPython race in the pool's own
# management thread ("dictionary changed size during iteration"); it is
# harmless — the pool is torn down for respawn anyway — but surfaces as a
# thread-exception warning
@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestCrashRecovery:
    """Worker crashes break the whole pool; the executor must keep
    completed chunks, respawn, and re-dispatch only the lost work."""

    def test_crash_mid_batch_recovers_and_matches_serial(
        self, matmul_if, train
    ):
        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        serial = _tune(matmul_if, train, seed=2, batch_size=6, n=24)
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site="worker.eval", kind="worker_crash", p=0.3,
                      max_fires=2),
        ))
        perf.reset()
        with faults.injected(plan):
            crashed = _tune(
                matmul_if, train, seed=2, workers=3, batch_size=6, n=24
            )
        _assert_same(serial, crashed)
        assert perf.counters().get("faults.worker_crashes", 0) >= 1

    def test_crash_in_initializer_recovers(self, matmul_if, train):
        # the replacement pool is built against a consumed-budget plan,
        # so it comes up clean even when the crash hits worker startup
        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        serial = _tune(matmul_if, train, seed=2, batch_size=4, n=12)
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site="worker.eval", kind="worker_crash", at=(0,),
                      max_fires=1),
        ))
        with faults.injected(plan):
            crashed = _tune(
                matmul_if, train, seed=2, workers=2, batch_size=4, n=12
            )
        _assert_same(serial, crashed)

    def test_crash_while_a_sibling_spawns_recovers(
        self, matmul_if, train, monkeypatch
    ):
        # the pool's management thread closes the call queue when a worker
        # dies; a sibling spawned lazily at that moment would pickle the
        # closed pipe ("handle is closed"), so every worker must be spawned
        # before any can crash
        import time
        from concurrent.futures import ProcessPoolExecutor

        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        spawn = getattr(ProcessPoolExecutor, "_spawn_process", None)
        if spawn is None:
            pytest.skip("this Python spawns pool workers inline")

        def slow_spawn(self):
            time.sleep(0.2)  # room for a busy sibling's crash to land
            return spawn(self)

        monkeypatch.setattr(ProcessPoolExecutor, "_spawn_process", slow_spawn)
        serial = _tune(matmul_if, train, seed=2, batch_size=4, n=12)
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site="worker.eval", kind="worker_crash", at=(0,),
                      max_fires=1),
        ))
        with faults.injected(plan):
            crashed = _tune(
                matmul_if, train, seed=2, workers=2, batch_size=4, n=12
            )
        _assert_same(serial, crashed)

    def test_unbounded_crash_plan_gives_up_with_clear_error(
        self, matmul_if, train
    ):
        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="worker.eval", kind="worker_crash", p=1.0),
        ))
        tuner = Autotuner(matmul_if, train, K40, seed=0)
        with faults.injected(plan):
            with pytest.raises(RuntimeError, match="crashed .* times"):
                tuner.tune(max_proposals=8, workers=2, batch_size=4)


@pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnhandledThreadExceptionWarning"
)
class TestStartupFailFast:
    def test_worker_dead_on_arrival_raises_immediately(
        self, matmul_if, train
    ):
        from repro import faults
        from repro.faults import FaultPlan, FaultRule

        # every spawned worker dies in its initializer, and the plan never
        # runs out of budget: startup must fail loudly, not hang
        plan = FaultPlan(seed=0, rules=(
            FaultRule(site="worker.init", kind="worker_crash", p=1.0),
        ))
        tuner = Autotuner(matmul_if, train, K40, seed=0)
        with faults.injected(plan):
            with pytest.raises(RuntimeError, match="died during startup"):
                BatchExecutor(tuner, 2)
