"""Hardened tuning runtime: retries, quarantine, deadlines."""

import pytest

from repro import faults, perf
from repro.compiler import compile_program
from repro.faults import FaultPlan, FaultRule, default_chaos_plan
from repro.gpu import K40
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.tuner import PENALTY_COST, Autotuner

from repro.bench.programs.matmul import matmul_program, matmul_sizes


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


@pytest.fixture(scope="module")
def train():
    return [matmul_sizes(e, 20) for e in (2, 6, 10)]


def assert_same_result(a, b):
    assert a.best_thresholds == b.best_thresholds
    assert a.best_cost == b.best_cost
    assert a.proposals == b.proposals
    assert a.history == b.history
    assert a.full_history == b.full_history


#: what docs/performance.md promises stays equal under recovered faults
#: (``signature.eval_nodes`` is a work counter and may differ)
SEARCH_COUNTERS = (
    "tuner.simulations",
    "tuner.path_cache.hits",
    "tuner.path_cache.misses",
    "signature.cache_hits",
    "signature.cache_misses",
)


def counted(run):
    """``run()``'s result and the search counters it added."""
    before = perf.counters()
    result = run()
    after = perf.counters()
    return result, {c: after.get(c, 0) - before.get(c, 0) for c in SEARCH_COUNTERS}


class TestRecoverableFaults:
    def test_bounded_transients_converge_to_fault_free(self, matmul_if, train):
        baseline = Autotuner(matmul_if, train, K40, seed=3).tune(
            max_proposals=40
        )
        with faults.injected(default_chaos_plan(seed=11)):
            chaotic = Autotuner(matmul_if, train, K40, seed=3).tune(
                max_proposals=40
            )
        assert_same_result(baseline, chaotic)
        assert chaotic.quarantined == []

    def test_retries_are_counted(self, matmul_if, train):
        plan = FaultPlan(
            seed=0, retries=8,
            rules=(FaultRule(site="sim.kernel", kind="launch", p=1.0,
                             max_fires=4),),
        )
        with faults.injected(plan):
            result = Autotuner(matmul_if, train, K40, seed=3).tune(
                max_proposals=10
            )
        assert result.retries >= 4
        # retries are reported via perf counters and the result object,
        # never telemetry (recovered-chaos telemetry must stay identical
        # to a fault-free run's)
        assert "retries" not in result.telemetry()

    def test_retry_budget_exhaustion_quarantines(self, matmul_if, train):
        # an unbounded always-fire transient rule can never be out-waited
        plan = FaultPlan(
            seed=0, retries=2,
            rules=(FaultRule(site="sim.kernel", kind="launch", p=1.0),),
        )
        with faults.injected(plan):
            result = Autotuner(matmul_if, train, K40, seed=3).tune(
                max_proposals=5
            )
        assert result.best_cost == PENALTY_COST
        assert result.quarantined
        assert "budget exhausted" in result.quarantined[0][1]

    def test_telemetry_json_safe_under_total_failure(self, matmul_if, train):
        import json

        plan = FaultPlan(
            seed=0, retries=0,
            rules=(FaultRule(site="sim.kernel", kind="oom", p=1.0),),
        )
        with faults.injected(plan):
            result = Autotuner(matmul_if, train, K40, seed=3).tune(
                max_proposals=4
            )
        doc = result.telemetry()
        assert doc["best_cost"] is None  # inf is not valid JSON
        assert doc["quarantined"]
        json.dumps(doc)  # strict-JSON serialisable


class TestQuarantine:
    def test_deterministic_fault_quarantines_without_retry(
        self, matmul_if, train
    ):
        plan = FaultPlan(
            seed=0, retries=8,
            rules=(FaultRule(site="sim.kernel", kind="oom", p=1.0),),
        )
        perf.reset()
        with faults.injected(plan):
            result = Autotuner(matmul_if, train, K40, seed=3).tune(
                max_proposals=6
            )
        assert result.retries == 0
        assert result.quarantined
        assert perf.counters().get("tuner.retries", 0) == 0
        assert perf.counters()["tuner.quarantined"] == len(result.quarantined)

    def test_quarantined_config_not_reevaluated(self, matmul_if, train):
        tuner = Autotuner(matmul_if, train, K40, seed=3)
        cfg = tuner.space.default_config()
        tuner.preload_measurements(
            [{} for _ in train], quarantined=[(cfg, "known bad")]
        )
        assert tuner._attempt(cfg) is None
        assert tuner.quarantine_list() == [(cfg, "known bad")]
        assert tuner.simulations == 0


class TestDeadlines:
    def test_zero_budget_falls_back_to_default(self, matmul_if, train):
        result = Autotuner(matmul_if, train, K40, seed=3).tune(
            max_proposals=50, time_budget_s=0
        )
        assert result.proposals == 1
        assert result.best_thresholds == Autotuner(
            matmul_if, train, K40
        ).space.default_config()
        assert result.best_cost < float("inf")

    def test_deadline_shorter_than_one_proposal(self, matmul_if, train):
        result = Autotuner(matmul_if, train, K40, seed=3).tune(
            max_proposals=50, time_budget_s=1e-9
        )
        assert result.proposals == 1
        assert result.best_cost < float("inf")

    def test_deadline_expiring_mid_run_ends_after_batch(
        self, matmul_if, train
    ):
        # a delay fault at the second batch boundary pushes past the
        # budget: the search stops after that batch instead of running
        # all 100 proposals
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule(site="tuner.batch", kind="delay", at=(1,),
                             delay_s=0.3),),
        )
        with faults.injected(plan):
            result = Autotuner(matmul_if, train, K40, seed=3).tune(
                max_proposals=100, batch_size=4, time_budget_s=0.25
            )
        assert result.proposals < 100
        assert result.proposals % 4 == 0  # whole batches only
        assert result.best_cost < float("inf")


class TestReplay:
    def test_preloaded_measurements_replay_bit_identically(
        self, matmul_if, train
    ):
        first = Autotuner(matmul_if, train, K40, seed=3, noise=0.03)
        a = first.tune(max_proposals=40)
        second = Autotuner(matmul_if, train, K40, seed=3, noise=0.03)
        second.preload_measurements(first.measurements())
        # run the replay under an always-fail plan: if anything were
        # re-simulated (instead of replayed from the recording) it would
        # fault and quarantine, so bit-identity proves pure replay
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule(site="sim.kernel", kind="oom", p=1.0),),
        )
        with faults.injected(plan):
            b = second.tune(max_proposals=40)
        assert_same_result(a, b)
        assert b.quarantined == []
        assert second.simulations == first.simulations  # replayed canonically


class TestExhaustive:
    def test_every_launch_failing_falls_back_to_defaults(self, matmul_if, train):
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule(site="sim.kernel", kind="oom", p=1.0),),
        )
        with faults.injected(plan):
            result = exhaustive_tune(matmul_if, train, K40)
        assert result.best_thresholds == Autotuner(
            matmul_if, train, K40
        ).space.default_config()
        assert result.best_cost == PENALTY_COST
        assert result.simulations == 0 and result.retries == 0
        assert result.full_history
        assert all(cost == PENALTY_COST for _, cost in result.full_history)
        assert [cfg for cfg, _ in result.quarantined] == [
            cfg for cfg, _ in result.full_history
        ]


class TestCounterParity:
    """Both techniques heal a recoverable plan: the result and the search
    counters equal a fault-free run's (docs/performance.md, "Counters
    under failure and recovery")."""

    @pytest.mark.parametrize("technique", ["bandit", "exhaustive"])
    def test_recovered_run_counts_like_fault_free(
        self, matmul_if, train, technique
    ):
        def run():
            if technique == "exhaustive":
                return exhaustive_tune(matmul_if, train, K40)
            return Autotuner(matmul_if, train, K40, seed=3).tune(
                max_proposals=40
            )

        baseline, clean = counted(run)
        with faults.injected(default_chaos_plan(seed=11)):
            chaotic, recovered = counted(run)
        assert_same_result(baseline, chaotic)
        assert chaotic.simulations == baseline.simulations
        assert chaotic.cache_hits == baseline.cache_hits
        assert chaotic.retries >= 1
        assert chaotic.quarantined == []
        assert clean["tuner.simulations"] == baseline.simulations > 0
        assert recovered == clean
