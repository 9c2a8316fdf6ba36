"""Guarded execution: demotion ladder, circuit breakers, spot verification.

Unit tests drive :func:`repro.exec.guard.wrap_kernel` with synthetic
rungs (deterministic, no compiler needed); integration tests inject
persistent ``exec.launch.*`` faults into the real codegen engine and
assert the results stay bit-identical to the scalar oracle.  The
persistence tests mirror ``tests/tuning/test_persist.py``'s staleness
matrix: a stale or torn breaker file is *discarded*, never an error.
"""

import json
import os

import numpy as np
import pytest

from repro import faults, perf
from repro.exec import CodegenEvaluator, compile_cache, guard
from repro.exec.codegen import _CODE_CACHE, CACHE_VERSION
from repro.interp import Evaluator
from repro.ir import source as S
from repro.ir.builder import map_, v


@pytest.fixture(autouse=True)
def _isolated_guard(tmp_path, configure):
    configure(codegen_cache=str(tmp_path / "kcache"), guard=True,
              guard_trip=3, verify_rate=0.0)
    _CODE_CACHE.clear()
    guard.reset()
    yield
    guard.reset()


def _vals(x=1.0, n=4):
    return (np.full(n, x, dtype=np.float64),)


def _rung(result, fail=False):
    """A synthetic launch rung with call accounting."""
    calls = []

    def fn(env, n):
        calls.append(1)
        if fail:
            raise RuntimeError("injected rung failure")
        return result

    fn.calls = calls
    return fn


class TestDemotionLadder:
    def test_healthy_top_rung_serves(self):
        top, low = _rung(_vals(1.0)), _rung(_vals(1.0))
        launch = guard.wrap_kernel("k1", [("codegen", top), ("scalar", low)])
        assert launch._guard_wrapped
        out = launch({}, 4)
        assert out[0][0] == 1.0
        assert len(top.calls) == 1 and len(low.calls) == 0
        assert guard.demotion_count() == 0

    def test_failure_demotes_one_rung(self):
        top, low = _rung(None, fail=True), _rung(_vals(2.0))
        before = perf.counters().get("exec.guard.demotions", 0)
        launch = guard.wrap_kernel("k2", [("codegen", top), ("scalar", low)])
        out = launch({}, 4)
        assert out[0][0] == 2.0
        assert len(top.calls) == 1 and len(low.calls) == 1
        assert guard.demotion_count() == 1
        assert perf.counters()["exec.guard.demotions"] == before + 1
        assert perf.counters().get("exec.guard.demotions.codegen", 0) >= 1

    def test_last_rung_propagates(self):
        bad = _rung(None, fail=True)
        launch = guard.wrap_kernel("k4", [("codegen", bad), ("scalar", bad)])
        with pytest.raises(RuntimeError):
            launch({}, 4)

    def test_injected_oom_fault_demotes(self):
        top, low = _rung(_vals(1.0)), _rung(_vals(1.0))
        launch = guard.wrap_kernel("k5", [("codegen", top), ("scalar", low)])
        plan = faults.FaultPlan(seed=0, rules=(
            faults.FaultRule(site="exec.launch.codegen", kind="oom", p=1.0),
        ))
        with faults.injected(plan):
            out = launch({}, 4)
        assert out[0][0] == 1.0
        assert len(top.calls) == 0  # faulted before the rung ran
        assert len(low.calls) == 1
        assert guard.demotion_count() == 1


class TestBreaker:
    def test_trips_after_threshold_then_quarantines(self, configure, monkeypatch):
        configure(guard_trip=2)
        monkeypatch.setattr(guard, "COOLDOWN", 100)
        top, low = _rung(None, fail=True), _rung(_vals(1.0))
        launch = guard.wrap_kernel("kb", [("codegen", top), ("scalar", low)])
        launch({}, 4)
        launch({}, 4)  # second failure: trip
        snap = guard.snapshot()
        (br,) = snap["breakers"]
        assert br["state"] == "open" and br["trips"] == 1
        assert guard.demotion_active()
        before = len(top.calls)
        quarantined0 = perf.counters().get("exec.guard.quarantined", 0)
        launch({}, 4)  # quarantined: rung skipped outright
        assert len(top.calls) == before
        assert perf.counters()["exec.guard.quarantined"] == quarantined0 + 1

    def test_half_open_probe_recloses_on_success(self, configure, monkeypatch):
        configure(guard_trip=1)
        monkeypatch.setattr(guard, "COOLDOWN", 2)
        state = {"fail": True}
        low = _rung(_vals(1.0))

        def flaky(env, n):
            if state["fail"]:
                raise RuntimeError("down")
            return _vals(9.0)

        launch = guard.wrap_kernel("kh", [("codegen", flaky), ("scalar", low)])
        launch({}, 4)  # trip (threshold 1)
        assert guard.snapshot()["breakers"][0]["state"] == "open"
        launch({}, 4)  # skip 1
        state["fail"] = False  # tier heals while quarantined
        out = launch({}, 4)  # skip 2 -> half-open probe succeeds
        assert out[0][0] == 9.0
        (br,) = guard.snapshot()["breakers"]
        assert br["state"] == "closed" and br["probes"] == 1
        assert not guard.demotion_active()
        assert perf.counters().get("exec.guard.reclosed", 0) >= 1

    def test_half_open_probe_reopens_on_failure(self, configure, monkeypatch):
        configure(guard_trip=1)
        monkeypatch.setattr(guard, "COOLDOWN", 2)
        top, low = _rung(None, fail=True), _rung(_vals(1.0))
        launch = guard.wrap_kernel("kr", [("codegen", top), ("scalar", low)])
        launch({}, 4)  # trip
        launch({}, 4)  # skip 1
        launch({}, 4)  # skip 2 -> probe fails -> re-open
        (br,) = guard.snapshot()["breakers"]
        assert br["state"] == "open" and br["skips"] == 0  # cooldown restarted
        assert perf.counters().get("exec.guard.reopened", 0) >= 1

    def test_intermittent_failure_heals_without_trip(self, configure):
        configure(guard_trip=3)
        state = {"fail": True}
        low = _rung(_vals(1.0))

        def flaky(env, n):
            if state["fail"]:
                raise RuntimeError("blip")
            return _vals(5.0)

        launch = guard.wrap_kernel("ki", [("codegen", flaky), ("scalar", low)])
        launch({}, 4)  # one failure
        state["fail"] = False
        launch({}, 4)  # success clears the consecutive-fail count
        state["fail"] = True
        launch({}, 4)
        launch({}, 4)  # still only 2 consecutive: no trip
        snap = guard.snapshot()
        assert all(b["state"] == "closed" for b in snap["breakers"])


class TestVerify:
    def test_sampling_density(self):
        due = sum(guard._verify_due("ks", 0.25) for _ in range(100))
        assert due == 25
        assert not guard._verify_due("ks", 0.0)

    def test_divergence_returns_oracle_and_lands_corpus(
        self, tmp_path, configure
    ):
        corpus = tmp_path / "corpus"
        configure(corpus_dir=str(corpus), verify_rate=1.0)
        wrong = _rung(_vals(666.0))
        oracle = _rung(_vals(1.0))
        low = _rung(_vals(1.0))
        launch = guard.wrap_kernel(
            "kv-div", [("codegen", wrong), ("vector", oracle), ("scalar", low)],
            source="def _kernel(env, n): ...",
        )
        env = {"xs": np.arange(4.0)}
        out = launch(env, 4)
        assert out[0][0] == 1.0  # the oracle's values are the semantics
        assert perf.counters().get("exec.guard.verify_divergence", 0) >= 1
        (doc_path,) = list(corpus.glob("guard_*.json"))
        doc = json.loads(doc_path.read_text())
        assert doc["kind"] == "guard-divergence"
        assert doc["tier"] == "codegen"
        assert doc["source"].startswith("def _kernel")
        assert doc["inputs"]["xs"]["data"] == [0.0, 1.0, 2.0, 3.0]
        # a divergence is a launch failure: the breaker saw it
        (br,) = guard.snapshot()["breakers"]
        assert br["fails"] >= 1 or br["state"] != "closed"

    def test_matching_verification_passes_through(self, configure):
        configure(corpus_dir="/nonexistent-unused", verify_rate=1.0)
        top = _rung(_vals(1.0))
        oracle = _rung(_vals(1.0))
        launch = guard.wrap_kernel(
            "kv-ok", [("codegen", top), ("vector", oracle), ("scalar", oracle)]
        )
        out = launch({}, 4)
        assert out[0][0] == 1.0
        assert len(oracle.calls) == 1  # ran once, as the oracle
        assert perf.counters().get("exec.guard.verified", 0) >= 1
        assert guard.demotion_count() == 0

    def test_corpus_docs_are_ignored_by_recipe_loader(self, tmp_path):
        from repro.check.fuzz import load_corpus

        (tmp_path / "guard_deadbeef_codegen.json").write_text(json.dumps(
            {"kind": "guard-divergence", "key": "deadbeef"}
        ))
        (tmp_path / "real_recipe.json").write_text(json.dumps(
            {"sizes": {"n": 2}, "body": {"k": "xs"}}
        ))
        assert [name for name, _ in load_corpus(tmp_path)] == ["real_recipe"]


class TestPersistence:
    def _trip(self, configure, key="kp"):
        configure(guard_trip=1)
        top, low = _rung(None, fail=True), _rung(_vals(1.0))
        launch = guard.wrap_kernel(key, [("codegen", top), ("scalar", low)])
        launch({}, 4)
        return launch

    def test_trip_persists_and_reload_resumes(self, configure):
        self._trip(configure)
        path = compile_cache.breaker_path()
        doc = json.loads(open(path).read())
        assert doc["kind"] == "guard-breakers"
        assert doc["cache_version"] == CACHE_VERSION
        assert doc["device"] == guard.device_sig()
        assert doc["breakers"][0]["state"] == "open"
        # a fresh process (reset without dropping disk) resumes the state
        guard.reset()
        assert guard.load() == 1
        assert guard.demotion_active()
        assert perf.counters().get("exec.guard.breaker_resumed", 0) >= 1

    def test_breaker_file_survives_cache_eviction_and_clear(
        self, configure, monkeypatch
    ):
        self._trip(configure)
        path = compile_cache.breaker_path()
        monkeypatch.setattr(compile_cache, "MAX_ENTRIES", 1)
        for i in range(4):
            fp = f"fp-{i}"
            compile_cache.store(compile_cache.entry_key(fp), fp, {"i": i})
        assert os.path.exists(path)  # never LRU-evicted
        compile_cache.clear()
        assert os.path.exists(path)  # and not dropped by clear()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(cache_version=d["cache_version"] + 1),
            lambda d: d.update(device="riscv128-py9.9"),
            lambda d: d.update(format=99),
            lambda d: d.update(kind="something-else"),
            # format 1 predates the three-rung ladder: an open breaker for
            # the deleted native tier would never be probed, so never close
            lambda d: d.update(format=1, breakers=[
                {**d["breakers"][0], "key": "kn", "tier": "native"}
            ]),
        ],
        ids=["cache_version", "device", "format", "kind", "format1_native"],
    )
    def test_stale_file_discarded_not_errored(self, configure, mutate):
        self._trip(configure)
        path = compile_cache.breaker_path()
        doc = json.loads(open(path).read())
        mutate(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        guard.reset()
        before = perf.counters().get("exec.guard.breaker_stale", 0)
        assert guard.load() == 0  # discarded, no exception
        assert perf.counters()["exec.guard.breaker_stale"] == before + 1
        assert not guard.demotion_active()

    def test_torn_file_discarded(self, configure):
        self._trip(configure)
        path = compile_cache.breaker_path()
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        guard.reset()
        assert guard.load() == 0
        assert guard.snapshot()["breakers"] == []

    def test_missing_file_starts_clean(self):
        assert guard.load() == 0
        assert guard.snapshot()["breakers"] == []

    def test_flush_writes_probe_outcome(self, configure):
        # a half-open probe that *closes* a breaker persists eagerly, but
        # a plain fail-count change only reaches disk via flush (the
        # daemon calls it in its drain path)
        configure(guard_trip=5)
        top, low = _rung(None, fail=True), _rung(_vals(1.0))
        launch = guard.wrap_kernel("kf", [("codegen", top), ("scalar", low)])
        launch({}, 4)  # fails=1, below threshold: no transition, no write
        assert not os.path.exists(compile_cache.breaker_path())
        guard.flush()
        doc = json.loads(open(compile_cache.breaker_path()).read())
        assert doc["breakers"][0]["fails"] == 1


class TestCodegenIntegration:
    def _chain(self):
        return map_(lambda x: S.UnOp("abs", x * 2.0 + 1.0 - x * 0.5), v("xs"))

    def _xs(self, n=6):
        return np.linspace(-2.0, 3.0, n).astype(np.float32)

    def test_persistent_launch_faults_stay_bit_identical(self, configure):
        configure(guard_trip=1)
        e, xs = self._chain(), self._xs()
        ref = Evaluator().eval(e, {"xs": xs})
        plan = faults.FaultPlan(seed=1, rules=(
            faults.FaultRule(site="exec.launch.codegen", kind="launch", p=1.0),
        ))
        with faults.injected(plan):
            got = CodegenEvaluator().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert guard.demotion_count() > 0
        assert guard.demotion_active()  # breakers tripped to open

    def test_device_lost_fault_kind_demotes_identically(self):
        e, xs = self._chain(), self._xs()
        ref = Evaluator().eval(e, {"xs": xs})
        plan = faults.FaultPlan(seed=2, rules=(
            faults.FaultRule(
                site="exec.launch.*", kind="device_lost", p=1.0, max_fires=4
            ),
        ))
        with faults.injected(plan):
            got = CodegenEvaluator().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()

    def test_guard_off_is_a_passthrough(self, configure):
        configure(guard=False)
        e, xs = self._chain(), self._xs()
        ref = Evaluator().eval(e, {"xs": xs})
        got = CodegenEvaluator().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert guard.demotion_count() == 0
        assert guard.snapshot()["breakers"] == []

    def test_spot_verification_passes_on_healthy_engine(self, configure):
        configure(verify_rate=1.0)
        e, xs = self._chain(), self._xs()
        before = perf.counters().get("exec.guard.verified", 0)
        div0 = perf.counters().get("exec.guard.verify_divergence", 0)
        got = CodegenEvaluator().eval(e, {"xs": xs})
        ref = Evaluator().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert perf.counters().get("exec.guard.verified", 0) > before
        assert perf.counters().get("exec.guard.verify_divergence", 0) == div0
