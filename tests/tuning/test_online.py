"""Online threshold tuning: one exhaustive tune per shape class.

The online tuner only ever serves threshold assignments of the compiled
program's branching tree, so execution under online dispatch must stay
bit-identical to passing those thresholds explicitly — ``TestBitIdentity``
checks exactly that, across execution engines.  The rest covers the
per-class tune (it equals an offline exhaustive tune over the class's
first item, and every later item of the class is a table lookup), its
failure policy, and the crash-safe table round trip through
``tuning/persist.py``.
"""

import json

import numpy as np
import pytest

from repro import faults, perf
from repro.bench.datasets import table1_sizes
from repro.bench.programs.matmul import matmul_program
from repro.bench.programs.nw import nw_program
from repro.check.differential import enumerate_forced_paths
from repro.cli import _random_inputs, main
from repro.compiler import compile_program
from repro.exec import guard
from repro.gpu import K40, VEGA64
from repro.tuning import (
    OnlineTuner,
    TuningFileError,
    exhaustive_tune,
    load_online_table,
    log_bucket,
    save_online_table,
    shape_key,
)

NW_D1 = table1_sizes("NW", "D1")
NW_D2 = table1_sizes("NW", "D2")


@pytest.fixture(scope="module")
def nw_if():
    return compile_program(nw_program(), "incremental")


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


def _cost(cp, sizes, thresholds) -> float:
    return float(cp.simulate(sizes, K40, thresholds=thresholds or None).time)


class TestShapeClasses:
    def test_log_bucket(self):
        assert log_bucket(0) == 0
        assert log_bucket(1) == 1
        assert log_bucket(2**15) == 16
        assert log_bucket(2**15 - 1) == 15

    def test_shape_key_format(self, nw_if):
        key = shape_key(nw_if.shape_class(NW_D1))
        assert key and all(part.startswith("b") for part in key.split("."))

    def test_distinct_datasets_distinct_classes(self, nw_if):
        assert nw_if.shape_class(NW_D1) != nw_if.shape_class(NW_D2)

    def test_fingerprint_memoized(self, nw_if):
        perf.reset()
        nw_if._shape_memo.clear()
        nw_if.shape_class(NW_D1)
        for _ in range(5):
            nw_if.shape_class(NW_D1)
        counters = perf.snapshot()["counters"]
        assert counters["exec.dispatch"] == 6
        assert counters["exec.dispatch.memo_hits"] == 5
        assert counters["exec.dispatch.memo_misses"] == 1


class TestDispatch:
    def test_frozen_thresholds_equal_exhaustive_tune(self, nw_if):
        tuner = OnlineTuner(nw_if, K40)
        d = tuner.dispatch(NW_D1)
        want = exhaustive_tune(nw_if, [NW_D1], K40).best_thresholds
        assert d.explored and d.thresholds == want
        assert tuner.classes() == {d.shape: want}

    def test_converges_to_exhaustive_optimum(self, nw_if):
        """The frozen class runs its first item on the cheapest forced
        branching-tree path."""
        tuner = OnlineTuner(nw_if, K40)
        d = tuner.dispatch(NW_D1)
        paths, truncated = enumerate_forced_paths(
            nw_if.branching_trees(), max_paths=256
        )
        assert not truncated
        best = min(_cost(nw_if, NW_D1, p) for p in paths)
        assert _cost(nw_if, NW_D1, d.thresholds) == pytest.approx(best)

    def test_exploit_path_does_no_simulation(self, nw_if, monkeypatch):
        tuner = OnlineTuner(nw_if, K40)
        first = tuner.dispatch(NW_D1)

        def boom(*a, **kw):
            raise AssertionError("exploit path must not simulate")

        monkeypatch.setattr(tuner.compiled, "simulate", boom)
        d = tuner.dispatch(NW_D1)
        assert not d.explored and d.result is None
        assert d.thresholds == first.thresholds

    def test_second_dataset_of_a_class_does_no_simulation(
        self, matmul_if, monkeypatch
    ):
        a, b = {"n": 4, "m": 8}, {"n": 5, "m": 8}
        assert matmul_if.shape_class(a) == matmul_if.shape_class(b)
        tuner = OnlineTuner(matmul_if, K40)
        first = tuner.dispatch(a)
        simulations = tuner.simulations

        def boom(*a, **kw):
            raise AssertionError("a tuned class must not simulate again")

        monkeypatch.setattr(tuner.compiled, "simulate", boom)
        d = tuner.dispatch(b)
        assert not d.explored and d.thresholds == first.thresholds
        assert tuner.simulations == simulations

    def test_exploration_cost_is_bounded(self, nw_if):
        """A class's first item costs no more than the untuned defaults,
        and its tune simulates at most one configuration per forced
        path of the branching tree."""
        paths, _ = enumerate_forced_paths(nw_if.branching_trees(), max_paths=256)
        tuner = OnlineTuner(nw_if, K40)
        for sizes in (NW_D1, NW_D2):
            d = tuner.dispatch(sizes)
            assert d.explored
            assert _cost(nw_if, sizes, d.thresholds) <= _cost(nw_if, sizes, {})
            assert 1 <= d.result.simulations <= len(paths)
        assert tuner.simulations == sum(
            r.simulations for r in
            (exhaustive_tune(nw_if, [s], K40) for s in (NW_D1, NW_D2))
        )

    def test_classes_learn_independently(self, nw_if):
        tuner = OnlineTuner(nw_if, K40)
        tuner.dispatch(NW_D1)
        d = tuner.dispatch(NW_D2)  # a new class tunes on its own item
        assert d.explored
        assert len(tuner.classes()) == 2

    def test_single_version_program_converges_immediately(self):
        """A guard-free (moderate-mode) program has no thresholds: its
        first item freezes ``{}`` for the one class ``-``."""
        cp = compile_program(matmul_program(), "moderate")
        tuner = OnlineTuner(cp, K40)
        d = tuner.dispatch({"n": 8, "m": 8})
        assert d.explored and d.thresholds == {} and d.shape == "-"
        assert tuner.classes() == {"-": {}}
        assert not tuner.dispatch({"n": 64, "m": 2}).explored

    def test_open_breaker_freezes_healthy_thresholds(
        self, matmul_if, configure, tmp_path
    ):
        """The tune observes the cost model, which never reads guard
        state, so a tripped breaker changes nothing it freezes."""
        sizes = {"n": 4, "m": 8}
        inputs = _random_inputs(matmul_if.prog, sizes, seed=0)
        healthy = OnlineTuner(matmul_if, K40)
        matmul_if.run(inputs, online=healthy)

        configure(codegen_cache=str(tmp_path / "kcache"), guard=True,
                  guard_trip=1)
        guard.reset()
        try:
            def fail(env, n):
                raise RuntimeError("injected rung failure")

            launch = guard.wrap_kernel(
                "k-online", [("codegen", fail), ("scalar", lambda env, n: ())]
            )
            launch({}, 4)
            (br,) = guard.snapshot()["breakers"]
            assert br["state"] == "open"
            tuner = OnlineTuner(matmul_if, K40)
            matmul_if.run(inputs, online=tuner)
        finally:
            guard.reset()
        assert tuner.last_decision.explored
        assert tuner.last_decision.thresholds == healthy.last_decision.thresholds
        assert tuner.classes() == healthy.classes()

    def test_unmeasured_tune_serves_defaults(self, nw_if):
        """When every measurement fails, the item runs the untuned
        defaults and the class stays untuned, so its next item tunes."""
        plan = faults.FaultPlan(seed=0, rules=(
            faults.FaultRule(site="sim.kernel", kind="oom", p=1.0),
        ))
        tuner = OnlineTuner(nw_if, K40)
        with faults.injected(plan):
            d = tuner.dispatch(NW_D1)
        assert d.explored and d.thresholds == {}
        assert d.result.quarantined
        assert tuner.classes() == {}
        again = tuner.dispatch(NW_D1)
        assert again.explored and again.thresholds
        assert len(tuner.classes()) == 1


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["scalar", "vector", "codegen"])
    def test_online_run_matches_explicit_thresholds(self, matmul_if, engine):
        """Every online decision is a forced path of the same branching
        tree, so outputs are bit-identical to passing those thresholds
        explicitly — on every execution engine."""
        tuner = OnlineTuner(matmul_if, K40)
        sizes = {"n": 3, "m": 4}
        inputs = _random_inputs(matmul_if.prog, sizes, seed=7)
        for _ in range(4):
            got = matmul_if.run(inputs, engine=engine, online=tuner)
            want = matmul_if.run(
                inputs, thresholds=tuner.last_decision.thresholds or None,
                engine=engine,
            )
            for g, w in zip(got, want):
                assert np.array_equal(np.asarray(g), np.asarray(w))

    def test_online_and_thresholds_mutually_exclusive(self, matmul_if):
        tuner = OnlineTuner(matmul_if, K40)
        inputs = _random_inputs(matmul_if.prog, {"n": 2, "m": 2}, seed=0)
        with pytest.raises(ValueError, match="not both"):
            matmul_if.run(inputs, thresholds={"t0": 1}, online=tuner)


def _saved(tmp_path, nw_if):
    """A one-class NW table on disk."""
    path = tmp_path / "nw.online.json"
    tuner = OnlineTuner(nw_if, K40)
    tuner.dispatch(NW_D1)
    save_online_table(str(path), tuner)
    return path


def _edit(path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


class TestPersistence:
    def test_round_trip_restores_state(self, nw_if, tmp_path):
        path = str(tmp_path / "nw.online.json")
        tuner = OnlineTuner(nw_if, K40)
        tuner.dispatch(NW_D1)
        tuner.dispatch(NW_D2)
        tuner.save(path)

        fresh = OnlineTuner(nw_if, K40)
        assert fresh.load(path) == 2
        assert fresh.classes() == tuner.classes()
        # a restored class is served without tuning again
        assert not fresh.dispatch(NW_D1).explored
        assert fresh.simulations == 0

    def test_resume_is_monotone(self, nw_if, tmp_path):
        """The chaos CI leg's invariant: reload never loses a tuned
        class, and continuing only adds to them."""
        path = str(tmp_path / "nw.online.json")
        tuner = OnlineTuner(nw_if, K40, table_path=path)
        tuner.dispatch(NW_D1)

        resumed = OnlineTuner(nw_if, K40, table_path=path)
        assert resumed.load(path) == 1
        assert not resumed.dispatch(NW_D1).explored
        assert resumed.dispatch(NW_D2).explored
        assert len(resumed.classes()) == 2

    def test_every_observation_is_on_disk(self, nw_if, tmp_path):
        """With ``table_path`` set, the table on disk always holds every
        class tuned before the decision returned."""
        path = str(tmp_path / "nw.online.json")
        tuner = OnlineTuner(nw_if, K40, table_path=path)
        for sizes, classes in ((NW_D1, 1), (NW_D1, 1), (NW_D2, 2)):
            tuner.dispatch(sizes)
            assert OnlineTuner(nw_if, K40).load(path) == classes

    def test_rejects_other_program(self, nw_if, matmul_if, tmp_path):
        path = _saved(tmp_path, nw_if)
        with pytest.raises(TuningFileError, match="program"):
            load_online_table(str(path), matmul_if)

    def test_rejects_other_device(self, nw_if, tmp_path):
        path = _saved(tmp_path, nw_if)
        with pytest.raises(TuningFileError, match="device"):
            OnlineTuner(nw_if, VEGA64).load(str(path))

    def test_rejects_fusion_mismatch(self, nw_if, tmp_path):
        path = _saved(tmp_path, nw_if)
        _edit(path, lambda doc: doc.update(fusion="greedy"))
        with pytest.raises(TuningFileError, match="fusion mode"):
            load_online_table(str(path), nw_if)

    def test_rejects_changed_branching_tree(self, nw_if, tmp_path):
        path = _saved(tmp_path, nw_if)
        _edit(path, lambda doc: doc.update(branching_tree="0" * 64))
        with pytest.raises(TuningFileError, match="branching tree"):
            load_online_table(str(path), nw_if)

    def test_rejects_unsupported_format(self, nw_if, tmp_path):
        path = _saved(tmp_path, nw_if)
        _edit(path, lambda doc: doc.update(format=99))
        with pytest.raises(TuningFileError, match="format"):
            load_online_table(str(path), nw_if)

    def test_rejects_unknown_threshold_names(self, nw_if, tmp_path):
        path = _saved(tmp_path, nw_if)

        def rename(doc):
            for th in doc["classes"].values():
                th["t999"] = 1

        _edit(path, rename)
        with pytest.raises(TuningFileError, match="threshold names"):
            OnlineTuner(nw_if, K40).load(str(path))

    def test_rejects_malformed_classes(self, nw_if, tmp_path):
        for bad in ("x", None, [1], {"t0": 1}):
            path = _saved(tmp_path, nw_if)
            _edit(path, lambda doc: [
                th.update({name: bad for name in th})
                for th in doc["classes"].values()
            ])
            with pytest.raises(TuningFileError, match="malformed"):
                load_online_table(str(path), nw_if)
        path = _saved(tmp_path, nw_if)
        _edit(path, lambda doc: doc.update(classes=[]))
        with pytest.raises(TuningFileError, match="malformed"):
            load_online_table(str(path), nw_if)

    def test_rejects_non_json(self, nw_if, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json {")
        with pytest.raises(TuningFileError, match="not an online table"):
            load_online_table(str(path), nw_if)


class TestCLI:
    def test_online_flag_round_trips(self, capsys, tmp_path):
        path = str(tmp_path / "t.online.json")
        argv = ["run", "matmul", "--size", "n=3,m=4", "--online", path]
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert "online:" in out and " explore " in out and "classes=1" in out
        assert main(list(argv)) == 0
        out = capsys.readouterr().out
        assert " exploit " in out and "classes=1" in out
        argv[3] = "n=64,m=2"  # another shape class
        assert main(list(argv)) == 0
        assert "classes=2" in capsys.readouterr().out

    def test_online_excludes_explicit_thresholds(self, capsys, tmp_path):
        code = main([
            "run", "matmul", "--size", "n=2,m=2",
            "--online", str(tmp_path / "t.json"), "--threshold", "t0=1",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")

    def test_stale_table_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "t.online.json"
        argv = ["run", "matmul", "--size", "n=2,m=2", "--online", str(path)]
        assert main(list(argv)) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        doc["branching_tree"] = "0" * 64
        path.write_text(json.dumps(doc))
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "branching tree" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "name, value", [("t0", "x"), ("t999", 1)], ids=["value", "name"]
    )
    def test_malformed_table_is_an_error(self, capsys, tmp_path, name, value):
        """A hand-edited class entry exits 2 with one error line."""
        path = tmp_path / "t.online.json"
        argv = ["run", "matmul", "--size", "n=4,m=8", "--online", str(path)]
        assert main(list(argv)) == 0
        capsys.readouterr()
        _edit(path, lambda doc: [
            th.update({name: value}) for th in doc["classes"].values()
        ])
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert len(err.strip().splitlines()) == 1
