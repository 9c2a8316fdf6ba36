"""Autotuner tests: caching, search, and the paper's qualitative claims."""

import pytest

from repro.compiler import compile_program
from repro.gpu import K40, VEGA64
from repro.tuning import (
    Autotuner,
    candidate_values,
    exhaustive_tune,
    path_signature,
)

from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


@pytest.fixture(scope="module")
def train20():
    return [matmul_sizes(e, 20) for e in range(11)]


class TestDuplicatePathCache:
    def test_cache_hits_dominate(self, matmul_if, train20):
        """§4.2: duplicate parameter assignments resolve without re-running."""
        tuner = Autotuner(matmul_if, train20, K40, seed=0)
        tuner.tune(max_proposals=200)
        assert tuner.cache_hits > tuner.simulations

    def test_simulations_bounded_by_distinct_paths(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40, seed=0)
        tuner.tune(max_proposals=500)
        distinct = sum(len(c) for c in tuner._cache)
        assert tuner.simulations == distinct

    def test_same_path_same_cost(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40)
        a = tuner.measure({t: 5 for t in matmul_if.thresholds()})
        b = tuner.measure({t: 6 for t in matmul_if.thresholds()})
        # both assignments select the all-true path (pars >= 6 here)
        sig_a = path_signature(
            matmul_if.body, train20[3], {t: 5 for t in matmul_if.thresholds()},
            device=K40,
        )
        sig_b = path_signature(
            matmul_if.body, train20[3], {t: 6 for t in matmul_if.thresholds()},
            device=K40,
        )
        if sig_a == sig_b:
            assert a == b


class TestTuningQuality:
    def test_tuned_at_least_as_good_as_default(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40, seed=1)
        res = tuner.tune(max_proposals=150)
        default_cost = tuner.measure(tuner.space.default_config())
        assert res.best_cost <= default_cost

    def test_exhaustive_finds_global_optimum_of_candidates(
        self, matmul_if, train20
    ):
        res = exhaustive_tune(matmul_if, train20, K40)
        stoch = Autotuner(matmul_if, train20, K40, seed=2).tune(max_proposals=400)
        assert res.best_cost <= stoch.best_cost * 1.0001

    def test_tuned_beats_both_extremes_on_train(self, matmul_if, train20):
        """AIF ≤ min(MF-like, FF-like): the whole point of the paper."""
        mf = compile_program(matmul_program(), "moderate")
        ff = compile_program(matmul_program(), "full")
        res = exhaustive_tune(matmul_if, train20, K40)
        t_mf = sum(mf.simulate(s, K40).time for s in train20)
        t_ff = sum(ff.simulate(s, K40).time for s in train20)
        assert res.best_cost <= min(t_mf, t_ff) * 1.05

    def test_fig2_transfer_k20_to_k25(self, matmul_if, train20):
        """Thresholds tuned on k=20 work on k=25 (paper Fig. 2)."""
        th = exhaustive_tune(matmul_if, train20, K40).best_thresholds
        mf = compile_program(matmul_program(), "moderate")
        ff = compile_program(matmul_program(), "full")
        for e in range(11):
            s = matmul_sizes(e, 25)
            t_aif = matmul_if.simulate(s, K40, thresholds=th).time
            t_best = min(mf.simulate(s, K40).time, ff.simulate(s, K40).time)
            assert t_aif <= t_best * 1.6, f"transfer failed at e={e}"

    def test_device_specific_thresholds_differ(self):
        """§5.1: parameters optimal for one device are not for the other."""
        cp = compile_program(locvolcalib_program(), "incremental")
        datasets = [locvolcalib_sizes(n) for n in ("small", "medium", "large")]
        th_k40 = exhaustive_tune(cp, datasets, K40)
        th_vega = exhaustive_tune(cp, datasets, VEGA64)
        sig_k40 = [
            path_signature(cp.body, s, th_k40.best_thresholds, device=K40)
            for s in datasets
        ]
        sig_vega = [
            path_signature(cp.body, s, th_vega.best_thresholds, device=VEGA64)
            for s in datasets
        ]
        assert sig_k40 != sig_vega


class TestCandidates:
    def test_candidate_values_cover_boundaries(self, matmul_if, train20):
        cands = candidate_values(matmul_if, train20)
        assert set(cands) == set(matmul_if.thresholds())
        for vals in cands.values():
            assert vals[0] == 1
            assert vals[-1] == 2**30

    def test_exhaustive_respects_cap(self, matmul_if, train20):
        with pytest.raises(ValueError):
            exhaustive_tune(matmul_if, train20, K40, max_configs=2)


class TestCostFunctions:
    def test_custom_cost_fn(self, matmul_if, train20):
        """§4.2: 'a different measure could easily be employed'."""
        worst = Autotuner(matmul_if, train20, K40, cost_fn=max)
        res = worst.tune(max_proposals=100)
        assert res.best_cost > 0

    def test_weighted_cost_fn(self, matmul_if, train20):
        weights = [2.0] + [1.0] * (len(train20) - 1)

        def weighted(times):
            return sum(w * t for w, t in zip(weights, times))

        tuner = Autotuner(matmul_if, train20, K40, cost_fn=weighted)
        res = tuner.tune(max_proposals=100)
        assert res.best_cost > 0


class TestMeasurementNoise:
    """The paper's runs have up to 3% stddev; tuning must be robust to it."""

    def test_noisy_tuning_still_near_optimal(self, matmul_if, train20):
        clean = exhaustive_tune(matmul_if, train20, K40)
        noisy = Autotuner(matmul_if, train20, K40, seed=3, noise=0.03)
        res = noisy.tune(max_proposals=300)
        # evaluate the noisy result with a clean tuner
        clean_eval = Autotuner(matmul_if, train20, K40)
        assert clean_eval.measure(res.best_thresholds) <= clean.best_cost * 1.5

    def test_noise_reproducible_with_seed(self, matmul_if, train20):
        a = Autotuner(matmul_if, train20, K40, seed=5, noise=0.03)
        b = Autotuner(matmul_if, train20, K40, seed=5, noise=0.03)
        cfg = {t: 2**15 for t in matmul_if.thresholds()}
        assert a.measure(cfg) == b.measure(cfg)

    def test_zero_noise_is_deterministic_truth(self, matmul_if, train20):
        a = Autotuner(matmul_if, train20, K40, seed=1, noise=0.0)
        b = Autotuner(matmul_if, train20, K40, seed=99, noise=0.0)
        cfg = {t: 2**15 for t in matmul_if.thresholds()}
        assert a.measure(cfg) == b.measure(cfg)


class TestTimeBudget:
    """§5.1: 'We let the autotuner run for 20 minutes per benchmark'."""

    def test_budget_caps_proposals(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40, seed=0)
        res = tuner.tune(max_proposals=10**6, time_budget_s=0.5)
        assert res.proposals < 10**6

    def test_zero_budget_still_returns_a_config(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40, seed=0)
        res = tuner.tune(max_proposals=100, time_budget_s=1e-9)
        assert res.best_thresholds  # falls back to the 2^15 defaults


class TestTuningFiles:
    """Persistence of tuned thresholds (the analogue of .tuning files)."""

    def test_roundtrip(self, matmul_if, train20, tmp_path):
        from repro.tuning import load_thresholds, save_thresholds

        res = exhaustive_tune(matmul_if, train20, K40)
        path = tmp_path / "matmul.tuning"
        save_thresholds(str(path), matmul_if, res.best_thresholds, device="K40")
        loaded = load_thresholds(str(path), matmul_if)
        assert loaded == res.best_thresholds

    def test_rejects_wrong_program(self, matmul_if, tmp_path):
        from repro.tuning import (
            TuningFileError,
            load_thresholds,
            save_thresholds,
        )

        path = tmp_path / "x.tuning"
        save_thresholds(str(path), matmul_if, {"t0": 5})
        other = compile_program(locvolcalib_program(), "incremental")
        with pytest.raises(TuningFileError):
            load_thresholds(str(path), other)

    def test_rejects_unknown_threshold_on_save(self, matmul_if, tmp_path):
        from repro.tuning import TuningFileError, save_thresholds

        with pytest.raises(TuningFileError):
            save_thresholds(
                str(tmp_path / "x.tuning"), matmul_if, {"nope": 1}
            )

    def test_rejects_garbage_file(self, matmul_if, tmp_path):
        from repro.tuning import TuningFileError, load_thresholds

        path = tmp_path / "junk.tuning"
        path.write_text("not json")
        with pytest.raises(TuningFileError):
            load_thresholds(str(path), matmul_if)

    def test_cli_tune_output_then_simulate(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "mm.tuning"
        main([
            "tune", "matmul", "--dataset", "n=4,m=65536",
            "--dataset", "n=1024,m=32", "--technique", "exhaustive",
            "--output", str(path),
        ])
        assert path.exists()
        capsys.readouterr()
        main([
            "simulate", "matmul", "--size", "n=1024,m=32",
            "--tuning", str(path),
        ])
        out = capsys.readouterr().out
        assert "ms" in out


class TestAccounting:
    """Deadline handling and result bookkeeping in Autotuner.tune."""

    def test_deadline_checked_after_measure(self, matmul_if, train20):
        """A budget that expires during the first measurement must stop the
        search after that batch, not start another proposal round."""
        tuner = Autotuner(matmul_if, train20, K40, seed=0)
        res = tuner.tune(max_proposals=10**6, time_budget_s=1e-9)
        # the first round's deadline check (before proposing) passes at
        # t=0; the post-measure check then ends the search immediately
        assert res.proposals <= 1

    def test_zero_budget_fallback_is_accounted(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40, seed=0)
        res = tuner.tune(max_proposals=100, time_budget_s=1e-9)
        assert res.best_thresholds == tuner.space.default_config()
        # the fallback default measurement counts like any other proposal
        assert res.proposals >= 1
        assert len(res.full_history) == res.proposals
        assert res.full_history[-1] == (res.best_thresholds, res.best_cost)
        assert res.history  # and appears on the improvement curve

    def test_full_history_records_every_proposal(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40, seed=4)
        res = tuner.tune(max_proposals=80)
        assert len(res.full_history) == res.proposals == 80
        assert min(c for _, c in res.full_history) == res.best_cost
        # history is the improving subsequence of full_history
        running = float("inf")
        improvements = []
        for n, (_, c) in enumerate(res.full_history, start=1):
            if c < running:
                running = c
                improvements.append((n, c))
        assert improvements == res.history

    def test_full_history_configs_are_copies(self, matmul_if, train20):
        tuner = Autotuner(matmul_if, train20, K40, seed=4)
        res = tuner.tune(max_proposals=20)
        cfg, _ = res.full_history[0]
        cfg["tampered"] = 1
        assert "tampered" not in res.best_thresholds


class TestBranchingTreeHash:
    """Tuning files are invalidated when the branching tree changes."""

    def test_hash_stable_for_same_compilation(self, matmul_if):
        from repro.tuning import branching_tree_hash

        assert branching_tree_hash(matmul_if) == branching_tree_hash(matmul_if)

    def test_roundtrip_with_hash(self, matmul_if, train20, tmp_path):
        import json

        from repro.tuning import branching_tree_hash, load_thresholds, save_thresholds

        res = exhaustive_tune(matmul_if, train20, K40)
        path = tmp_path / "mm.tuning"
        save_thresholds(str(path), matmul_if, res.best_thresholds)
        doc = json.loads(path.read_text())
        assert doc["branching_tree"] == branching_tree_hash(matmul_if)
        assert load_thresholds(str(path), matmul_if) == res.best_thresholds

    def test_rejects_stale_tree(self, matmul_if, tmp_path):
        import json

        from repro.tuning import TuningFileError, load_thresholds, save_thresholds

        path = tmp_path / "mm.tuning"
        cfg = {t: 5 for t in matmul_if.thresholds()}
        save_thresholds(str(path), matmul_if, cfg)
        doc = json.loads(path.read_text())
        doc["branching_tree"] = "0" * 64  # a recompile changed the tree
        path.write_text(json.dumps(doc))
        with pytest.raises(TuningFileError, match="branching tree"):
            load_thresholds(str(path), matmul_if)

    def test_tolerates_files_without_hash(self, matmul_if, tmp_path):
        """Pre-hash tuning files still load (the field is optional)."""
        import json

        from repro.tuning import load_thresholds, save_thresholds

        path = tmp_path / "mm.tuning"
        cfg = {t: 5 for t in matmul_if.thresholds()}
        save_thresholds(str(path), matmul_if, cfg)
        doc = json.loads(path.read_text())
        del doc["branching_tree"]
        path.write_text(json.dumps(doc))
        assert load_thresholds(str(path), matmul_if) == cfg
