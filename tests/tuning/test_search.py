"""Search-technique and parameter-space tests."""

import random

import pytest

from repro.tuning.params import LogIntegerParameter, ParameterSpace
from repro.tuning.search import AUCBandit, HillClimb, PatternSearch, RandomSearch, make_technique


class TestLogIntegerParameter:
    def test_random_in_range(self):
        p = LogIntegerParameter("t", 1, 2**20)
        rng = random.Random(0)
        for _ in range(100):
            val = p.random_value(rng)
            assert 1 <= val <= 2**20 * 1.01

    def test_log_scale_distribution(self):
        """Half the samples should land below sqrt(lo*hi) — log uniformity."""
        p = LogIntegerParameter("t", 1, 2**20)
        rng = random.Random(1)
        mid = 2**10
        below = sum(p.random_value(rng) <= mid for _ in range(400))
        assert 120 <= below <= 280

    def test_neighbors_halve_double(self):
        p = LogIntegerParameter("t", 1, 2**20)
        assert set(p.neighbors(16)) == {8, 32}

    def test_neighbors_clipped_at_bounds(self):
        p = LogIntegerParameter("t", 4, 64)
        assert p.neighbors(4) == [8]
        assert p.neighbors(64) == [32]

    def test_clamp(self):
        p = LogIntegerParameter("t", 4, 64)
        assert p.clamp(1) == 4 and p.clamp(1000) == 64


class TestParameterSpace:
    def test_default_config(self):
        sp = ParameterSpace(["a", "b"])
        cfg = sp.default_config()
        assert cfg == {"a": 2**15, "b": 2**15}  # paper's default

    def test_mutate_changes_one(self):
        sp = ParameterSpace(["a", "b", "c"])
        rng = random.Random(0)
        cfg = sp.default_config()
        new = sp.mutate(cfg, rng)
        changed = [k for k in cfg if cfg[k] != new[k]]
        assert len(changed) <= 1

    def test_empty_space(self):
        sp = ParameterSpace([])
        assert sp.mutate({}, random.Random(0)) == {}


class TestTechniques:
    def _space(self):
        return ParameterSpace(["a", "b"])

    def test_random_search(self):
        t = RandomSearch()
        cfg = t.propose(self._space(), random.Random(0), None)
        assert set(cfg) == {"a", "b"}

    def test_hillclimb_needs_incumbent(self):
        t = HillClimb()
        rng = random.Random(0)
        cfg = t.propose(self._space(), rng, None)  # falls back to random
        assert set(cfg) == {"a", "b"}
        best = {"a": 16, "b": 16}
        near = t.propose(self._space(), rng, best)
        moved = [k for k in best if near[k] != best[k]]
        for k in moved:
            assert near[k] in (best[k] // 2, best[k] * 2)

    def test_pattern_moves_more(self):
        t = PatternSearch()
        rng = random.Random(0)
        best = {"a": 16, "b": 16}
        t.propose(self._space(), rng, best)  # should not raise

    def test_bandit_explores_all_arms(self):
        b = AUCBandit()
        rng = random.Random(0)
        for _ in range(len(b.techniques)):
            b.propose(self._space(), rng, None)
            b.feedback(False)
        assert all(c >= 1 for c in b.counts)

    def test_bandit_rewards_improvers(self):
        b = AUCBandit(c=0.1)
        rng = random.Random(0)
        for i in range(60):
            b.propose(self._space(), rng, {"a": 16, "b": 16})
            # pretend arm 1 (hillclimb) always improves
            b.feedback(b._last == 1)
        assert b.counts[1] == max(b.counts)

    def test_make_technique(self):
        for name in ("random", "hillclimb", "pattern", "bandit"):
            assert make_technique(name) is not None
        with pytest.raises(KeyError):
            make_technique("quantum")


class TestWindowedBandit:
    """AUCBandit reward accounting."""

    def _space(self):
        return ParameterSpace(["a", "b"])

    def test_fractional_rewards_accumulate(self):
        b = AUCBandit()
        rng = random.Random(0)
        b.propose(self._space(), rng, None)
        b.feedback(0.25)
        assert b.rewards[b._last] == 0.25
