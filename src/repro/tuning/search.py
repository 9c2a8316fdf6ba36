"""Search techniques for the stochastic autotuner.

A simplified OpenTuner [4]: independent techniques propose configurations
and an AUC-style multi-armed bandit allocates trials to whichever technique
has recently produced improvements.
"""

from __future__ import annotations

import math
import random
from typing import Protocol

from repro.tuning.params import ParameterSpace

__all__ = ["RandomSearch", "HillClimb", "AUCBandit", "make_technique"]


class Technique(Protocol):
    name: str

    def propose(
        self,
        space: ParameterSpace,
        rng: random.Random,
        best: dict[str, int] | None,
    ) -> dict[str, int]: ...

    def feedback(self, improved: bool) -> None: ...


class RandomSearch:
    """Uniform (log-scale) random sampling."""

    name = "random"

    def propose(self, space, rng, best):
        return space.random_config(rng)

    def feedback(self, improved: bool) -> None:
        pass


class HillClimb:
    """Halve/double one parameter of the incumbent best configuration."""

    name = "hillclimb"

    def propose(self, space, rng, best):
        if best is None:
            return space.random_config(rng)
        return space.mutate(best, rng)

    def feedback(self, improved: bool) -> None:
        pass


class PatternSearch:
    """Move several parameters of the incumbent at once (larger steps)."""

    name = "pattern"

    def propose(self, space, rng, best):
        if best is None:
            return space.random_config(rng)
        cfg = dict(best)
        k = max(1, len(space) // 2)
        for _ in range(k):
            cfg = space.mutate(cfg, rng)
        return cfg

    def feedback(self, improved: bool) -> None:
        pass


class AUCBandit:
    """UCB1-style meta-technique over a set of sub-techniques.

    Each arm's reward is 1 when its proposal improved the incumbent.
    Rewards accumulate over the whole history.  This mirrors OpenTuner's AUC bandit at the granularity we
    need.
    """

    name = "bandit"

    def __init__(self, techniques: list[Technique] | None = None, c: float = 1.4):
        self.techniques = techniques or [RandomSearch(), HillClimb(), PatternSearch()]
        self.c = c
        self.counts = [0] * len(self.techniques)
        self.rewards = [0.0] * len(self.techniques)
        self._last: int | None = None

    def _pick(self) -> int:
        total = sum(self.counts)
        for i, n in enumerate(self.counts):
            if n == 0:
                return i
        scores = [
            self.rewards[i] / self.counts[i]
            + self.c * math.sqrt(math.log(total) / self.counts[i])
            for i in range(len(self.techniques))
        ]
        return max(range(len(scores)), key=scores.__getitem__)

    def propose(self, space, rng, best):
        self._last = self._pick()
        self.counts[self._last] += 1
        return self.techniques[self._last].propose(space, rng, best)

    def feedback(self, improved) -> None:
        if self._last is not None:
            self.rewards[self._last] += float(improved)
            self.techniques[self._last].feedback(improved)


def make_technique(name: str) -> Technique:
    return {
        "random": RandomSearch,
        "hillclimb": HillClimb,
        "pattern": PatternSearch,
        "bandit": AUCBandit,
    }[name]()
