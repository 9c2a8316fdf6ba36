"""Online threshold tuning under live traffic: one tune per shape class.

The paper tunes thresholds offline against fixed training datasets
(§5); a deployed program instead sees a *stream* of datasets whose
shapes the training set may not cover.  This module keeps a table from
shape class to thresholds and fills it from the stream itself:

1. **Classify.**  The incoming dataset is mapped to its shape class —
   log2 buckets of every threshold-relevant dimension, derived from the
   branching tree (:mod:`repro.tuning.shapes`).  The fingerprint is
   memoized on the :class:`~repro.compiler.CompiledProgram`, so a
   repeated shape is one dict lookup.
2. **Look up.**  A class already in the table is served its thresholds:
   no search, no simulation (``online.dispatch.exploit``).
3. **Tune.**  A class's first item runs
   :func:`~repro.tuning.exhaustive.exhaustive_tune` over that item's
   sizes — one simulation per distinct branching-tree path, the paper's
   "avoid redundant parameter settings entirely" (§4.2) — and the
   winner is frozen into the table.  The observation is the
   deterministic cost model, so measuring a path twice would only
   repeat the first answer.

A tune that measures nothing (every configuration quarantined under a
fault plan) serves the untuned defaults and records no class, so the
class's next item tunes again.

Tables persist through :mod:`repro.tuning.persist` (versioned, atomic,
identity-stamped) after every tune, so a restarted service resumes warm:
every tuned class survives a ``kill -9``.  See ``docs/online-tuning.md``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping

from repro import faults, perf
from repro.obs import trace as obs
from repro.tuning.exhaustive import exhaustive_tune
from repro.tuning.shapes import shape_key
from repro.tuning.tuner import PENALTY_COST, TuningResult

__all__ = ["OnlineTuner", "OnlineDecision"]


@dataclass
class OnlineDecision:
    """What one online dispatch chose."""

    thresholds: dict[str, int]
    shape: str  # shape-class key, e.g. "b5.b19"
    explored: bool  # this dispatch tuned its class (False: table lookup)
    #: the class's tune, when this dispatch ran one
    result: TuningResult | None = None


class OnlineTuner:
    """A table from shape class to tuned thresholds, filled from traffic.

    One instance serves one ``(compiled program, device)`` pair; it is
    thread-safe, so a multi-runner service daemon can share it across
    concurrent submissions.  With ``table_path`` set, every tuned class
    is persisted atomically before the decision is returned.
    """

    def __init__(self, compiled, device, table_path: str | None = None):
        self.compiled = compiled
        self.device = device
        self.table_path = table_path
        #: simulations run by this tuner's class tunes
        self.simulations = 0
        self.last_decision: OnlineDecision | None = None
        self._classes: dict[str, dict[str, int]] = {}
        self._lock = threading.RLock()  # save() re-enters via classes()

    def dispatch(self, sizes: Mapping[str, int]) -> OnlineDecision:
        """Choose thresholds for one incoming dataset, tuning its shape
        class first if the table has no entry for it."""
        with self._lock:
            decision = self._dispatch(dict(sizes))
            self.last_decision = decision
        return decision

    def _dispatch(self, sizes: dict[str, int]) -> OnlineDecision:
        perf.inc("online.dispatch")
        key = shape_key(self.compiled.shape_class(sizes))
        frozen = self._classes.get(key)
        if frozen is not None:
            perf.inc("online.dispatch.exploit")
            return OnlineDecision(dict(frozen), key, explored=False)
        perf.inc("online.dispatch.explore")
        with obs.span("online.explore", cat="tuning", shape=key) as sp:
            faults.check("online.observe")
            res = exhaustive_tune(self.compiled, [sizes], self.device)
            self.simulations += res.simulations
            sp["simulations"] = res.simulations
            if res.best_cost == PENALTY_COST:
                # nothing was measured: run the defaults, learn nothing
                return OnlineDecision({}, key, explored=True, result=res)
            frozen = self._classes[key] = dict(res.best_thresholds)
            perf.inc("online.classes")
            if self.table_path is not None:
                self.save(self.table_path)
        return OnlineDecision(dict(frozen), key, explored=True, result=res)

    def classes(self) -> dict[str, dict[str, int]]:
        """``{shape key: frozen thresholds}`` for every tuned class."""
        with self._lock:
            return {key: dict(th) for key, th in self._classes.items()}

    def save(self, path: str) -> None:
        """Atomically persist the table (see ``tuning/persist.py``)."""
        from repro.tuning.persist import save_online_table

        save_online_table(path, self)

    def load(self, path: str) -> int:
        """Resume from a persisted table; returns the classes restored.

        Raises :class:`~repro.tuning.persist.TuningFileError` when the
        table is malformed or was written for a different program,
        branching tree, fusion mode or device.
        """
        from repro.tuning.persist import load_online_table

        classes = load_online_table(path, self.compiled, device=self.device.name)
        with self._lock:
            self._classes = classes
        perf.inc("online.table.resumed", len(classes))
        return len(classes)
