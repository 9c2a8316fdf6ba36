"""Tree-aware exhaustive tuning.

The paper notes (§4.2) that the stochastic tuner can take long to find the
optimum and suggests "us[ing] the structure of the branching tree to avoid
redundant parameter settings entirely".  This module implements that idea.

*Candidates.*  For each threshold the only decision boundaries are the
distinct values its ``Par`` expression takes across the training datasets,
so its candidate list is tiny: {always-true} ∪ {a midpoint between adjacent
Par values} ∪ {never-true}.  A configuration picks one candidate per
threshold; the search space is the Cartesian product of the lists.

*What is enumerated.*  Not that product: most of its configurations select
the same execution path on every dataset.  :func:`~repro.tuning.tree.
signature_boxes` walks the per-dataset decision trees once and yields each
distinct *joint path signature* (one path per dataset) exactly once, as the
box of candidate-index intervals whose configurations produce it.  Only one
configuration per box is measured.

*Why the result equals a product-order scan.*  A plain scan of the product
in ``itertools.product`` order, measuring each joint signature the first
time it appears, meets a box first at its lowest corner (every interval at
its lower end): that corner is the box's lexicographically smallest index
tuple.  Measuring the lowest corners sorted by their rank in product order
therefore makes the same ``measure`` calls in the same order, so every
field of the :class:`TuningResult` — best configuration and cost,
simulation and cache-hit counts, the per-dataset path counts of the
measured configurations, the improving ``history`` with its proposal
numbers, and ``full_history`` — is identical to the scan's.
``proposals`` still counts the configurations covered, i.e. the size of
the product.

*The cap.*  ``max_configs`` bounds the number of distinct signatures (boxes)
— the work actually done, since each costs one measurement — not the size
of the product, which costs nothing.  The walk stops and raises as soon as
it passes the cap.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.compiler import CompiledProgram
from repro.gpu.device import DeviceSpec
from repro.tuning.tree import signature_boxes
from repro.tuning.tuner import PENALTY_COST, Autotuner, CostFn, TuningResult, sum_cost

__all__ = ["exhaustive_tune", "candidate_values", "TooManySignatures"]


class TooManySignatures(ValueError):
    """The exhaustive search found more distinct signatures than its cap."""


def candidate_values(
    compiled: CompiledProgram, datasets: Sequence[Mapping[str, int]]
) -> dict[str, list[int]]:
    """Decision-boundary candidates per threshold.

    Setting a threshold to 1 makes its guard always true on these datasets;
    setting it just above a Par value flips the decision for the datasets
    at or below that value.
    """
    out: dict[str, list[int]] = {}
    for th in compiled.registry.items:
        pars = sorted({th.par.eval(dict(d)) for d in datasets})
        # boundaries *between* training datasets discriminate them; placing
        # each at the geometric midpoint of adjacent Par values (rather than
        # at par+1) makes the decision robust on unseen datasets of similar
        # shape — the paper trains on different datasets than it evaluates
        mids = [
            max(2, int(round((a * b) ** 0.5)))
            for a, b in zip(pars, pars[1:])
        ]
        cands = [1] + mids + [2**30]
        out[th.name] = sorted(set(cands))
    return out


def exhaustive_tune(
    compiled: CompiledProgram,
    datasets: Sequence[Mapping[str, int]],
    device: DeviceSpec,
    cost_fn: CostFn = sum_cost,
    max_configs: int = 200_000,
) -> TuningResult:
    """Measure one configuration per behaviourally distinct assignment.

    Each measurement goes through :meth:`Autotuner.measure`, so the
    active fault plan's retry and quarantine policy applies as in
    :meth:`Autotuner.tune`: a box whose corner cannot be measured scores
    :data:`~repro.tuning.tuner.PENALTY_COST`, and when no box can be
    measured the result is the default configuration at that cost.

    Raises :class:`TooManySignatures` when the candidates produce more than
    ``max_configs`` distinct joint path signatures.
    """
    tuner = Autotuner(compiled, datasets, device, cost_fn=cost_fn)
    cands = candidate_values(compiled, datasets)
    names = list(cands)
    # product-order rank of an index tuple: mixed radix, last name fastest
    weights: dict[str, int] = {}
    total = 1
    for n in reversed(names):
        weights[n] = total
        total *= len(cands[n])

    corners: list[tuple[int, dict[str, int]]] = []
    for box in signature_boxes(tuner._engines, cands):
        if len(corners) == max_configs:
            raise TooManySignatures(
                f"more than {max_configs} distinct path signatures; "
                f"use the stochastic tuner instead"
            )
        rank = sum(lo * weights[n] for n, (lo, _hi) in box.items())
        corners.append((rank, {n: cands[n][box[n][0]] for n in names}))
    corners.sort(key=lambda c: c[0])

    best_cfg: dict[str, int] | None = None
    best_cost = float("inf")
    history: list[tuple[int, float]] = []
    full_history: list[tuple[dict[str, int], float]] = []
    for rank, cfg in corners:
        cost = tuner.measure(cfg)
        full_history.append((dict(cfg), cost))
        if cost < best_cost:
            best_cfg, best_cost = cfg, cost
            history.append((rank + 1, cost))

    if best_cfg is None:
        # no box could be measured: the defaults, as Autotuner.tune falls back
        best_cfg, best_cost = tuner.space.default_config(), PENALTY_COST
    return TuningResult(
        best_thresholds=best_cfg,
        best_cost=best_cost,
        proposals=total,
        simulations=tuner.simulations,
        cache_hits=tuner.cache_hits,
        history=history,
        full_history=full_history,
        path_counts=tuner.path_counts,
        retries=tuner.retries,
        quarantined=tuner.quarantine_list(),
    )
