"""The exhaustive tuner enumerates each joint path signature once.

``reference_tune`` below is the plain Cartesian scan the tuner used to
run: walk the whole candidate product in ``itertools.product`` order and
measure each joint signature the first time it appears.  The box walk must
reproduce its :class:`TuningResult` field for field.
"""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.bench import runner
from repro.bench.datasets import table1_sizes
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.compiler import compile_program_cached
from repro.gpu import CPU16, K40, VEGA64
from repro.interp.evaluator import DEFAULT_THRESHOLD
from repro.ir.builder import f32
from repro.tuning import (
    Autotuner,
    SignatureEngine,
    TuningResult,
    candidate_values,
    exhaustive_tune,
    signature_boxes,
)


def reference_tune(compiled, datasets, device):
    tuner = Autotuner(compiled, datasets, device)
    cands = candidate_values(compiled, datasets)
    names = list(cands)
    best_cfg, best_cost, proposals = None, float("inf"), 0
    seen, history, full_history = set(), [], []
    for combo in itertools.product(*(cands[n] for n in names)):
        cfg = dict(zip(names, combo))
        proposals += 1
        joint = tuple(sig for _, sig, _, _ in tuner._evaluate(cfg))
        if joint in seen:
            continue
        seen.add(joint)
        cost = tuner.measure(cfg)
        full_history.append((dict(cfg), cost))
        if cost < best_cost:
            best_cfg, best_cost = cfg, cost
            history.append((proposals, cost))
    return TuningResult(best_cfg, best_cost, proposals, tuner.simulations,
                        tuner.cache_hits, history, full_history,
                        path_counts=tuner.path_counts)


def tuning_datasets(name):
    """The program and training datasets the figure pipelines tune on."""
    if name == "matmul":
        return matmul_program(), [matmul_sizes(e, 20) for e in range(11)]
    if name == "LocVolCalib":
        return locvolcalib_program(), [
            locvolcalib_sizes(n) for n in ("small", "medium", "large")
        ]
    spec = runner.BULK_BENCHMARKS[name]
    if spec.tune_sizes is not None:
        return spec.program(), [dict(s) for s in spec.tune_sizes]
    return spec.program(), [
        runner._scaled_sizes(table1_sizes(name, ds), spec.tune_scale,
                             spec.fixed_sizes)
        for ds in ("D1", "D2")
    ]


PROGRAMS = ["matmul", "LocVolCalib", *runner.BULK_BENCHMARKS]


@pytest.mark.parametrize("device", [K40, VEGA64, CPU16], ids=lambda d: d.name)
@pytest.mark.parametrize("name", PROGRAMS)
def test_matches_cartesian_reference(name, device):
    prog, datasets = tuning_datasets(name)
    cp = compile_program_cached(prog, "incremental")
    assert exhaustive_tune(cp, datasets, device) == reference_tune(
        cp, datasets, device
    )


def test_signatures_computed_only_for_measured_corners():
    prog, datasets = tuning_datasets("LocVolCalib")
    cp = compile_program_cached(prog, "incremental")
    before = perf.counters()
    res = exhaustive_tune(cp, datasets, K40)
    after = perf.counters()
    computed = sum(
        after.get(c, 0) - before.get(c, 0)
        for c in ("signature.cache_hits", "signature.cache_misses")
    )
    assert computed <= len(res.full_history) * len(datasets)
    assert res.proposals == 49_152


def test_cap_bounds_signatures_not_product():
    prog, datasets = tuning_datasets("LocVolCalib")
    cp = compile_program_cached(prog, "incremental")
    # the 49,152-configuration product is far over this cap; its 159
    # distinct signatures are not
    res = exhaustive_tune(cp, datasets, K40, max_configs=159)
    assert res.proposals > 159 and len(res.full_history) == 159
    with pytest.raises(ValueError, match="more than 158 distinct"):
        exhaustive_tune(cp, datasets, K40, max_configs=158)


# ---------------------------------------------- synthetic decision trees
#
# Decision-tree nodes are (threshold, par, blocked, then, else) tuples, as
# SignatureEngine builds them; "x" has no candidate list and falls back to
# DEFAULT_THRESHOLD.


def engine(tree):
    eng = SignatureEngine(f32(0.0), {})
    eng._tree = tree
    return eng


def check_boxes(forest, cands):
    """The boxes are exactly the classes of equal joint signature."""
    engines = [engine(tree) for tree in forest]
    names = list(cands)
    by_sig: dict[tuple, set] = {}
    for idx in itertools.product(*(range(len(cands[n])) for n in names)):
        cfg = {n: cands[n][i] for n, i in zip(names, idx)}
        joint = tuple(e.signature(cfg) for e in engines)
        by_sig.setdefault(joint, set()).add(idx)
    boxes = [
        set(itertools.product(*(range(box[n][0], box[n][1] + 1) for n in names)))
        for box in signature_boxes(engines, cands)
    ]
    assert sorted(map(sorted, boxes)) == sorted(map(sorted, by_sig.values()))
    return boxes


PARS = st.one_of(
    st.integers(0, 12), st.sampled_from([DEFAULT_THRESHOLD - 1, DEFAULT_THRESHOLD])
)
TREES = st.recursive(
    st.just([]),
    lambda sub: st.lists(
        st.tuples(st.sampled_from("abx"), PARS, st.booleans(), sub, sub),
        min_size=1, max_size=3,
    ),
    max_leaves=8,
)
CANDS = st.fixed_dictionaries({
    n: st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted)
    for n in "abc"
})


@settings(max_examples=150, deadline=None)
@given(st.lists(TREES, max_size=3), CANDS)
def test_boxes_partition_by_signature(forest, cands):
    check_boxes(forest, cands)


def test_threshold_at_several_guards_intersects():
    # "a" guards twice on one path: a <= 8 takes the outer guard, a <= 4
    # the inner one, so the six candidates fall into three boxes
    tree = [("a", 8, False, [("a", 4, False, [], [])], [])]
    boxes = check_boxes([tree], {"a": [1, 3, 5, 7, 9, 11]})
    assert sorted(map(min, boxes)) == [(0,), (2,), (4,)]


def test_guard_without_candidates_uses_default():
    tree = [("x", DEFAULT_THRESHOLD, False, [("a", 4, False, [], [])], [])]
    boxes = check_boxes([tree], {"a": [1, 9]})
    assert len(boxes) == 2
    low = [("x", DEFAULT_THRESHOLD - 1, False, [("a", 4, False, [], [])], [])]
    assert len(check_boxes([low], {"a": [1, 9]})) == 1


def test_blocked_guard_constrains_nothing():
    tree = [("a", 10, True, [("b", 0, False, [], [])], [("b", 5, False, [], [])])]
    boxes = check_boxes([tree], {"a": [1, 20], "b": [1, 9]})
    assert len(boxes) == 2  # split on "b" in the else branch only


def test_empty_forest_is_one_box():
    cands = {"a": [1, 2], "b": [3]}
    assert len(check_boxes([], cands)) == 1
    assert len(check_boxes([[], []], cands)) == 1


def test_single_dataset():
    tree = [("a", 6, False, [("b", 6, False, [], [])], []), ("b", 2, False, [], [])]
    check_boxes([tree], {"a": [1, 4, 8], "b": [1, 4, 8]})


def test_walk_depth_not_bounded_by_recursion_limit():
    tree = [("a", 4, False, [], [])]
    engines = [engine(tree) for _ in range(sys.getrecursionlimit() + 100)]
    assert len(list(signature_boxes(engines, {"a": [1, 9]}))) == 2
