"""Binding by reference: index-only outer-batch variables.

Inside a batch of width ``n``, a nested body of width ``m`` used to copy
each batched free variable to all ``n*m`` lanes.  A variable the body
reads only as ``x[i, ...]`` with a lane-varying index is now bound by
reference instead: its ``(n, ...)`` array plus a lane -> row index, and
every read is one gather.  Each case here runs on both batched engines
and must stay bit-identical to the scalar oracle.
"""

import json
import tracemalloc

import numpy as np
import pytest

from repro import faults, obs, perf
from repro.cli import _random_inputs, _resolve_program
from repro.compiler import compile_program
from repro.exec import CodegenEvaluator, VectorEvaluator, guard
from repro.exec.codegen import _CODE_CACHE
from repro.interp import Evaluator, intrinsics
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import f32, i64, if_, intrinsic, iota, loop_, map_, max_, min_, v
from repro.sizes import SizeVar
from perfbench.workloads import EXEC_SIZES

ENGINES = {"vector": VectorEvaluator, "codegen": CodegenEvaluator}

RNG = np.random.default_rng(24)
IMGS = RNG.uniform(0, 1, (3, 4, 5)).astype(np.float32)
XSS = RNG.uniform(0, 1, (4, 6)).astype(np.float32)


@pytest.fixture(autouse=True)
def _isolated(tmp_path, configure):
    configure(codegen_cache=str(tmp_path / "kcache"), guard=True, verify_rate=0.0)
    _CODE_CACHE.clear()
    guard.reset()
    yield
    guard.reset()


def _delta(before, name):
    return perf.counters().get(name, 0) - before.get(name, 0)


def check(engine, e, ev=None, **env):
    """Run ``e``; assert bit-identity with the scalar oracle and no
    per-lane fallback.  Returns the perf counters taken before."""
    ref = Evaluator().eval(e, env)
    before = perf.counters()
    got = (ev or ENGINES[engine]()).eval(e, env)
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        ra, ga = np.asarray(r), np.asarray(g)
        assert ra.shape == ga.shape and ra.dtype == ga.dtype
        assert ra.tobytes() == ga.tobytes()
    return before


def _stencil(img, i, j, h=4, w=5):
    """SRAD's neighbourhood reads, at literal extents."""
    return (img[i, j] + img[max_(i - 1, 0), j]) * img[i, min_(j + 1, w - 1)] \
        - img[min_(i + 1, h - 1), max_(j - 1, 0)]


class TestNests:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_level_map_nest_composes_the_row_index(self, engine):
        e = map_(lambda img: map_(
            lambda i: map_(lambda j: _stencil(img, i, j), iota(i64(5))),
            iota(i64(4)),
        ), v("imgs"))
        before = check(engine, e, imgs=IMGS)
        # bound by reference at the rows' map, composed at the columns';
        # the row number ``i`` is an index, not indexed: it is copied
        assert _delta(before, "exec.bind.lane_mapped") == 2
        assert _delta(before, "exec.bind.expanded") == 1
        assert _delta(before, "exec.scalar_fallbacks") == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_segmap_nest_composes_and_labels_its_span(self, engine):
        ctx = T.Ctx(T.Binding(ps, arrs, SizeVar("n")) for ps, arrs in [
            (("img",), (v("imgs"),)), (("i",), (iota(i64(4)),)),
            (("j",), (iota(i64(5)),)),
        ])
        body = _stencil(v("img"), v("i"), v("j"))
        e = map_(lambda k: T.SegMap(1, ctx, body * S.UnOp("to_f32", k)),
                 iota(i64(2)))
        with obs.tracing() as tracer:
            before = check(engine, e, imgs=IMGS)
        # by reference at ``i``, composed at ``j``; ``k`` is copied at all
        # three levels and ``i`` (an index, not indexed) at the last
        assert _delta(before, "exec.bind.lane_mapped") == 2
        assert _delta(before, "exec.bind.expanded") == 4
        spans = [s for s in tracer.spans if s.args.get("construct") == "segmap1"]
        assert [s.args.get("lane_mapped") for s in spans] == [["img"]]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_constant_index_keeps_the_copy(self, engine):
        # Heston's cand_row[0]: every step reads one view of the copy
        e = map_(lambda row: map_(lambda x: x * row[0], row), v("xss"))
        before = check(engine, e, xss=XSS)
        assert _delta(before, "exec.bind.lane_mapped") == 0
        assert _delta(before, "exec.bind.expanded") == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_bare_use_keeps_the_copy(self, engine):
        e = map_(lambda row: map_(
            lambda j: row[j] + S.Reduce(S.Lambda(("a", "b"), S.BinOp("+", v("a"), v("b"))),
                                        [f32(0.0)], [row]),
            iota(i64(6)),
        ), v("xss"))
        before = check(engine, e, xss=XSS)
        assert _delta(before, "exec.bind.lane_mapped") == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_hoisted_fold_body_binds_by_reference(self, engine):
        e = map_(lambda row: S.Redomap(
            S.Lambda(("a", "b"), S.BinOp("+", v("a"), v("b"))),
            S.Lambda(("x", "j"), v("x") * row[max_(v("j") - 1, 0)]),
            [f32(0.0)], [row, iota(i64(6))],
        ), v("xss"))
        with obs.tracing() as tracer:
            before = check(engine, e, xss=XSS)
        assert _delta(before, "exec.fold.hoisted") == 1
        assert _delta(before, "exec.bind.lane_mapped") == 1
        (sp,) = [s for s in tracer.spans if s.args.get("construct") == "redomap"]
        assert sp.args.get("lane_mapped") == [e.lam.params[0]]


class TestMaskedLowerings:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_masked_if_compresses_the_row_index(self, engine):
        # indexing is not total, so the batched ``if`` runs masked
        e = map_(lambda row: map_(lambda j: if_(
            S.BinOp(">", row[j], f32(0.5)),
            row[max_(j - 1, 0)] / row[j],
            row[min_(j + 1, 5)] * f32(2.0),
        ), iota(i64(6))), v("xss"))
        before = check(engine, e, xss=XSS)
        assert _delta(before, "exec.masked_if") == 1
        assert _delta(before, "exec.bind.lane_mapped") == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_masked_loop_compresses_the_row_index(self, engine):
        # the trip count is the lane's column: a batched-bound loop
        e = map_(lambda row: map_(lambda j: loop_(
            [f32(0.0)], j,
            lambda it, acc: acc * f32(0.5) + row[min_(it + j, 5)],
        ), iota(i64(6))), v("xss"))
        before = check(engine, e, xss=XSS)
        assert _delta(before, "exec.masked_loop") == 1
        assert _delta(before, "exec.bind.lane_mapped") == 1


@pytest.fixture
def lanewise(monkeypatch):
    """A registered intrinsic with no whole-batch lowering."""
    monkeypatch.setitem(intrinsics.INTRINSICS, "_test_lanewise", intrinsics.IntrinsicDef(
        name="_test_lanewise",
        type_rule=lambda ts: ts,
        interp=lambda x: x * np.float32(3.0) + np.float32(1.0),
        cost=lambda avals, sizes: (1.0, 0.0, 0.0),
    ))


class TestPerLane:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_fallback_reads_the_lanes_rows(self, engine, lanewise):
        e = map_(lambda row: map_(
            lambda j: intrinsic("_test_lanewise", row[max_(j - 1, 0)]) + row[j],
            iota(i64(6)),
        ), v("xss"))
        before = check(engine, e, xss=XSS)
        assert _delta(before, "exec.scalar_fallbacks") == 1
        assert _delta(before, "exec.bind.lane_mapped") == 1

    def test_guard_scalar_rung_reads_the_lanes_rows(self, configure):
        configure(guard_trip=1)
        e = map_(lambda row: map_(
            lambda j: row[max_(j - 1, 0)] * row[j] + row[min_(j + 1, 5)],
            iota(i64(6)),
        ), v("xss"))
        plan = faults.FaultPlan(seed=3, rules=(
            faults.FaultRule(site="exec.launch.codegen", kind="launch", p=1.0),
            faults.FaultRule(site="exec.launch.vector", kind="launch", p=1.0),
        ))
        with faults.injected(plan):
            before = check("codegen", e, xss=XSS)
        assert _delta(before, "exec.guard.demotions.vector") >= 1
        assert _delta(before, "exec.bind.lane_mapped") == 1

    def test_landed_counterexample_holds_the_lanes(self, tmp_path, configure):
        corpus = tmp_path / "corpus"
        configure(corpus_dir=str(corpus), verify_rate=1.0)

        def wrong(env, n):
            return (np.zeros(n),)

        def oracle(env, n):
            return (np.ones(n),)

        launch = guard.wrap_kernel(
            "klm", [("codegen", wrong), ("vector", oracle), ("scalar", oracle)],
            source="def _kernel(env, n): ...", lanes=["xs"],
        )
        base = np.arange(6.0).reshape(2, 3)
        launch({"xs": (base, np.array([0, 0, 1, 1])), "k": np.int64(2)}, 4)
        (path,) = corpus.glob("guard_*.json")
        inputs = json.loads(path.read_text())["inputs"]
        assert inputs["xs"]["shape"] == [4, 3]
        assert inputs["xs"]["data"] == base[[0, 0, 1, 1]].tolist()
        assert inputs["k"]["data"] == 2


class TestCompileKeys:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_one_body_compiled_both_ways_keeps_two_entries(self, engine):
        # the same node under the same batched names: by reference where
        # its map reads the row only at lane-varying indices, expanded
        # where its map also reads row[0]
        shared = v("row")[max_(v("j") - 1, 0)] * v("row")[v("j")] + v("row")[v("j")]
        by_ref = S.Map(S.Lambda(("j",), S.TupleExp([shared])), [iota(i64(6))])
        copied = S.Map(S.Lambda(("j",), S.TupleExp([shared, v("row")[i64(0)]])),
                       [iota(i64(6))])
        e = S.Map(S.Lambda(("row",), S.TupleExp([by_ref, copied, by_ref])), [v("xss")])
        ev = ENGINES[engine]()
        before = check(engine, e, ev=ev, xss=XSS)
        assert _delta(before, "exec.bind.lane_mapped") == 2
        assert _delta(before, "exec.bind.expanded") == 1
        # no kernel ran on the wrong form and was demoted
        assert _delta(before, "exec.guard.demotions") == 0
        keys = {k for k in ev._cache if k[0] == id(shared)}
        assert {k[2] for k in keys} == {frozenset({"row"}), frozenset()}

    def test_codegen_fingerprint_tells_the_forms_apart(self):
        ev = CodegenEvaluator()
        e = v("row")[v("j")] * f32(2.0) + f32(1.0)
        bv = frozenset({"row", "j"})
        assert ev._fingerprint(e, bv, frozenset({"row"})) != ev._fingerprint(
            e, bv, frozenset()
        )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", ["Pathfinder", "SRAD"])
def test_warm_call_allocates_under_one_mib(engine, name):
    """At perfbench's ``exec-warm`` sizes, Pathfinder copied its wall
    block to every column lane on each row (a 4.3 MiB peak) and SRAD
    each image to every pixel lane (8.3 MiB)."""
    sizes = EXEC_SIZES[name]
    prog = _resolve_program(name)
    cp = compile_program(prog, "incremental")
    inputs = _random_inputs(prog, sizes, 7)
    ref = cp.run(inputs, engine="scalar", sizes=sizes)
    for _ in range(2):
        cp.run(inputs, engine=engine, sizes=sizes)
    tracemalloc.start()
    try:
        out = cp.run(inputs, engine=engine, sizes=sizes)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"{peak / 2**20:.2f} MiB"
    assert [np.asarray(o).tobytes() for o in out] == [np.asarray(r).tobytes() for r in ref]
