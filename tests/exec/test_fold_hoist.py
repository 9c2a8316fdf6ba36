"""The fold step loop: a fold's body runs once over all elements.

``reduce``/``scan``, ``redomap``/``scanomap`` and ``segred``/``segscan``
share one step loop in the vector engine (inherited by the codegen
engine).  It *hoists* the per-element body: one run over all ``m``
elements, then only the operator per step.  The body keeps stepping where
the fold's arrays are all uniform while a batched variable reaches the
body, and where the hoisted compile would need a per-lane fallback or
raise.  Every case here must stay bit-identical to the scalar oracle.
"""

import numpy as np
import pytest

from repro import obs, perf
from repro.exec import CodegenEvaluator, VectorEvaluator
from repro.exec.codegen import _CODE_CACHE
from repro.interp import Evaluator, intrinsics
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import (
    f32,
    i64,
    intrinsic,
    iota,
    lam,
    let_,
    map_,
    op2,
    redomap_,
    reduce_,
    replicate,
    scan_,
    scanomap_,
    to_f32,
    v,
)
from repro.sizes import SizeVar

ENGINES = {"vector": VectorEvaluator, "codegen": CodegenEvaluator}


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, configure):
    configure(codegen_cache=str(tmp_path / "kcache"))
    _CODE_CACHE.clear()


def _delta(before, name):
    return perf.counters().get(name, 0) - before.get(name, 0)


def check(engine, e, **env):
    """Run ``e`` on ``engine``; assert bit-identity with the scalar oracle
    and no per-lane fallback.  Returns the perf counters taken before."""
    ref = Evaluator().eval(e, env)
    before = perf.counters()
    got = ENGINES[engine]().eval(e, env)
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        ra, ga = np.asarray(r), np.asarray(g)
        assert ra.shape == ga.shape and ra.dtype == ga.dtype
        assert ra.tobytes() == ga.tobytes()
    assert _delta(before, "exec.scalar_fallbacks") == 0
    return before


def _seg(cls, bindings, body, op=None, nes=(f32(0.0),)):
    ctx = T.Ctx(T.Binding(ps, arrs, SizeVar("n")) for ps, arrs in bindings)
    return cls(1, ctx, op or op2("+"), list(nes), body)


@pytest.fixture
def counted(monkeypatch):
    """A registered intrinsic that records each time it runs, on a lane
    (``interp``) or on a whole batch (``vector``)."""
    calls: list[str] = []

    def interp(x):
        calls.append("lane")
        return x * np.float32(3.0)

    def vector(args, aflags):
        calls.append("batch")
        return args[0] * np.float32(3.0)

    monkeypatch.setitem(intrinsics.INTRINSICS, "_test_counted", intrinsics.IntrinsicDef(
        name="_test_counted",
        type_rule=lambda ts: ts,
        interp=interp,
        cost=lambda avals, sizes: (1.0, 0.0, 0.0),
        vector=vector,
    ))
    return calls


def _body(x):
    return intrinsic("_test_counted", x) + f32(1.0)


FOLDS = {
    # top level: the elements themselves become the batch
    "redomap": lambda: redomap_(op2("+"), _body, f32(0.0), v("xs")),
    "scanomap": lambda: scanomap_(op2("+"), _body, f32(0.0), v("xs")),
    # inside a batch of 3 rows: element and row axes fold together
    "nested redomap": lambda: map_(
        lambda row: redomap_(op2("+"), _body, f32(0.0), row), v("xss")
    ),
    "segred": lambda: _seg(
        T.SegRed, [(("row",), (v("xss"),)), (("x",), (v("row"),))], _body(v("x"))
    ),
    "segscan": lambda: _seg(
        T.SegScan, [(("row",), (v("xss"),)), (("x",), (v("row"),))], _body(v("x"))
    ),
}


class TestHoist:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", FOLDS)
    def test_body_runs_once_per_launch(self, counted, engine, name):
        rng = np.random.default_rng(5)
        xss = rng.standard_normal((3, 7)).astype(np.float32)
        e = FOLDS[name]()
        check(engine, e, xs=xss[0], xss=xss)
        counted.clear()
        before = perf.counters()
        ENGINES[engine]().eval(e, {"xs": xss[0], "xss": xss})
        # one whole-batch run, not one run per element (7 steps)
        assert counted == ["batch"]
        assert _delta(before, "exec.fold.hoisted") == 1
        assert _delta(before, "exec.fold.stepped") == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fold_order_kept(self, engine):
        # f32 addition is not associative: only the body is hoisted, the
        # operator still steps left to right
        rng = np.random.default_rng(11)
        xss = (rng.standard_normal((4, 301)) * 1e4).astype(np.float32)
        for e in (
            map_(lambda row: redomap_(op2("+"), lambda x: x * x - f32(0.5),
                                      f32(0.0), row), v("xss")),
            map_(lambda row: scanomap_(op2("+"), lambda x: x * f32(1.1),
                                       f32(0.0), row), v("xss")),
            map_(lambda row: reduce_(op2("+"), f32(0.0), row), v("xss")),
            map_(lambda row: scan_(op2("+"), f32(0.0), row), v("xss")),
        ):
            check(engine, e, xss=xss)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_reduction_returns_neutral(self, engine):
        e = redomap_(op2("+"), lambda x: x * f32(2.0), f32(1.5), v("xs"))
        check(engine, e, xs=np.zeros(0, dtype=np.float32))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_span_carries_the_label(self, engine):
        e = map_(lambda row: redomap_(op2("+"), lambda x: x * f32(2.0),
                                      f32(0.0), row), v("xss"))
        with obs.tracing() as tracer:
            ENGINES[engine]().eval(e, {"xss": np.ones((2, 3), dtype=np.float32)})
        folds = [s for s in tracer.spans
                 if s.name == "exec.kernel" and s.args.get("construct") == "redomap"]
        assert [s.args.get("fold") for s in folds] == ["hoisted"]
        assert folds[0].args.get("steps") == 3


class TestStepsWhereHoistingWouldNeedAFallback:
    """A body whose hoisted compile would need a per-lane fallback, or
    raise, keeps stepping; stepping needs neither."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_top_level_redomap_building_iota_from_its_element(self, engine):
        xs = np.arange(1, 7, dtype=np.int64)
        for body in (
            lambda x: reduce_(op2("+"), i64(0), iota(x)),  # inner fold falls back
            lambda x: let_(iota(x), lambda ys: ys[x - i64(1)]),  # raises at the root
        ):
            e = redomap_(op2("+"), body, i64(0), v("xs"))
            before = check(engine, e, xs=xs)
            assert _delta(before, "exec.fold.stepped") == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_segred_uniform_parameter_feeding_replicate(self, engine):
        e = _seg(
            T.SegRed,
            [(("x",), (v("xs"),)), (("k",), (v("ks"),))],
            reduce_(op2("+"), f32(0.0), replicate(v("k"), v("x"))),
        )
        xs = np.arange(4, dtype=np.float32) / 3
        before = check(engine, e, xs=xs, ks=np.array([1, 2, 3], dtype=np.int64))
        assert _delta(before, "exec.fold.stepped") == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cached_body_with_a_fallback_keeps_stepping(self, engine):
        # one body node, compiled first inside a map (where its batched
        # ``iota`` extent falls back per lane), then as a redomap's body:
        # the redomap reuses the cached closure, so it must see the
        # fallback inside it and step
        body = reduce_(op2("+"), i64(0), iota(v("x")))
        e = S.TupleExp([
            S.Map(S.Lambda(["x"], body), [v("xs")]),
            S.Redomap(op2("+"), S.Lambda(["x"], body), [i64(0)], [v("xs")]),
        ])
        xs = np.arange(1, 5, dtype=np.int64)
        ref = Evaluator().eval(e, {"xs": xs})
        before = perf.counters()
        got = ENGINES[engine]().eval(e, {"xs": xs})
        assert all(np.asarray(r).tobytes() == np.asarray(g).tobytes()
                   for r, g in zip(ref, got))
        assert _delta(before, "exec.scalar_fallbacks") == 1  # the map's own
        assert _delta(before, "exec.fold.stepped") == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_outer_fold_hoists_over_an_inner_fold_that_steps(self, engine):
        # the inner redomap over the uniform ``xs`` steps (hoisted, its
        # ``iota x`` would fall back); the compile it threw away must not
        # make the outer redomap over ``ys`` step as well
        inner = redomap_(
            op2("+"), lambda x: reduce_(op2("+"), i64(0), iota(x)), i64(0), v("xs")
        )
        e = redomap_(op2("+"), lambda y: y * inner, i64(0), v("ys"))
        with obs.tracing() as tracer:
            check(
                engine, e,
                xs=np.arange(1, 5, dtype=np.int64),
                ys=np.arange(-1, 5, dtype=np.int64),
            )
        folds = [s.args.get("fold") for s in tracer.spans
                 if s.name == "exec.kernel" and s.args.get("construct") == "redomap"]
        # the outer launch, and the inner one it runs once over all of ys
        # (a stepping outer fold would launch the inner once per y)
        assert sorted(folds) == ["hoisted", "stepped"]


class TestStepsOverUniformArraysInABatch:
    """Inside a batch, a fold over uniform arrays whose body reads a batched
    variable steps: each element stays one value for all lanes."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_optionpricing_shaped_fold_steps(self, engine):
        # each lane's table row (30 elements), gathered by one uniform
        # index per step
        e = map_(
            lambda dv_row: redomap_(
                lam(lambda a, c, b, d: (a + b, c + d)),
                lambda b: (dv_row[b] * f32(2.0), to_f32(b)),
                [f32(0.0), f32(0.0)],
                iota(i64(30)),
            ),
            v("dirvs"),
        )
        dirvs = np.random.default_rng(2).standard_normal((4, 30)).astype(np.float32)
        with obs.tracing() as tracer:
            check(engine, e, dirvs=dirvs)
        folds = [s for s in tracer.spans
                 if s.name == "exec.kernel" and s.args.get("construct") == "redomap"]
        assert [s.args.get("fold") for s in folds] == ["stepped"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_per_lane_scalar_over_a_uniform_array_steps(self, engine):
        e = map_(
            lambda s: redomap_(op2("+"), lambda x: x * s, f32(0.0), v("xs")),
            v("ss"),
        )
        rng = np.random.default_rng(4)
        before = check(
            engine, e,
            xs=rng.standard_normal(5).astype(np.float32),
            ss=rng.standard_normal(3).astype(np.float32),
        )
        assert _delta(before, "exec.fold.stepped") == 1
        assert _delta(before, "exec.fold.hoisted") == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_batched_rows_with_a_per_lane_scalar_hoist(self, engine):
        # the same body over batched rows: the lane's scalar is expanded
        e = map_(
            lambda row, s: redomap_(op2("+"), lambda x: x * s, f32(0.0), row),
            v("xss"), v("ss"),
        )
        rng = np.random.default_rng(4)
        before = check(
            engine, e,
            xss=rng.standard_normal((3, 5)).astype(np.float32),
            ss=rng.standard_normal(3).astype(np.float32),
        )
        assert _delta(before, "exec.fold.hoisted") == 1
        assert _delta(before, "exec.fold.stepped") == 0
