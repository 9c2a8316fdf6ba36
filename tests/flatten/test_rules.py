"""Per-rule tests of the flattening engine (paper Figs. 3 and 4)."""

import numpy as np
import pytest

from repro.flatten import Flattener, FlattenError
from repro.interp import Evaluator
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import (
    f32,
    i64,
    if_,
    let_,
    loop_,
    map_,
    op2,
    redomap_,
    reduce_,
    replicate,
    scan_,
    transpose,
    v,
)
from repro.ir.target import EMPTY_CTX
from repro.ir.traverse import walk
from repro.ir.typecheck import validate_levels
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

N, M, K = SizeVar("n"), SizeVar("m"), SizeVar("k")
ENV = {
    "xs": array_of(F32, N),
    "ys": array_of(F32, N),
    "xss": array_of(F32, N, M),
    "yss": array_of(F32, M, N),
    "zss": array_of(F32, N, M),
    "arr3d": array_of(F32, N, M, K),
}


def flat(e, mode="incremental", env=ENV):
    from repro.passes import normalize, simplify

    fl = Flattener(mode)
    out = simplify(fl.flatten(simplify(normalize(e)), env))
    validate_levels(out, 1)
    return out, fl


def find(out, cls):
    return [n for n in walk(out) if isinstance(n, cls)]


class TestG0G1:
    def test_g0_identity(self):
        e = v("xs")[i64(0)] + 1.0
        out, _ = flat(e)
        assert isinstance(out, S.BinOp)  # unchanged

    def test_g1_manifests_context(self):
        # a map with sequential body manifests the whole nest (G2 really,
        # but a scalar-only body under context exercises the same path)
        e = map_(lambda x: x + 1.0, v("xs"))
        out, _ = flat(e)
        assert isinstance(out, T.SegMap)
        assert len(out.ctx) == 1


class TestG2:
    def test_sequential_body_manifested(self):
        e = map_(lambda row: map_(lambda x: x * 2.0, row), v("xss"))
        out, _ = flat(e, "moderate")
        assert isinstance(out, T.SegMap)
        assert len(out.ctx) == 2  # perfect nest collapsed into one context

    def test_body_with_seq_soac_not_distributed_by_g2(self):
        # map whose body is a *sequentialised* redomap (moderate): G1/G2
        e = map_(
            lambda row: redomap_(op2("+"), lambda x: x * x, f32(0.0), row),
            v("xss"),
        )
        out, _ = flat(e, "moderate")
        assert isinstance(out, T.SegMap)
        assert isinstance(out.body, S.Redomap)


class TestG3:
    def test_three_versions(self):
        e = map_(
            lambda row: redomap_(op2("+"), lambda x: x * x, f32(0.0), row),
            v("xss"),
        )
        out, fl = flat(e, "incremental")
        assert isinstance(out, S.If)
        assert isinstance(out.cond, T.ParCmp)
        assert isinstance(out.els, S.If)
        # e_top: segmap with sequential redomap body
        assert isinstance(out.then, T.SegMap)
        assert isinstance(out.then.body, S.Redomap)
        # e_middle: segmap with level-0 segred inside
        middle = out.els.then
        assert isinstance(middle, T.SegMap)
        assert any(s.level == 0 for s in find(middle.body, T.SegOp))
        # e_flat: the fully flattened segred at level 1
        flat_v = out.els.els
        assert isinstance(flat_v, T.SegRed) and flat_v.level == 1
        # two thresholds allocated (t_top, t_intra)
        assert len(fl.registry) == 2
        kinds = [t.kind for t in fl.registry.items]
        assert kinds == ["suff_outer_par", "suff_intra_par"]

    def test_par_expressions(self):
        e = map_(
            lambda row: redomap_(op2("+"), lambda x: x, f32(0.0), row), v("xss")
        )
        _, fl = flat(e, "incremental")
        t_top, t_intra = fl.registry.items
        assert t_top.par.eval({"n": 4, "m": 8}) == 4
        assert t_intra.par.eval({"n": 4, "m": 8}) == 32

    def test_no_versions_at_level0(self):
        fl = Flattener("incremental")
        e = map_(
            lambda row: redomap_(op2("+"), lambda x: x, f32(0.0), row), v("xss")
        )
        out = fl.flat(EMPTY_CTX, 0, e, dict(ENV))
        assert not isinstance(out, S.If)
        assert len(fl.registry) == 0


class TestG4:
    def test_reduce_of_map_interchanged(self):
        # reduce (map (+)) (replicate m 0) zss ≡ map (reduce (+) 0) (transpose zss)
        vec_op = S.Lambda(
            ("a", "b"),
            S.Map(S.Lambda(("x", "y"), S.Var("x") + S.Var("y")),
                  (S.Var("a"), S.Var("b"))),
        )
        e = S.Reduce(vec_op, [replicate(S.SizeE("m"), f32(0.0))], (v("zss"),))
        out, _ = flat(e, "moderate")
        # becomes a segred over the transposed array (via map-of-reduce)
        assert isinstance(out, T.SegRed)
        rearr = [n for n in walk(out) if isinstance(n, S.Rearrange)]
        assert rearr and rearr[0].perm[0] == 1

    def test_g4_semantics(self):
        vec_op = S.Lambda(
            ("a", "b"),
            S.Map(S.Lambda(("x", "y"), S.Var("x") + S.Var("y")),
                  (S.Var("a"), S.Var("b"))),
        )
        e = S.Reduce(vec_op, [replicate(S.SizeE("m"), f32(0.0))], (v("zss"),))
        out, _ = flat(e, "moderate")
        zss = np.arange(6, dtype=np.float32).reshape(3, 2)
        ev = Evaluator(sizes={"n": 3, "m": 2})
        a = ev.eval1(e, {"zss": zss})
        b = ev.eval1(out, {"zss": zss})
        assert np.array_equal(a, b)
        assert np.array_equal(a, zss.sum(axis=0))

    @pytest.mark.parametrize("mode, kept", [("moderate", 0), ("incremental", 1), ("full", 0)])
    def test_g4_fires_under_a_context(self, mode, kept):
        # map (λzss → reduce (map (+)) (replicate k 0) zss) arr3d: G4 must
        # interchange the inner reduce although a map context surrounds it.
        # Only incremental mode keeps one, in its sequential e_top version.
        vec_op = S.Lambda(
            ("a", "b"),
            S.Map(S.Lambda(("x", "y"), S.Var("x") + S.Var("y")),
                  (S.Var("a"), S.Var("b"))),
        )
        e = map_(
            lambda zss: S.Reduce(vec_op, [replicate(S.SizeE("k"), f32(0.0))], (zss,)),
            v("arr3d"),
        )
        out, _ = flat(e, mode)
        vector_reduces = [
            n for n in find(out, S.Reduce) if isinstance(n.lam.body, S.Map)
        ]
        assert len(vector_reduces) == kept
        if mode != "incremental":
            assert [r.level for r in find(out, T.SegRed)] == [1]
        a3 = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        ev = Evaluator(sizes={"n": 2, "m": 3, "k": 4})
        assert np.array_equal(ev.eval1(out, {"arr3d": a3}), a3.sum(axis=1))


class TestG5:
    def test_rearrange_of_bound_var(self):
        # map (transpose) arr3d ≡ rearrange (0,2,1) arr3d
        e = map_(lambda slice_: transpose(slice_), v("arr3d"))
        out, _ = flat(e, "moderate")
        assert isinstance(out, S.Rearrange)
        assert out.perm == (0, 2, 1)

    def test_g5_semantics(self):
        e = map_(lambda slice_: transpose(slice_), v("arr3d"))
        out, _ = flat(e, "moderate")
        a3 = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        ev = Evaluator()
        assert np.array_equal(
            ev.eval1(e, {"arr3d": a3}), ev.eval1(out, {"arr3d": a3})
        )


class TestG6:
    def test_let_distribution(self):
        e = map_(
            lambda row: let_(
                scan_(op2("+"), f32(0.0), row),
                lambda bs: scan_(op2("max"), f32(-1e9), bs),
            ),
            v("xss"),
        )
        out, _ = flat(e, "moderate")
        scans = find(out, T.SegScan)
        assert len(scans) == 2  # distributed into two segscans
        assert isinstance(out, S.Let)

    def test_irregular_sizes_rejected(self):
        # inner array size depends on the context variable: irregular
        e = map_(
            lambda x: let_(
                S.Iota(S.UnOp("to_i64", x)),
                lambda ys: reduce_(op2("+"), i64(0), ys),
            ),
            v("ks"),
        )
        from repro.ir.typecheck import TypeError_
        from repro.ir.types import I64

        env = dict(ENV, ks=array_of(I64, N))
        with pytest.raises((FlattenError, TypeError_)):
            flat(e, "moderate", env)


class TestG7:
    def test_loop_interchange(self):
        e = map_(
            lambda row: loop_(
                [row], i64(3), lambda i, cur: map_(lambda x: x + 1.0, cur)
            ),
            v("xss"),
        )
        out, _ = flat(e, "moderate")
        assert isinstance(out, S.Loop)  # loop hoisted out of the map
        assert find(out.body, T.SegMap)

    def test_invariant_init_replicated(self):
        e = map_(
            lambda row: loop_(
                [f32(0.0)],
                i64(2),
                lambda i, acc: acc + reduce_(op2("+"), f32(0.0), row),
            ),
            v("xss"),
        )
        out, _ = flat(e, "moderate")
        assert isinstance(out, S.Loop)
        assert any(isinstance(n, S.Replicate) for n in walk(out.inits[0]))

    def test_variant_trip_count_sequentialised(self):
        e = map_(
            lambda row: loop_(
                [f32(0.0)],
                S.UnOp("to_i64", row[i64(0)]),
                lambda i, acc: acc + reduce_(op2("+"), f32(0.0), row),
            ),
            v("xss"),
        )
        out, _ = flat(e, "moderate")
        assert isinstance(out, T.SegMap)  # whole loop kept in-thread

    def test_g7_semantics(self):
        e = map_(
            lambda row: loop_(
                [row], i64(3), lambda i, cur: map_(lambda x: x * 2.0, cur)
            ),
            v("xss"),
        )
        out, _ = flat(e, "moderate")
        xss = np.arange(6, dtype=np.float32).reshape(2, 3)
        ev = Evaluator(sizes={"n": 2, "m": 3})
        assert np.array_equal(ev.eval1(e, {"xss": xss}), ev.eval1(out, {"xss": xss}))


class TestG8:
    def test_if_distributed(self):
        e = map_(
            lambda row: if_(
                v("flag"),
                scan_(op2("+"), f32(0.0), row),
                map_(lambda x: x + 1.0, row),
            ),
            v("xss"),
        )
        env = dict(ENV, flag=__import__("repro.ir.types", fromlist=["BOOL"]).BOOL)
        out, _ = flat(e, "moderate", env)
        assert isinstance(out, S.If)
        assert isinstance(out.cond, S.Var)  # hoisted above the parallelism
        assert find(out.then, T.SegScan)
        assert find(out.els, T.SegMap)

    def test_variant_condition_stays_inside(self):
        e = map_(
            lambda row: if_(
                row[i64(0)].gt(0.0),
                reduce_(op2("+"), f32(0.0), row),
                f32(0.0),
            ),
            v("xss"),
        )
        out, _ = flat(e, "moderate")
        assert isinstance(out, T.SegMap)  # divergent branch kept in-thread

    def test_g8_semantics(self):
        from repro.ir.types import BOOL

        e = map_(
            lambda row: if_(
                v("flag"),
                scan_(op2("+"), f32(0.0), row),
                map_(lambda x: x + 1.0, row),
            ),
            v("xss"),
        )
        env = dict(ENV, flag=BOOL)
        out, _ = flat(e, "moderate", env)
        xss = np.arange(6, dtype=np.float32).reshape(2, 3)
        for flag in (True, False):
            ev = Evaluator(sizes={"n": 2, "m": 3})
            a = ev.eval1(e, {"xss": xss, "flag": flag})
            b = ev.eval1(out, {"xss": xss, "flag": flag})
            assert np.array_equal(a, b)


class TestG9:
    def test_redomap_two_versions(self):
        # a redomap whose map part has inner parallelism
        e = redomap_(
            op2("+"),
            lambda row: reduce_(op2("max"), f32(-1e9), row),
            f32(0.0),
            v("xss"),
        )
        out, fl = flat(e, "incremental")
        assert isinstance(out, S.If)
        assert isinstance(out.then, T.SegRed)  # e_top
        # e_rec decomposes and recursively flattens
        assert find(out.els, (T.SegRed, T.SegMap))

    def test_redomap_no_inner_par_manifests_directly(self):
        # the "not-shown" rule: direct segred manifestation
        e = redomap_(op2("+"), lambda x: x * x, f32(0.0), v("xs"))
        out, fl = flat(e, "incremental")
        assert isinstance(out, T.SegRed)
        assert len(fl.registry) == 0
