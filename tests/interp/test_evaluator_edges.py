"""Evaluator edge cases and error behaviour."""

import numpy as np
import pytest

from repro.interp import Evaluator, InterpError
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import f32, i64, map_, op2, scan_, v
from repro.sizes import SizeVar

EV = Evaluator(sizes={"n": 4})


class TestErrors:
    def test_unbound_variable(self):
        with pytest.raises(InterpError, match="unbound"):
            EV.eval1(v("ghost"), {})

    def test_lambda_arity(self):
        lam = S.Lambda(("a", "b"), S.Var("a"))
        with pytest.raises(InterpError):
            EV.apply(lam, (np.float32(1.0),), {})

    def test_loop_body_arity(self):
        e = S.Loop(("a",), (f32(0.0),), "i", i64(2),
                   S.TupleExp([v("a"), v("a")]))
        with pytest.raises(InterpError):
            EV.eval(e, {})

    def test_map_empty_array(self):
        with pytest.raises(InterpError):
            EV.eval1(
                map_(lambda x: x, v("xs")), {"xs": np.zeros(0, np.float32)}
            )

    def test_scan_empty_array(self):
        with pytest.raises(InterpError):
            EV.eval1(
                scan_(op2("+"), f32(0.0), v("xs")),
                {"xs": np.zeros(0, np.float32)},
            )

    def test_multi_value_where_single_expected(self):
        with pytest.raises(InterpError):
            EV.eval1(S.TupleExp([f32(1.0), f32(2.0)]), {})

    def test_eval_unknown_node_class(self):
        class Bogus(S.Exp):
            __slots__ = ()

        with pytest.raises(InterpError):
            EV.eval(Bogus(), {})


class TestSizeEnvironment:
    def test_sizee_uses_sizes(self):
        assert EV.eval1(S.SizeE(SizeVar("n")), {}) == 4

    def test_sizee_missing(self):
        with pytest.raises(KeyError):
            Evaluator().eval1(S.SizeE(SizeVar("q")), {})

    def test_parcmp_default_is_paper_value(self):
        from repro.interp import DEFAULT_THRESHOLD

        assert DEFAULT_THRESHOLD == 2**15


class TestNumericBehaviour:
    def test_f32_stays_f32(self):
        out = EV.eval1(f32(0.1) + f32(0.2), {})
        assert out.dtype == np.float32

    def test_integer_division_floors(self):
        assert EV.eval1(i64(-7) / i64(2), {}) == -4  # floor division

    def test_mod(self):
        assert EV.eval1(i64(7) % i64(3), {}) == 1

    def test_pow(self):
        assert EV.eval1(S.BinOp("pow", f32(2.0), f32(10.0)), {}) == 1024.0

    def test_comparisons_return_python_bools(self):
        out = EV.eval1(i64(3).lt(4), {})
        assert out is True

    def test_scan_preserves_dtype(self):
        out = EV.eval1(
            scan_(op2("+"), f32(0.0), v("xs")),
            {"xs": np.ones(3, np.float32)},
        )
        assert out.dtype == np.float32


class TestSegOpEdges:
    def test_segred_with_empty_inner_dim_gives_nes(self):
        ctx = T.Ctx(
            [
                T.Binding(("row",), (v("xss"),), SizeVar("n")),
                T.Binding(("x",), (v("row"),), SizeVar("m")),
            ]
        )
        e = T.SegRed(1, ctx, op2("+"), [f32(7.0)], v("x"))
        out = EV.eval1(e, {"xss": np.zeros((3, 0), np.float32)})
        assert np.array_equal(out, [7, 7, 7])

    def test_segmap_binding_arrays_reference_outer_params(self):
        # G6-style chained binding: inner arrays indexed through outer params
        ctx = T.Ctx(
            [
                T.Binding(("row",), (v("xss"),), SizeVar("n")),
                T.Binding(("x",), (v("row"),), SizeVar("m")),
            ]
        )
        e = T.SegMap(1, ctx, v("x") * 10.0)
        out = EV.eval1(e, {"xss": np.ones((2, 3), np.float32)})
        assert out.shape == (2, 3) and out[0, 0] == 10.0

    def test_irregular_segop_rejected(self):
        ctx = T.Ctx([T.Binding(("a", "b"), (v("xs"), v("ys")), SizeVar("n"))])
        e = T.SegMap(1, ctx, v("a") + v("b"))
        with pytest.raises(InterpError):
            EV.eval1(
                e,
                {
                    "xs": np.ones(3, np.float32),
                    "ys": np.ones(4, np.float32),
                },
            )
