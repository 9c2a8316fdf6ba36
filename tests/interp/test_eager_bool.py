"""Eager ``&&``/``||``: both operands evaluate before the operator.

The interpreter has *no* short-circuit evaluation (see the ``BINOPS``
comment in ``repro.interp.scalar`` and ``docs/execution.md``): ``a && b``
evaluates ``b`` even when ``a`` is false.  The vectorizing executor relies
on this — a lifted ``np.logical_and`` necessarily computes both operand
arrays — so the two engines only agree *because* the oracle is eager.
These are the differential regressions: programs whose RHS traps exactly
when it is evaluated, so a short-circuiting engine would (wrongly) succeed
where the eager one raises — on either engine.
"""

import numpy as np
import pytest

from repro.exec import VectorEvaluator
from repro.interp import Evaluator, InterpError
from repro.ir import source as S
from repro.ir.builder import i64, map_, v

SCALAR = Evaluator()

#: what an out-of-bounds index raises, engine-independently
OOB = (InterpError, IndexError)


def _oob_and():
    # false && (xs[5] > 0) — short-circuiting would return false;
    # eager evaluation indexes out of bounds and traps
    return S.BinOp(
        "&&",
        S.BinOp("<", i64(99), i64(0)),
        S.BinOp(">", v("xs")[i64(5)], i64(0)),
    )


def _oob_or():
    # true || (xs[5] > 0) — same trap under ``||``
    return S.BinOp(
        "||",
        S.BinOp("<", i64(0), i64(99)),
        S.BinOp(">", v("xs")[i64(5)], i64(0)),
    )


XS = np.asarray([1, 2, 3], dtype=np.int64)


class TestEagerTrapsBothEngines:
    @pytest.mark.parametrize("mk", [_oob_and, _oob_or], ids=["and", "or"])
    def test_scalar_rhs_trap(self, mk):
        with pytest.raises(OOB):
            SCALAR.eval(mk(), {"xs": XS})

    @pytest.mark.parametrize("mk", [_oob_and, _oob_or], ids=["and", "or"])
    def test_vector_rhs_trap(self, mk):
        with pytest.raises(OOB):
            VectorEvaluator().eval(mk(), {"xs": XS})

    def test_batched_rhs_trap(self):
        # one lane's guard is false but its gather is out of bounds: an
        # eager batched ``&&`` must trap on both engines
        e = map_(
            lambda i: S.BinOp(
                "&&",
                S.BinOp("<", i, i64(3)),
                S.BinOp(">", v("xs")[i], i64(0)),
            ),
            v("idx"),
        )
        idx = np.asarray([0, 1, 7], dtype=np.int64)  # 7 is out of bounds
        with pytest.raises(OOB):
            SCALAR.eval(e, {"xs": XS, "idx": idx})
        with pytest.raises(OOB):
            VectorEvaluator().eval(e, {"xs": XS, "idx": idx})


class TestEagerValuesAgree:
    def test_truth_table_parity(self):
        e = map_(
            lambda a, b: (S.BinOp("&&", a, b), S.BinOp("||", a, b)),
            v("a"),
            v("b"),
        )
        a = np.asarray([True, True, False, False])
        b = np.asarray([True, False, True, False])
        ref = SCALAR.eval(e, {"a": a, "b": b})
        got = VectorEvaluator().eval(e, {"a": a, "b": b})
        for r, g in zip(ref, got):
            ra, ga = np.asarray(r), np.asarray(g)
            assert ra.dtype == ga.dtype
            assert ra.tobytes() == ga.tobytes()
