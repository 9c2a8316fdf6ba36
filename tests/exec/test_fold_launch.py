"""The fold launch contract: a step costs its operator.

All six fold constructs share one step loop in the vector engine
(inherited by the codegen engine).  Per launch it builds one operator
environment and rebinds the operator's parameters in place on every step,
which is sound because no compiled closure writes into the environment it
is given; a scan's rows restack with one ``np.array`` call (plus an axis
swap for batched accumulators); an identity body is read straight off the
fold's arrays; and a uniform value shared across lanes is a read-only
view with stride 0.  Every fold here must stay bit-identical to the
scalar oracle, dtype and shape included.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro import perf
from repro.exec import CodegenEvaluator, VectorEvaluator
from repro.exec import vector as vector_mod
from repro.exec.codegen import _CODE_CACHE
from repro.exec.vector import _lift
from repro.interp import Evaluator
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import (
    f32,
    i64,
    if_,
    lam,
    let_,
    map_,
    op2,
    replicate,
    scan_,
    scanomap_,
    size_e,
    v,
)
from repro.sizes import SizeVar

ENGINES = {"vector": VectorEvaluator, "codegen": CodegenEvaluator}

SRC = Path(vector_mod.__file__).parent


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, configure):
    configure(codegen_cache=str(tmp_path / "kcache"))
    _CODE_CACHE.clear()


def _delta(before, name):
    return perf.counters().get(name, 0) - before.get(name, 0)


def check(engine, e, sizes=None, **env):
    """Run ``e`` on ``engine``; assert bit-identity with the scalar oracle,
    dtype and shape included, and no per-lane fallback.  Returns the
    engine's values."""
    oracle = Evaluator()
    oracle.sizes = dict(sizes or {})
    ref = oracle.eval(e, env)
    before = perf.counters()
    got = ENGINES[engine](sizes).eval(e, env)
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        ra, ga = np.asarray(r), np.asarray(g)
        assert ra.shape == ga.shape and ra.dtype == ga.dtype
        assert ra.tobytes() == ga.tobytes()
    assert _delta(before, "exec.scalar_fallbacks") == 0
    return got


def _seg(cls, bindings, body, op=None, nes=(f32(0.0),)):
    ctx = T.Ctx(T.Binding(ps, arrs, SizeVar("n")) for ps, arrs in bindings)
    return cls(1, ctx, op or op2("+"), list(nes), body)


def _data(*shape, seed=3):
    return np.random.default_rng(seed).standard_normal(shape).astype(np.float32)


# --------------------------------------------------------------------------
# The restack
# --------------------------------------------------------------------------

#: an operator whose result is f64 over an f32 neutral element and f32 rows
_WIDEN = S.Lambda(("a", "b"), S.BinOp(
    "+", S.UnOp("to_f64", v("a")), S.UnOp("to_f64", v("b"))
))
#: two accumulators: a running sum and a running max
_TWO = lam(lambda a, b, x, y: (a + x, S.BinOp("max", b, y)))

SCANS = {
    # uniform: a top-level scan, the elements stack on axis 0
    "uniform": lambda: scan_(op2("+"), f32(0.0), v("xs")),
    # batched: 3 rows of 7 (n != m, so a missing axis swap shows)
    "batched": lambda: map_(lambda row: scan_(op2("+"), f32(0.0), row), v("xss")),
    "segscan": lambda: _seg(
        T.SegScan, [(("row",), (v("xss"),)), (("x",), (v("row"),))], v("x") * f32(2.0)
    ),
    "two accumulators, uniform": lambda: scan_(
        _TWO, [f32(0.0), f32(-1e9)], v("xs"), v("xs")
    ),
    "two accumulators, batched": lambda: map_(
        lambda row: scan_(_TWO, [f32(0.0), f32(-1e9)], row, row), v("xss")
    ),
    "widening operator, uniform": lambda: scan_(_WIDEN, f32(0.0), v("xs")),
    "widening operator, batched": lambda: map_(
        lambda row: scan_(_WIDEN, f32(0.0), row), v("xss")
    ),
    # the neutral element is an i64 and the body's values f32: the rows
    # take the promoted dtype, as the oracle's per-lane np.stack does
    "i64 neutral, scanomap": lambda: map_(
        lambda row: scanomap_(op2("+"), lambda x: x * f32(0.5), i64(0), row),
        v("xss"),
    ),
}


class TestRestack:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("name", SCANS)
    def test_matches_the_oracles_stack(self, engine, name):
        xss = _data(3, 7)
        got = check(engine, SCANS[name](), xs=xss[0], xss=xss)
        assert all(np.asarray(g).shape[-1] == 7 for g in got)


# --------------------------------------------------------------------------
# One operator environment per launch
# --------------------------------------------------------------------------


def _busy_operator():
    """An operator over (d,) accumulators whose body nests a ``let``, a
    ``loop``, ``map``s and an ``if`` whose branches are not total (so it
    is masked where its condition is batched), all reading its
    parameters; the ``loop`` rebinds ``b`` and the outer read of ``b``
    must still see the parameter."""
    loop = S.Loop(
        ("b",), [v("a")], "i", i64(2),
        map_(lambda z, w: z * f32(0.5) + w, v("b"), v("a")),
    )
    body = let_(
        map_(lambda x, y: x + y, v("a"), v("b")),
        lambda s: if_(
            S.BinOp(">", s[i64(0)], f32(0.0)),
            map_(lambda p, q: p + q, loop, v("b")),
            map_(lambda z: z - f32(1.0), s),
        ),
    )
    return S.Lambda(("a", "b"), body)


class TestOperatorEnvironment:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_nested_operator_body_uniform(self, engine):
        e = scan_(_busy_operator(), replicate(size_e("d"), f32(0.0)), v("xss"))
        check(engine, e, sizes={"d": 4}, xss=_data(6, 4))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nested_operator_body_batched(self, engine):
        # inside a batch the if's condition is batched: the masked lowering
        e = map_(
            lambda xss: scan_(_busy_operator(), replicate(size_e("d"), f32(0.0)), xss),
            v("xsss"),
        )
        before = perf.counters()
        check(engine, e, sizes={"d": 4}, xsss=_data(3, 6, 4, seed=8))
        assert _delta(before, "exec.masked_if") > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_operator_reads_enclosing_names(self, engine):
        # a free variable of the operator, and a loop inside it that
        # rebinds the operator's own accumulator name
        op = S.Lambda(("acc", "x"), S.BinOp(
            "+",
            S.Loop(("acc",), [v("acc")], "i", i64(2), v("acc") * v("k")),
            v("acc") + v("x"),
        ))
        e = map_(lambda row: scan_(op, f32(0.0), row), v("xss"))
        check(engine, e, xss=_data(3, 5), k=np.float32(0.75))


def _env_writes(tree: ast.AST) -> list[str]:
    """Where a function that takes ``env`` writes into it: item assignment
    or deletion, or a mutating ``dict`` method call."""
    mutators = {"update", "pop", "popitem", "setdefault", "clear", "__setitem__",
                "__delitem__"}
    found = []

    def is_env(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "env"

    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        if "env" not in [a.arg for a in fn.args.args + fn.args.kwonlyargs]:
            continue
        for node in ast.walk(fn):
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for t in targets:
                for sub in ast.walk(t):
                    if isinstance(sub, ast.Subscript) and is_env(sub.value):
                        found.append(f"line {node.lineno}: writes env[...]")
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and is_env(node.func.value) and node.func.attr in mutators):
                found.append(f"line {node.lineno}: env.{node.func.attr}(...)")
    return found


class TestNoClosureWritesEnv:
    @pytest.mark.parametrize("module", ["vector.py", "codegen.py", "guard.py"])
    def test_ast_scan(self, module):
        tree = ast.parse((SRC / module).read_text())
        assert _env_writes(tree) == []

    def test_scan_catches_writes(self):
        for src in (
            "def f(env, n):\n    env['x'] = 1\n",
            "def f(env, n):\n    env[k] += 1\n",
            "def f(env, n):\n    del env['x']\n",
            "def f(env, n):\n    env.update(a=1)\n",
            "def f(env, n):\n    return env.pop('x')\n",
            "g = lambda env, n: env.setdefault('x', 1)\n",
        ):
            assert _env_writes(ast.parse(src)), src
        assert _env_writes(ast.parse("def f(env, n):\n    e2 = dict(env)\n"
                                     "    e2['x'] = 1\n    return env['y']\n")) == []


# --------------------------------------------------------------------------
# Identity bodies
# --------------------------------------------------------------------------


class TestIdentityBody:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("level", ["top", "nested"])
    def test_segscan_reads_its_array(self, engine, level, monkeypatch):
        bound: list[tuple] = []
        real = vector_mod._bind

        def spy(env, n, m, params, *rest):
            bound.append(tuple(params))
            return real(env, n, m, params, *rest)

        monkeypatch.setattr(vector_mod, "_bind", spy)
        e = _seg(T.SegScan, [(("row",), (v("xss"),)), (("x",), (v("row"),))], v("x"))
        if level == "nested":
            e = S.Map(S.Lambda(("xss",), e), [v("xsss")])
        xsss = _data(2, 3, 5)
        before = perf.counters()
        check(engine, e, xss=xsss[0], xsss=xsss)
        assert _delta(before, "exec.fold.hoisted") >= 1
        assert _delta(before, "exec.fold.stepped") == 0
        assert _delta(before, "exec.bind.lane_mapped") == 0
        assert _delta(before, "exec.bind.expanded") == 0
        # the nest binds its rows; the fold's element parameter never is
        assert bound and all("x" not in ps for ps in bound)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tuple_identity_reorders(self, engine):
        body = S.TupleExp([v("y"), v("x")])
        e = _seg(
            T.SegScan,
            [(("r", "s"), (v("xss"), v("yss"))), (("x", "y"), (v("r"), v("s")))],
            body, op=_TWO, nes=(f32(0.0), f32(-1e9)),
        )
        check(engine, e, xss=_data(3, 5), yss=_data(3, 5, seed=4))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_mixed_arrays_still_hoist_the_body(self, engine):
        # one batched and one uniform array: the identity body keeps the
        # hoisted compile, whose flags batch both values
        e = map_(
            lambda row: scanomap_(_TWO, lambda x, y: (x, y), [f32(0.0), f32(-1e9)],
                                  row, v("ys")),
            v("xss"),
        )
        check(engine, e, xss=_data(3, 5), ys=_data(5, seed=6))


# --------------------------------------------------------------------------
# _lift
# --------------------------------------------------------------------------


class TestLift:
    @pytest.mark.parametrize("value", [
        np.float32(2.5), 3, True, np.complex64(1j), np.arange(6, dtype=np.int64),
        np.arange(12, dtype=np.float32).reshape(3, 4),
        np.arange(12, dtype=np.float32).reshape(3, 4).T,  # not contiguous
        np.zeros((0, 2), dtype=np.float32),
    ])
    def test_read_only_stride_zero(self, value):
        out = _lift(value, 5)
        want = np.broadcast_to(np.asarray(value), (5, *np.shape(value)))
        assert out.shape == want.shape and out.dtype == want.dtype
        assert np.array_equal(out, want)
        assert out.strides[0] == 0
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[...] = 0

    def test_view_over_the_values_buffer(self):
        a = np.arange(4, dtype=np.float32)
        out = _lift(a, 3)
        assert np.shares_memory(out, a)
        a[1] = 9.0
        assert (out[:, 1] == 9.0).all()
