"""Tests for traversal: walk, free variables, substitution, map_children."""

import pytest

from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import f32, i64, lam, map_, op2, reduce_, v
from repro.ir.traverse import (
    _SPEC,
    contains_parallel,
    count_nodes,
    free_vars,
    fresh_name,
    kernel_fingerprint,
    map_children,
    push_children,
    rename_vars,
    subst_vars,
    walk,
)
from repro.ir.types import I64
from repro.sizes import SizeVar


class TestFreshNames:
    def test_fresh_distinct(self):
        assert fresh_name("x") != fresh_name("x")

    def test_fresh_strips_old_suffix(self):
        a = fresh_name("x")
        b = fresh_name(a)
        assert b.startswith("x") and "ζ" in b
        assert b.count("ζ") == 1


class TestWalk:
    def test_walk_yields_all(self):
        e = v("x") + v("y") * v("z")
        kinds = [type(n).__name__ for n in walk(e)]
        assert kinds.count("Var") == 3
        assert kinds.count("BinOp") == 2

    def test_walk_enters_lambdas(self):
        e = map_(lambda x: x + v("free"), v("xs"))
        names = {n.name for n in walk(e) if isinstance(n, S.Var)}
        assert "free" in names

    def test_count_nodes(self):
        assert count_nodes(v("x")) == 1
        assert count_nodes(v("x") + 1) == 3

    def test_deep_let_chain(self):
        # 10,000 nested lets: a walk must not recurse per level
        e = v("x")
        for i in range(10_000):
            e = S.Let((f"x{i}",), f32(1.0), e)
        assert count_nodes(e) == 1 + 2 * 10_000
        assert sum(isinstance(n, S.Let) for n in walk(e)) == 10_000


def _walk_reference(e):
    """The definition ``walk`` must follow: the node, then each child's
    walk, children in child-spec order (lambda bodies, context arrays)."""
    from repro.ir.traverse import _spec

    yield e
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            yield from _walk_reference(val)
        elif kind == "exps":
            for sub in val:
                yield from _walk_reference(sub)
        elif kind == "lam":
            yield from _walk_reference(val.body)
        elif kind == "ctx":
            for b in val:
                for arr in b.arrays:
                    yield from _walk_reference(arr)


def _assert_walk_order(e, what):
    got = [id(n) for n in walk(e)]
    want = [id(n) for n in _walk_reference(e)]
    assert got == want, f"walk order differs from the definition on {what}"


class TestWalkOrder:
    """``walk`` yields exactly the recursive definition's sequence: the
    order is observable (the simulator records thresholds in walk order,
    and they are part of its kernel-cache key)."""

    def test_benchmark_programs(self):
        from repro.bench.programs import MODULES, program_constructor
        from repro.compiler import compile_program

        for name in MODULES:
            prog = program_constructor(name)()
            _assert_walk_order(prog.body, f"{name} source")
            for mode in ("moderate", "incremental", "full"):
                cp = compile_program(prog, mode)
                _assert_walk_order(cp.body, f"{name} {mode}")

    def test_fuzzed_programs(self):
        import random

        from repro.check.genprog import build_program, random_recipe
        from repro.compiler import compile_program

        rng = random.Random(0)
        for i in range(50):
            style = "fusion" if i % 2 else "default"
            prog = build_program(random_recipe(rng, style=style))
            _assert_walk_order(prog.body, f"fuzzed program {i} source")
            cp = compile_program(prog, "incremental")
            _assert_walk_order(cp.body, f"fuzzed program {i} incremental")

    def test_target_nodes(self):
        ctx = T.Ctx([
            T.Binding(("x", "y"), (v("xs"), v("ys")), SizeVar("n")),
            T.Binding(("z",), (v("x"),), SizeVar("m")),
        ])
        e = T.SegRed(1, ctx, S.Lambda(("a", "b"), v("a") + v("b")), (f32(0.0),),
                     v("z") * v("y"))
        _assert_walk_order(e, "a segred")
        names = [n.name for n in walk(e) if isinstance(n, S.Var)]
        assert names == ["xs", "ys", "x", "a", "b", "z", "y"]


class TestContainsParallel:
    def test_scalar_not_parallel(self):
        assert not contains_parallel(v("x") + 1)

    def test_map_is_parallel(self):
        assert contains_parallel(map_(lambda x: x, v("xs")))

    def test_nested_in_loop(self):
        e = S.Loop(("a",), (v("xs"),), "i", i64(2), map_(lambda x: x, v("a")))
        assert contains_parallel(e)

    def test_segop_counts_by_default(self):
        ctx = T.Ctx([T.Binding(("x",), (v("xs"),), SizeVar("n"))])
        e = T.SegMap(1, ctx, v("x"))
        assert contains_parallel(e)
        assert not contains_parallel(e, include_target=False)


class TestFreeVars:
    def test_var(self):
        assert free_vars(v("x")) == {"x"}

    def test_let_binds(self):
        e = S.Let(("a",), v("x"), v("a") + v("b"))
        assert free_vars(e) == {"x", "b"}

    def test_let_rhs_not_in_scope(self):
        e = S.Let(("a",), v("a"), v("a"))
        assert free_vars(e) == {"a"}  # the rhs 'a' is free

    def test_lambda_binds(self):
        e = map_(lambda x: x + v("y"), v("xs"))
        assert free_vars(e) == {"xs", "y"}

    def test_loop_binds_params_and_ivar(self):
        e = S.Loop(("acc",), (f32(0.0),), "i", v("n"), v("acc") + v("i"))
        assert free_vars(e) == {"n"}

    def test_segmap_context_scoping(self):
        ctx = T.Ctx(
            [
                T.Binding(("row",), (v("xss"),), SizeVar("n")),
                T.Binding(("x",), (v("row"),), SizeVar("m")),
            ]
        )
        e = T.SegMap(1, ctx, v("x") + v("free"))
        assert free_vars(e) == {"xss", "free"}


class TestSubstitution:
    def test_simple(self):
        e = subst_vars(v("x") + v("y"), {"x": f32(1.0)})
        assert isinstance(e.x, S.Lit)

    def test_shadowed_not_substituted(self):
        e = S.Let(("x",), f32(0.0), v("x"))
        out = subst_vars(e, {"x": f32(9.0)})
        assert isinstance(out.body, S.Var)  # inner x still refers to the let

    def test_capture_avoidance(self):
        # substituting y := x under a binder for x must freshen the binder
        e = S.Let(("x",), f32(0.0), v("x") + v("y"))
        out = subst_vars(e, {"y": v("x")})
        assert out.names[0] != "x"
        # the substituted y is now the OUTER x
        rhs_vars = free_vars(out)
        assert "x" in rhs_vars

    def test_lambda_capture_avoidance(self):
        e = map_(lam(lambda q: q), v("xs"))
        inner = S.Map(S.Lambda(("p",), S.Var("p") + S.Var("w")), (v("xs"),))
        out = subst_vars(inner, {"w": S.Var("p")})
        assert out.lam.params[0] != "p"
        assert "p" in free_vars(out)

    def test_rename(self):
        e = rename_vars(v("a") + v("b"), {"a": "z"})
        assert free_vars(e) == {"z", "b"}

    def test_loop_binder_freshened(self):
        e = S.Loop(("acc",), (v("init"),), "i", i64(3), v("acc") + v("k"))
        out = subst_vars(e, {"k": v("acc")})
        assert out.params[0] != "acc"
        assert "acc" in free_vars(out)


class TestMapChildren:
    def test_rebuild_binop(self):
        e = v("x") + v("y")
        out = map_children(e, lambda c: f32(1.0) if isinstance(c, S.Var) else c)
        assert isinstance(out.x, S.Lit) and isinstance(out.y, S.Lit)

    def test_identity_semantics(self):
        e = reduce_(op2("+"), f32(0.0), map_(lambda x: x * 2.0, v("xs")))
        out = map_children(e, lambda c: c)
        assert type(out) is type(e)
        assert count_nodes(out) == count_nodes(e)

    def test_rebuilds_lambda_bodies(self):
        e = map_(lambda x: x + 1, v("xs"))
        seen = []
        map_children(e, lambda c: (seen.append(type(c).__name__), c)[1])
        assert "BinOp" in seen  # lambda body visited as a child


def _concrete_exp_classes() -> list[type]:
    """Every IR node class of the package that has no subclass there."""
    out, stack = [], [S.Exp]
    while stack:
        cls = stack.pop()
        subs = [c for c in cls.__subclasses__() if c.__module__.startswith("repro.")]
        if subs:
            stack.extend(subs)
        else:
            out.append(cls)
    return sorted(out, key=lambda c: c.__qualname__)


def _samples() -> dict[type, S.Exp]:
    """One node of every class, each with children of its own."""
    x, y, xs = v("x"), v("y"), v("xs")
    f = S.Lambda(("a",), v("a") + 1.0)
    ctx = T.Ctx([T.Binding(("r",), (v("xss"),), SizeVar("n"))])
    nodes = [
        x,
        S.Lit(1, I64),
        S.SizeE(SizeVar("n")),
        S.TupleExp([x, y]),
        S.BinOp("+", x, y),
        S.UnOp("neg", x),
        S.Let(("t",), x, v("t") + y),
        S.If(x.lt(y), x, y),
        S.Index(xs, (i64(0),)),
        S.Iota(i64(4)),
        S.Replicate(i64(3), x),
        S.Rearrange((1, 0), v("xss")),
        S.Loop(("acc",), (x,), "i", i64(3), v("acc") + y),
        S.Map(f, (xs,)),
        S.Reduce(op2("+"), (f32(0.0),), (xs,)),
        S.Scan(op2("+"), (f32(0.0),), (xs,)),
        S.Redomap(op2("+"), f, (f32(0.0),), (xs,)),
        S.Scanomap(op2("max"), f, (f32(0.0),), (xs,)),
        S.Intrinsic("tridag", (x, y)),
        T.SegMap(1, ctx, v("r") * x),
        T.SegRed(1, ctx, op2("+"), (f32(0.0),), v("r")),
        T.SegScan(0, ctx, op2("*"), (f32(1.0),), v("r")),
        T.ParCmp(SizeVar("n"), "t0"),
    ]
    return {type(n): n for n in nodes}


class TestChildTable:
    """The child table drives every rebuild: a node class without a row,
    or with a slot the rebuild cannot see, fails here."""

    @pytest.mark.parametrize("cls", _concrete_exp_classes(), ids=lambda c: c.__name__)
    def test_class_has_a_row_and_slots(self, cls):
        assert cls in _SPEC, f"{cls.__name__} has no child-specification row"
        for k in cls.__mro__[:-1]:
            assert "__slots__" in vars(k), f"{k.__name__} declares no __slots__"
        assert cls in _samples(), f"no sample {cls.__name__} node in this test"

    @pytest.mark.parametrize("cls", _concrete_exp_classes(), ids=lambda c: c.__name__)
    def test_rebuilds_keep_class_and_fingerprint(self, cls):
        e = _samples()[cls]
        leaf = not _SPEC[cls]
        for out in (map_children(e, lambda c: c), subst_vars(e, {"absent": v("q")})):
            assert type(out) is cls
            assert (out is e) == leaf
            assert kernel_fingerprint(out) == kernel_fingerprint(e)

    @pytest.mark.parametrize("cls", _concrete_exp_classes(), ids=lambda c: c.__name__)
    def test_map_children_visits_in_table_order(self, cls):
        e = _samples()[cls]
        seen: list[S.Exp] = []
        map_children(e, lambda c: seen.append(c) or c)
        stack: list[S.Exp] = []
        push_children(e, stack)
        assert [id(c) for c in seen] == [id(c) for c in reversed(stack)]
