"""A small construction DSL for writing IR programs readably.

Benchmark programs (``repro.bench.programs``) and examples are written with
these helpers: Python lambdas become IR :class:`~repro.ir.source.Lambda`
nodes with fresh parameter names taken from the Python parameter names, and
expression operators are overloaded on :class:`~repro.ir.source.Exp`.

Example — the paper's §2.2 matrix multiplication::

    body = map_(lambda xs:
               map_(lambda ys: redomap_(op2("+"), lambda x, y: x * y,
                                        [f32(0.0)], xs, ys),
                    transpose(yss)),
               xss)
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterable, Sequence

from repro.ir import source as S
from repro.ir.source import Exp, ExpLike, Lambda, lift, transpose  # re-export
from repro.ir.traverse import fresh_name, walk
from repro.ir.types import BOOL, F32, F64, I32, I64, ArrayType, Type
from repro.sizes import SizeVar

__all__ = [
    "Program",
    "v",
    "f32",
    "f64",
    "i32",
    "i64",
    "true",
    "false",
    "lam",
    "op2",
    "map_",
    "reduce_",
    "scan_",
    "redomap_",
    "scanomap_",
    "let_",
    "lets",
    "loop_",
    "if_",
    "iota",
    "replicate",
    "rearrange",
    "transpose",
    "intrinsic",
    "exp_",
    "log_",
    "sqrt_",
    "abs_",
    "min_",
    "max_",
    "to_f32",
    "to_i64",
    "size_e",
]


def v(name: str) -> S.Var:
    return S.Var(name)


def f32(x: float) -> S.Lit:
    return S.Lit(float(x), F32)


def f64(x: float) -> S.Lit:
    return S.Lit(float(x), F64)


def i32(x: int) -> S.Lit:
    return S.Lit(int(x), I32)


def i64(x: int) -> S.Lit:
    return S.Lit(int(x), I64)


true = S.Lit(True, BOOL)
false = S.Lit(False, BOOL)


def lam(f: Callable[..., ExpLike]) -> Lambda:
    """Build an IR lambda from a Python lambda/function.

    Parameter names are taken from the Python signature and freshened so
    that nested uses never capture.
    """
    sig = inspect.signature(f)
    names = [fresh_name(p) for p in sig.parameters]
    body = f(*(S.Var(n) for n in names))
    if isinstance(body, tuple):
        body = S.TupleExp([lift(b) for b in body])
    return Lambda(names, lift(body))


def op2(op: str) -> Lambda:
    """A binary scalar operator as a 2-parameter lambda, e.g. ``op2("+")``."""
    return lam(lambda a, b: S.BinOp(op, a, b))


def map_(f: Callable[..., ExpLike] | Lambda, *arrs: Exp) -> S.Map:
    return S.Map(f if isinstance(f, Lambda) else lam(f), arrs)


def reduce_(
    op: Callable[..., ExpLike] | Lambda, nes: Sequence[ExpLike] | ExpLike, *arrs: Exp
) -> S.Reduce:
    if not isinstance(nes, (list, tuple)):
        nes = [nes]
    return S.Reduce(op if isinstance(op, Lambda) else lam(op), list(nes), arrs)


def scan_(
    op: Callable[..., ExpLike] | Lambda, nes: Sequence[ExpLike] | ExpLike, *arrs: Exp
) -> S.Scan:
    if not isinstance(nes, (list, tuple)):
        nes = [nes]
    return S.Scan(op if isinstance(op, Lambda) else lam(op), list(nes), arrs)


def redomap_(
    op: Callable[..., ExpLike] | Lambda,
    f: Callable[..., ExpLike] | Lambda,
    nes: Sequence[ExpLike] | ExpLike,
    *arrs: Exp,
) -> S.Redomap:
    if not isinstance(nes, (list, tuple)):
        nes = [nes]
    return S.Redomap(
        op if isinstance(op, Lambda) else lam(op),
        f if isinstance(f, Lambda) else lam(f),
        list(nes),
        arrs,
    )


def scanomap_(
    op: Callable[..., ExpLike] | Lambda,
    f: Callable[..., ExpLike] | Lambda,
    nes: Sequence[ExpLike] | ExpLike,
    *arrs: Exp,
) -> S.Scanomap:
    if not isinstance(nes, (list, tuple)):
        nes = [nes]
    return S.Scanomap(
        op if isinstance(op, Lambda) else lam(op),
        f if isinstance(f, Lambda) else lam(f),
        list(nes),
        arrs,
    )


def let_(rhs: Exp, body: Callable[..., ExpLike], names: str | None = None) -> S.Let:
    """``let x = rhs in body(x)`` — binder names from the body's signature.

    For multi-valued right-hand sides give the body several parameters::

        let_(map_(f, xs, ys), lambda as_, bs: ...)
    """
    sig = inspect.signature(body)
    if names is None:
        bound = [fresh_name(p) for p in sig.parameters]
    else:
        bound = [fresh_name(n) for n in names.split()]
    out = body(*(S.Var(n) for n in bound))
    if isinstance(out, tuple):
        out = S.TupleExp([lift(b) for b in out])
    return S.Let(bound, rhs, lift(out))


def lets(*steps, result: Callable[..., ExpLike]):
    """Chain of single-valued lets: ``lets(e1, e2, result=lambda a, b: …)``."""

    def build(i: int, acc: list[S.Var]) -> Exp:
        if i == len(steps):
            out = result(*acc)
            if isinstance(out, tuple):
                out = S.TupleExp([lift(b) for b in out])
            return lift(out)
        name = fresh_name(f"t{i}")
        return S.Let((name,), steps[i], build(i + 1, acc + [S.Var(name)]))

    return build(0, [])


def loop_(
    inits: Sequence[Exp] | Exp,
    bound: ExpLike,
    body: Callable[..., ExpLike],
) -> S.Loop:
    """``loop x̄ = inits for i < bound do body(i, *x̄)``.

    The Python body receives the induction variable first, then the loop
    parameters, and returns the next values (a tuple for several).
    """
    if isinstance(inits, Exp):
        inits = [inits]
    sig = inspect.signature(body)
    names = [fresh_name(p) for p in sig.parameters]
    if len(names) != len(inits) + 1:
        raise ValueError("loop body must take (ivar, *params)")
    ivar, params = names[0], names[1:]
    out = body(*(S.Var(n) for n in names))
    if isinstance(out, tuple):
        out = S.TupleExp([lift(b) for b in out])
    return S.Loop(params, list(inits), ivar, bound, lift(out))


def if_(cond: ExpLike, then: ExpLike, els: ExpLike) -> S.If:
    return S.If(lift(cond), lift(then), lift(els))


def iota(n: ExpLike) -> S.Iota:
    return S.Iota(n)


def replicate(n: ExpLike, x: ExpLike) -> S.Replicate:
    return S.Replicate(n, x)


def rearrange(perm: Iterable[int], arr: Exp) -> S.Rearrange:
    return S.Rearrange(perm, arr)


def intrinsic(name: str, *args: ExpLike) -> S.Intrinsic:
    return S.Intrinsic(name, [lift(a) for a in args])


def exp_(x: ExpLike) -> S.UnOp:
    return S.UnOp("exp", lift(x))


def log_(x: ExpLike) -> S.UnOp:
    return S.UnOp("log", lift(x))


def sqrt_(x: ExpLike) -> S.UnOp:
    return S.UnOp("sqrt", lift(x))


def abs_(x: ExpLike) -> S.UnOp:
    return S.UnOp("abs", lift(x))


def min_(x: ExpLike, y: ExpLike) -> S.BinOp:
    return S.BinOp("min", lift(x), lift(y))


def max_(x: ExpLike, y: ExpLike) -> S.BinOp:
    return S.BinOp("max", lift(x), lift(y))


def to_f32(x: ExpLike) -> S.UnOp:
    return S.UnOp("to_f32", lift(x))


def to_i64(x: ExpLike) -> S.UnOp:
    return S.UnOp("to_i64", lift(x))


class Program:
    """A named top-level function: typed parameters and a body expression.

    Size variables used in parameter shapes (e.g. ``numX``) are implicit
    program inputs, bound by the dataset.
    """

    def __init__(self, name: str, params: Sequence[tuple[str, Type]], body: Exp):
        self.name = name
        self.params = list(params)
        self.body = body

    def type_env(self) -> dict[str, Type]:
        return dict(self.params)

    def size_vars(self) -> frozenset[str]:
        """The size variables a run must bind: those of the parameter
        shapes, and those the body reads through ``SizeE`` that no scalar
        parameter binds."""
        out: set[str] = set()
        scalars: set[str] = set()
        for name, t in self.params:
            if isinstance(t, ArrayType):
                for d in t.shape:
                    out |= d.free_vars()
            else:
                scalars.add(name)
        for e in walk(self.body):
            if isinstance(e, S.SizeE):
                out |= e.size.free_vars() - scalars
        return frozenset(out)

    def empty_inputs(self, sizes) -> list[str]:
        """The array parameters ``sizes`` gives a zero extent, each as
        ``"walls (cols=0)"``: no engine can run such an input.  ``sizes``
        must bind every size variable."""
        out = []
        for name, t in self.params:
            if not isinstance(t, ArrayType):
                continue
            for d in t.shape:
                if d.eval(sizes) == 0:
                    zero = sorted(v for v in d.free_vars() if sizes.get(v) == 0)
                    why = ", ".join(f"{v}=0" for v in zero) or f"extent {d}"
                    out.append(f"{name} ({why})")
                    break
        return out

    def check(self) -> tuple[Type, ...]:
        """Type check and return the result types."""
        from repro.ir.typecheck import typeof

        return typeof(self.body, self.type_env())

    def __repr__(self) -> str:
        from repro.ir.pretty import pretty

        ps = ", ".join(f"{n}: {t}" for n, t in self.params)
        return f"def {self.name}({ps}) =\n  {pretty(self.body, 1)}"


def size_e(name: str) -> S.SizeE:
    """A symbolic size variable as an i64 expression."""
    return S.SizeE(SizeVar(name))
