"""The source language AST (paper §2, Fig. 1).

A purely functional, first-order expression language in (loose) A-normal
form, equipped with second-order array combinators (SOACs): ``map``,
``reduce``, ``scan``, and the fused forms ``redomap``/``scanomap``; plus
``replicate``, ``iota``, ``rearrange`` (generalised transpose), a
fixed-trip-count ``loop``, ``let``, ``if`` and scalar operators.

SOACs are multi-ary: they consume and produce tuples of arrays
(tuple-of-arrays representation).  Every expression is in general
multi-valued; single values are 1-tuples at the typing level.

Expression classes overload arithmetic/comparison operators so that
benchmark programs can be written readably (see :mod:`repro.ir.builder`).
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.ir.types import BOOL, F32, F64, I32, I64, ScalarType

__all__ = [
    "Exp",
    "Lambda",
    "Var",
    "Lit",
    "TupleExp",
    "BinOp",
    "UnOp",
    "Let",
    "If",
    "Index",
    "Iota",
    "Replicate",
    "Rearrange",
    "Loop",
    "Map",
    "Reduce",
    "Scan",
    "Redomap",
    "Scanomap",
    "SizeE",
    "Intrinsic",
    "lift",
    "transpose",
    "BINOPS",
    "UNOPS",
    "COMMUTATIVE_BINOPS",
]

ExpLike = Union["Exp", int, float, bool]

#: scalar binary operators and whether they are comparisons (result bool)
BINOPS = {
    "+": False,
    "-": False,
    "*": False,
    "/": False,
    "%": False,
    "min": False,
    "max": False,
    "pow": False,
    "==": True,
    "!=": True,
    "<": True,
    "<=": True,
    ">": True,
    ">=": True,
    "&&": False,  # bool -> bool -> bool
    "||": False,
}

COMMUTATIVE_BINOPS = frozenset({"+", "*", "min", "max", "==", "!=", "&&", "||"})

#: unary operators; value is None (type-preserving) or a result ScalarType
UNOPS = {
    "neg": None,
    "abs": None,
    "exp": None,
    "log": None,
    "sqrt": None,
    "not": BOOL,
    "to_f32": F32,
    "to_f64": F64,
    "to_i32": I32,
    "to_i64": I64,
}


class Exp:
    """Base class of all expressions (source and target)."""

    __slots__ = ()

    # -- construction sugar -------------------------------------------------

    def __add__(self, other: ExpLike) -> "BinOp":
        return BinOp("+", self, lift(other))

    def __radd__(self, other: ExpLike) -> "BinOp":
        return BinOp("+", lift(other), self)

    def __sub__(self, other: ExpLike) -> "BinOp":
        return BinOp("-", self, lift(other))

    def __rsub__(self, other: ExpLike) -> "BinOp":
        return BinOp("-", lift(other), self)

    def __mul__(self, other: ExpLike) -> "BinOp":
        return BinOp("*", self, lift(other))

    def __rmul__(self, other: ExpLike) -> "BinOp":
        return BinOp("*", lift(other), self)

    def __truediv__(self, other: ExpLike) -> "BinOp":
        return BinOp("/", self, lift(other))

    def __rtruediv__(self, other: ExpLike) -> "BinOp":
        return BinOp("/", lift(other), self)

    def __mod__(self, other: ExpLike) -> "BinOp":
        return BinOp("%", self, lift(other))

    def __neg__(self) -> "UnOp":
        return UnOp("neg", self)

    def eq(self, other: ExpLike) -> "BinOp":
        return BinOp("==", self, lift(other))

    def lt(self, other: ExpLike) -> "BinOp":
        return BinOp("<", self, lift(other))

    def le(self, other: ExpLike) -> "BinOp":
        return BinOp("<=", self, lift(other))

    def gt(self, other: ExpLike) -> "BinOp":
        return BinOp(">", self, lift(other))

    def ge(self, other: ExpLike) -> "BinOp":
        return BinOp(">=", self, lift(other))

    def __getitem__(self, idx) -> "Index":
        if not isinstance(idx, tuple):
            idx = (idx,)
        return Index(self, tuple(lift(i) for i in idx))

    def __repr__(self) -> str:
        from repro.ir.pretty import pretty

        return pretty(self)


def lift(x: ExpLike) -> Exp:
    """Coerce a Python constant into a literal expression."""
    if isinstance(x, Exp):
        return x
    if isinstance(x, bool):
        return Lit(x, BOOL)
    if isinstance(x, int):
        return Lit(x, I64)
    if isinstance(x, float):
        return Lit(x, F32)
    raise TypeError(f"cannot lift {x!r} into an expression")


class Lambda:
    """An anonymous first-order function (not itself an expression)."""

    __slots__ = ("params", "body")

    def __init__(self, params: Iterable[str], body: Exp):
        self.params = tuple(params)
        self.body = body

    def __repr__(self) -> str:
        from repro.ir.pretty import pretty_lambda

        return pretty_lambda(self)


class Var(Exp):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Lit(Exp):
    __slots__ = ("value", "type")

    def __init__(self, value, type: ScalarType):
        self.value = value
        self.type = type


class TupleExp(Exp):
    """A tuple of (multi-)values; flattens nested multiplicities at typing."""

    __slots__ = ("elems",)

    def __init__(self, elems: Iterable[Exp]):
        self.elems = tuple(lift(e) for e in elems)


class BinOp(Exp):
    __slots__ = ("op", "x", "y")

    def __init__(self, op: str, x: ExpLike, y: ExpLike):
        if op not in BINOPS:
            raise ValueError(f"unknown binary operator {op!r}")
        self.op = op
        self.x = lift(x)
        self.y = lift(y)


class UnOp(Exp):
    __slots__ = ("op", "x")

    def __init__(self, op: str, x: ExpLike):
        if op not in UNOPS:
            raise ValueError(f"unknown unary operator {op!r}")
        self.op = op
        self.x = lift(x)


class Let(Exp):
    """``let (x1, ..., xn) = rhs in body``."""

    __slots__ = ("names", "rhs", "body")

    def __init__(self, names: Iterable[str], rhs: Exp, body: Exp):
        self.names = tuple(names)
        self.rhs = rhs
        self.body = body


class If(Exp):
    __slots__ = ("cond", "then", "els")

    def __init__(self, cond: Exp, then: Exp, els: Exp):
        self.cond = lift(cond)
        self.then = then
        self.els = els


class Index(Exp):
    """``arr[i1, ..., ik]`` — full or partial (row) indexing."""

    __slots__ = ("arr", "idxs")

    def __init__(self, arr: Exp, idxs: Iterable[ExpLike]):
        self.arr = arr
        self.idxs = tuple(lift(i) for i in idxs)


class Iota(Exp):
    """``iota n = [0, 1, ..., n-1]`` (i64 elements)."""

    __slots__ = ("n",)

    def __init__(self, n: ExpLike):
        self.n = lift(n)


class Replicate(Exp):
    """``replicate n x`` — n copies of x as an array."""

    __slots__ = ("n", "x")

    def __init__(self, n: ExpLike, x: ExpLike):
        self.n = lift(n)
        self.x = lift(x)


class Rearrange(Exp):
    """``rearrange (d1, ..., dk) arr`` — statically-known dim permutation."""

    __slots__ = ("perm", "arr")

    def __init__(self, perm: Iterable[int], arr: Exp):
        self.perm = tuple(perm)
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError(f"{self.perm} is not a permutation")
        self.arr = arr


def transpose(arr: Exp) -> Rearrange:
    """``transpose ≡ rearrange (1, 0)``."""
    return Rearrange((1, 0), arr)


class Loop(Exp):
    """``loop (x1..xn) = (init1..initn) for i < bound do body``.

    Executes a statically-bounded iteration: the loop parameters are bound
    to the inits on the first iteration and to the body's results after.
    """

    __slots__ = ("params", "inits", "ivar", "bound", "body")

    def __init__(
        self,
        params: Iterable[str],
        inits: Iterable[Exp],
        ivar: str,
        bound: ExpLike,
        body: Exp,
    ):
        self.params = tuple(params)
        self.inits = tuple(lift(i) for i in inits)
        if len(self.params) != len(self.inits):
            raise ValueError("loop params/inits length mismatch")
        self.ivar = ivar
        self.bound = lift(bound)
        self.body = body


class _Soac(Exp):
    """Common base for SOACs (for isinstance tests)."""

    __slots__ = ()


class Map(_Soac):
    """``map f xs1 ... xsk`` — f has k params, may return several values."""

    __slots__ = ("lam", "arrs")

    def __init__(self, lam: Lambda, arrs: Iterable[Exp]):
        self.lam = lam
        self.arrs = tuple(arrs)
        if len(lam.params) != len(self.arrs):
            raise ValueError("map lambda arity mismatch")


class Reduce(_Soac):
    """``reduce op nes xs1 ... xsk``; op takes 2k params, returns k values."""

    __slots__ = ("lam", "nes", "arrs")

    def __init__(self, lam: Lambda, nes: Iterable[ExpLike], arrs: Iterable[Exp]):
        self.lam = lam
        self.nes = tuple(lift(e) for e in nes)
        self.arrs = tuple(arrs)
        if len(lam.params) != 2 * len(self.arrs):
            raise ValueError("reduce operator arity mismatch")
        if len(self.nes) != len(self.arrs):
            raise ValueError("reduce neutral-element count mismatch")


class Scan(_Soac):
    """``scan op nes xs1 ... xsk`` — inclusive prefix combination."""

    __slots__ = ("lam", "nes", "arrs")

    def __init__(self, lam: Lambda, nes: Iterable[ExpLike], arrs: Iterable[Exp]):
        self.lam = lam
        self.nes = tuple(lift(e) for e in nes)
        self.arrs = tuple(arrs)
        if len(lam.params) != 2 * len(self.arrs):
            raise ValueError("scan operator arity mismatch")
        if len(self.nes) != len(self.arrs):
            raise ValueError("scan neutral-element count mismatch")


class Redomap(_Soac):
    """``redomap op f nes xs…`` ≡ ``reduce op nes (map f xs…)`` (fused)."""

    __slots__ = ("red_lam", "map_lam", "nes", "arrs")

    def __init__(
        self,
        red_lam: Lambda,
        map_lam: Lambda,
        nes: Iterable[ExpLike],
        arrs: Iterable[Exp],
    ):
        self.red_lam = red_lam
        self.map_lam = map_lam
        self.nes = tuple(lift(e) for e in nes)
        self.arrs = tuple(arrs)
        if len(map_lam.params) != len(self.arrs):
            raise ValueError("redomap map-lambda arity mismatch")
        if len(red_lam.params) != 2 * len(self.nes):
            raise ValueError("redomap reduce-operator arity mismatch")


class Scanomap(_Soac):
    """``scanomap op f nes xs…`` ≡ ``scan op nes (map f xs…)`` (fused)."""

    __slots__ = ("scan_lam", "map_lam", "nes", "arrs")

    def __init__(
        self,
        scan_lam: Lambda,
        map_lam: Lambda,
        nes: Iterable[ExpLike],
        arrs: Iterable[Exp],
    ):
        self.scan_lam = scan_lam
        self.map_lam = map_lam
        self.nes = tuple(lift(e) for e in nes)
        self.arrs = tuple(arrs)
        if len(map_lam.params) != len(self.arrs):
            raise ValueError("scanomap map-lambda arity mismatch")
        if len(scan_lam.params) != 2 * len(self.nes):
            raise ValueError("scanomap scan-operator arity mismatch")


class SizeE(Exp):
    """A symbolic size used as an (i64) expression.

    Introduced by transformations that need run-time access to a symbolic
    array extent (e.g. rule G7's replicate-expansion of loop-invariant
    initialisers).  Evaluated against the dataset's size environment.
    """

    __slots__ = ("size",)

    def __init__(self, size):
        from repro.sizes import size as _size

        self.size = _size(size)


class Intrinsic(Exp):
    """An opaque named operation with registered semantics and cost.

    Used to model hand-written reference kernels (e.g. the FinPar sequential
    Thomas-algorithm tridag, or register-tiled matmul bodies) that have no
    SOAC-level formulation.  Semantics, types and cost profiles live in
    :mod:`repro.interp.intrinsics` and :mod:`repro.gpu.cost`.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Iterable[Exp]):
        self.name = name
        self.args = tuple(lift(a) for a in args)


#: SOAC classes that express (source-level) parallelism.
PARALLEL_SOACS = (Map, Reduce, Scan, Redomap, Scanomap)
