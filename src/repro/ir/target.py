"""The target language AST (paper §2.1).

The target language reuses every source construct — but SOACs are understood
to execute *sequentially*.  Parallel execution is expressed exclusively by
three constructs annotated with a hardware level ``l``:

* ``segmap^l Σ e``  — a perfect map nest over the mapnest context Σ,
* ``segred^l Σ ⊙ d̄ e`` — maps with an innermost ``redomap``,
* ``segscan^l Σ ⊙ d̄ e`` — maps with an innermost ``scanomap``.

The mapnest context Σ records, outermost first, the bound variables of each
nest level and the arrays they draw values from, together with the symbolic
extent of that level.  The implicit well-formedness constraint is that a
level-0 construct contains only sequential code, and a level-l construct
directly contains only level-(l−1) parallel constructs
(:func:`repro.ir.typecheck.validate_levels` checks this).

Multi-versioned programs produced by incremental flattening guard versions
with :class:`ParCmp` — a boolean comparison of a symbolic
degree-of-parallelism against a named threshold parameter.
"""

from __future__ import annotations

from typing import Iterable

from repro.ir.source import Exp, Lambda, lift, ExpLike
from repro.sizes import SizeConst, SizeExpr, size_prod

__all__ = [
    "Binding",
    "Ctx",
    "SegOp",
    "SegMap",
    "SegRed",
    "SegScan",
    "ParCmp",
    "EMPTY_CTX",
]


class Binding:
    """One level of a mapnest context: ``⟨x̄ ∈ ȳ⟩`` with extent ``size``."""

    __slots__ = ("params", "arrays", "size")

    def __init__(self, params: Iterable[str], arrays: Iterable[Exp], size: SizeExpr):
        self.params = tuple(params)
        self.arrays = tuple(arrays)
        if len(self.params) != len(self.arrays):
            raise ValueError("context binding params/arrays length mismatch")
        self.size = size

    def __repr__(self) -> str:
        ps = " ".join(self.params)
        from repro.ir.pretty import pretty

        as_ = " ".join(pretty(a) for a in self.arrays)
        return f"⟨{ps} ∈ {as_}⟩"


class Ctx:
    """A mapnest context Σ: a sequence of bindings, outermost first."""

    __slots__ = ("bindings",)

    def __init__(self, bindings: Iterable[Binding] = ()):
        self.bindings = tuple(bindings)

    def __bool__(self) -> bool:
        return bool(self.bindings)

    def __len__(self) -> int:
        return len(self.bindings)

    def __iter__(self):
        return iter(self.bindings)

    def extend(self, binding: Binding) -> "Ctx":
        """Push a new innermost level."""
        return Ctx(self.bindings + (binding,))

    def pop(self) -> tuple["Ctx", Binding]:
        """Split off the innermost level (for rule G8)."""
        if not self.bindings:
            raise ValueError("cannot pop empty context")
        return Ctx(self.bindings[:-1]), self.bindings[-1]

    def dom(self) -> frozenset[str]:
        """Dom(Σ): all variables bound by the context."""
        out: set[str] = set()
        for b in self.bindings:
            out.update(b.params)
        return frozenset(out)

    def par(self) -> SizeExpr:
        """Par(Σ): the degree of parallelism of the full nest."""
        if not self.bindings:
            return SizeConst(1)
        return size_prod(b.size for b in self.bindings)

    def __repr__(self) -> str:
        return "".join(repr(b) for b in self.bindings) or "•"


EMPTY_CTX = Ctx()


class SegOp(Exp):
    """Base of the parallel target constructs."""

    __slots__ = ("level", "ctx")

    def __init__(self, level: int, ctx: Ctx):
        if level < 0:
            raise ValueError("hardware level must be non-negative")
        if not ctx:
            raise ValueError("segmented operations need a non-empty context")
        self.level = level
        self.ctx = ctx


class SegMap(SegOp):
    """``segmap^l Σ e`` — perfect map nest with body ``e``."""

    __slots__ = ("body",)

    def __init__(self, level: int, ctx: Ctx, body: Exp):
        super().__init__(level, ctx)
        self.body = body


class SegRed(SegOp):
    """``segred^l Σ ⊙ d̄ e`` — map nest whose innermost level reduces.

    Semantically ``map (... (redomap ⊙ (λ innermost → e) d̄ ...))``: the body
    ``e`` produces per-element values that are combined with operator ``lam``
    and neutral elements ``nes`` along the innermost context dimension.
    """

    __slots__ = ("lam", "nes", "body")

    def __init__(self, level: int, ctx: Ctx, lam: Lambda, nes: Iterable[ExpLike], body: Exp):
        super().__init__(level, ctx)
        self.lam = lam
        self.nes = tuple(lift(e) for e in nes)
        self.body = body
        if len(lam.params) != 2 * len(self.nes):
            raise ValueError("segred operator arity mismatch")


class SegScan(SegOp):
    """``segscan^l Σ ⊙ d̄ e`` — map nest whose innermost level scans."""

    __slots__ = ("lam", "nes", "body")

    def __init__(self, level: int, ctx: Ctx, lam: Lambda, nes: Iterable[ExpLike], body: Exp):
        super().__init__(level, ctx)
        self.lam = lam
        self.nes = tuple(lift(e) for e in nes)
        self.body = body
        if len(lam.params) != 2 * len(self.nes):
            raise ValueError("segscan operator arity mismatch")


class ParCmp(Exp):
    """``Par ≥ t`` — guard predicate of a multi-versioned program.

    ``par`` is the symbolic degree of parallelism utilised by the guarded
    version; ``threshold`` names a tunable program parameter (paper §3.2,
    §4.2).  Evaluates to a boolean at run time.
    """

    __slots__ = ("par", "threshold")

    def __init__(self, par: SizeExpr, threshold: str):
        self.par = par
        self.threshold = threshold
