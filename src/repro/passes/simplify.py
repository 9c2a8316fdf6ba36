"""Clean-up simplifications: constant folding, copy propagation, dead code.

Run after normalisation/flattening to remove the administrative bindings
those passes introduce.  All expressions in the language are pure, so
dropping an unused binding is always sound.

Fixpoint rule: :func:`simplify` rewrites bottom-up in rounds and stops
after the first round in which no rewrite fired (or after
``_MAX_ROUNDS``).  Every rewrite removes nodes, so a round that fires none
leaves the program as it was, and one that fires any changes it.  The
dead-binding and context-pruning tests read each subtree's variable names
from a bottom-up memo that lives for one round, so no subtree is walked
again for each binding above it.
"""

from __future__ import annotations

from repro.ir import source as S
from repro.ir import target as T
from repro.ir.traverse import map_children, push_children, subst_vars

__all__ = ["simplify"]

_MAX_ROUNDS = 20

_NO_NAMES: frozenset[str] = frozenset()


def simplify(e: S.Exp) -> S.Exp:
    """Iterate local simplifications to a fixpoint (bounded)."""
    for _ in range(_MAX_ROUNDS):
        s = _Round()
        e = s.simp(e)
        if not s.fired:
            return e
    return e


def _fold_binop(e: S.BinOp) -> S.Exp:
    if isinstance(e.x, S.Lit) and isinstance(e.y, S.Lit):
        from repro.interp.scalar import BINOPS
        from repro.ir.typecheck import TypeError_, typeof

        try:
            val = BINOPS[e.op](e.x.value, e.y.value)
            (t,) = typeof(e, {})
            return S.Lit(val, t)
        except (ZeroDivisionError, TypeError_, OverflowError):
            return e
    # algebraic identities with unit elements
    for a, b in ((e.x, e.y), (e.y, e.x)):
        if isinstance(a, S.Lit) and e.op in ("+", "*"):
            if e.op == "+" and a.value == 0:
                return b
            if e.op == "*" and a.value == 1:
                return b
    return e


class _Round:
    """One round of rewrites: whether any fired, and the variable names of
    the subtrees the dead-binding and context-pruning tests asked about
    (id-keyed; each value holds its node, so ids stay unique).  A round
    rebuilds every node it visits, so an earlier round's entries could not
    be asked for again."""

    def __init__(self) -> None:
        self.fired = False
        self._names: dict[int, tuple[S.Exp, frozenset[str]]] = {}

    def names(self, e: S.Exp, keep: bool = True) -> frozenset[str]:
        """Every variable name occurring anywhere in ``e``.  Only the roots
        of the tests' questions are kept, and a question stops at the roots
        below it, so each node is visited once per round."""
        hit = self._names.get(id(e))
        if hit is not None and hit[0] is e:
            return hit[1]
        if isinstance(e, S.Var):
            out = frozenset((e.name,))
        else:
            out = _NO_NAMES
            kids: list[S.Exp] = []
            push_children(e, kids)
            for c in kids:
                sub = self.names(c, keep=False)
                if sub and not sub <= out:
                    out = out | sub if out else sub
        if keep:
            self._names[id(e)] = (e, out)
        return out

    def simp(self, e: S.Exp) -> S.Exp:
        new = map_children(e, self.simp)
        out = self._rewrite(new)
        if out is not new:
            self.fired = True
        return out

    def _rewrite(self, new: S.Exp) -> S.Exp:
        if isinstance(new, S.BinOp):
            return _fold_binop(new)
        if isinstance(new, S.If) and isinstance(new.cond, S.Lit):
            return new.then if new.cond.value else new.els
        if isinstance(new, S.Let):
            # copy propagation: let x̄ = ȳ in body
            src: list[S.Exp] | None = None
            if isinstance(new.rhs, S.Var) and len(new.names) == 1:
                src = [new.rhs]
            elif isinstance(new.rhs, S.TupleExp) and len(new.rhs.elems) == len(
                new.names
            ) and all(isinstance(x, S.Var) for x in new.rhs.elems):
                src = list(new.rhs.elems)
            if src is not None:
                return subst_vars(new.body, dict(zip(new.names, src)))
            # dead binding elimination (all RHSs are pure)
            if self.names(new.body).isdisjoint(new.names):
                return new.body
        if isinstance(new, T.SegMap):
            identity = _segmap_identity(new)
            if identity is not None:
                return identity
        if isinstance(new, T.SegOp):
            return self._prune_ctx(new)
        return new

    def _prune_ctx(self, op: T.SegOp) -> T.SegOp:
        """Drop context params (and their arrays) that no inner code uses.

        Keeps at least one param per binding so the level extent stays
        driven by a concrete array.
        """
        used = self.names(op.body)
        if isinstance(op, (T.SegRed, T.SegScan)):
            used = used | self.names(op.lam.body)
            for ne in op.nes:
                used = used | self.names(ne)
        for b in op.ctx:
            for arr in b.arrays:
                used = used | self.names(arr)

        changed = False
        new_bindings = []
        for b in op.ctx:
            keep = [i for i, p in enumerate(b.params) if p in used]
            if not keep:
                keep = [0]
            if len(keep) != len(b.params):
                changed = True
                b = T.Binding(
                    tuple(b.params[i] for i in keep),
                    tuple(b.arrays[i] for i in keep),
                    b.size,
                )
            new_bindings.append(b)
        if not changed:
            return op
        ctx = T.Ctx(new_bindings)
        if isinstance(op, T.SegMap):
            return T.SegMap(op.level, ctx, op.body)
        cls = type(op)
        return cls(op.level, ctx, op.lam, op.nes, op.body)


def _segmap_identity(e: T.SegMap) -> S.Exp | None:
    """``segmap Σ (x̄)`` where each x chains through Σ is a no-op copy."""
    from repro.flatten.context import resolve_full_array

    if isinstance(e.body, S.Var):
        results = [e.body]
    elif isinstance(e.body, S.TupleExp) and all(
        isinstance(x, S.Var) for x in e.body.elems
    ):
        results = list(e.body.elems)
    else:
        return None
    resolved = [resolve_full_array(x.name, e.ctx) for x in results]
    if any(r is None for r in resolved):
        return None
    if len(resolved) == 1:
        return resolved[0]
    return S.TupleExp(resolved)
