"""Clean-up simplifications: constant folding, copy propagation, dead code.

Run after normalisation/flattening to remove the administrative bindings
those passes introduce.  All expressions in the language are pure, so
dropping an unused binding is always sound.
"""

from __future__ import annotations

from repro.ir import source as S
from repro.ir import target as T
from repro.ir.pretty import pretty
from repro.ir.traverse import map_children, subst_vars, walk

__all__ = ["simplify"]

_MAX_ROUNDS = 20


def simplify(e: S.Exp) -> S.Exp:
    """Iterate local simplifications to a fixpoint (bounded)."""
    prev = pretty(e)
    for _ in range(_MAX_ROUNDS):
        e = _simp(e)
        cur = pretty(e)
        if cur == prev:
            return e
        prev = cur
    return e


def _used_names(e: S.Exp) -> set[str]:
    return {sub.name for sub in walk(e) if isinstance(sub, S.Var)}


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


def _simp(e: S.Exp) -> S.Exp:
    new = map_children(e, _simp)
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
        if not (set(new.names) & _used_names(new.body)):
            return new.body
    if isinstance(new, T.SegMap):
        identity = _segmap_identity(new)
        if identity is not None:
            return identity
    if isinstance(new, T.SegOp):
        return _prune_ctx(new)
    return new


def _prune_ctx(op: T.SegOp) -> T.SegOp:
    """Drop context params (and their arrays) that no inner code uses.

    Keeps at least one param per binding so the level extent stays driven by
    a concrete array.
    """
    used: set[str] = set(_used_names(op.body))
    if isinstance(op, (T.SegRed, T.SegScan)):
        used |= _used_names(op.lam.body)
        for ne in op.nes:
            used |= _used_names(ne)
    for b in op.ctx:
        for arr in b.arrays:
            used |= _used_names(arr)

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
