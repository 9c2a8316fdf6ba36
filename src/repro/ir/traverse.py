"""Generic AST traversal: walks, free variables, substitution, renaming,
structural fingerprints.

A single child-specification table drives all generic traversals, so adding
a node class means adding one table row.  Substitution is capture-avoiding:
binders that collide with the free variables of the substituted expressions
are freshened.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Mapping

from repro import perf
from repro.ir import source as S
from repro.ir import target as T

__all__ = [
    "fresh_name",
    "reset_fresh_names",
    "walk",
    "push_children",
    "free_vars",
    "rename_vars",
    "subst_vars",
    "contains_parallel",
    "count_nodes",
    "iter_scoped_children",
    "kernel_fingerprint",
]

_counter = itertools.count()


def fresh_name(base: str = "x") -> str:
    """A globally fresh variable name derived from ``base``."""
    base = base.split("ζ")[0]  # strip previous freshness suffix
    return f"{base}ζ{next(_counter)}"


def reset_fresh_names() -> None:
    """Reset the freshness counter (test isolation only)."""
    global _counter
    _counter = itertools.count()


# ---------------------------------------------------------------------------
# Child specification: class -> list of (attr, kind)
# kind ∈ {"exp", "exps", "lam", "ctx"}
# ---------------------------------------------------------------------------

_SPEC: dict[type, tuple[tuple[str, str], ...]] = {
    S.Var: (),
    S.SizeE: (),
    S.Lit: (),
    S.TupleExp: (("elems", "exps"),),
    S.BinOp: (("x", "exp"), ("y", "exp")),
    S.UnOp: (("x", "exp"),),
    S.Let: (("rhs", "exp"), ("body", "exp")),
    S.If: (("cond", "exp"), ("then", "exp"), ("els", "exp")),
    S.Index: (("arr", "exp"), ("idxs", "exps")),
    S.Iota: (("n", "exp"),),
    S.Replicate: (("n", "exp"), ("x", "exp")),
    S.Rearrange: (("arr", "exp"),),
    S.Loop: (("inits", "exps"), ("bound", "exp"), ("body", "exp")),
    S.Map: (("lam", "lam"), ("arrs", "exps")),
    S.Reduce: (("lam", "lam"), ("nes", "exps"), ("arrs", "exps")),
    S.Scan: (("lam", "lam"), ("nes", "exps"), ("arrs", "exps")),
    S.Redomap: (
        ("red_lam", "lam"),
        ("map_lam", "lam"),
        ("nes", "exps"),
        ("arrs", "exps"),
    ),
    S.Scanomap: (
        ("scan_lam", "lam"),
        ("map_lam", "lam"),
        ("nes", "exps"),
        ("arrs", "exps"),
    ),
    S.Intrinsic: (("args", "exps"),),
    T.SegMap: (("ctx", "ctx"), ("body", "exp")),
    T.SegRed: (("ctx", "ctx"), ("lam", "lam"), ("nes", "exps"), ("body", "exp")),
    T.SegScan: (("ctx", "ctx"), ("lam", "lam"), ("nes", "exps"), ("body", "exp")),
    T.ParCmp: (),
}


def _spec(e: S.Exp) -> tuple[tuple[str, str], ...]:
    try:
        return _SPEC[type(e)]
    except KeyError:
        raise TypeError(f"unknown expression class {type(e).__name__}") from None


#: per-class scalar fields that take part in the structural fingerprint
_FP_SCALARS: dict[type, object] = {
    S.Var: lambda e: (e.name,),
    S.Lit: lambda e: (e.value, type(e.value).__name__, e.type),
    S.SizeE: lambda e: (e.size,),
    S.BinOp: lambda e: (e.op,),
    S.UnOp: lambda e: (e.op,),
    S.Let: lambda e: (e.names,),
    S.Rearrange: lambda e: (e.perm,),
    S.Loop: lambda e: (e.params, e.ivar),
    S.Intrinsic: lambda e: (e.name,),
    T.ParCmp: lambda e: (e.par, e.threshold),
    T.SegMap: lambda e: (e.level,),
    T.SegRed: lambda e: (e.level,),
    T.SegScan: lambda e: (e.level,),
}

#: id-keyed memo; values hold the node itself so ids stay valid
_FP_MEMO: dict[int, tuple] = perf.register_cache("kernel.fingerprints", {})


def kernel_fingerprint(e: S.Exp) -> tuple:
    """Structural fingerprint of ``e``: a nested tuple capturing every
    semantically relevant field (class, scalar attributes, binder names,
    size expressions, children).  Structurally equal kernels — even from
    independent compilations — fingerprint equal."""
    memo = _FP_MEMO
    hit = memo.get(id(e))
    if hit is not None and hit[0] is e:
        return hit[1]
    scal = _FP_SCALARS.get(type(e))
    parts: list = [type(e).__name__]
    if scal is not None:
        parts.extend(scal(e))
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            parts.append(kernel_fingerprint(val))
        elif kind == "exps":
            parts.append(tuple(kernel_fingerprint(x) for x in val))
        elif kind == "lam":
            parts.append((val.params, kernel_fingerprint(val.body)))
        elif kind == "ctx":
            parts.append(
                tuple(
                    (b.params, b.size, tuple(kernel_fingerprint(a) for a in b.arrays))
                    for b in val
                )
            )
    fp = tuple(parts)
    perf.memo_put(memo, id(e), (e, fp))
    return fp


#: the child specification back to front, for :func:`push_children`
_RSPEC = {cls: tuple(reversed(spec)) for cls, spec in _SPEC.items()}


def walk(e: S.Exp) -> Iterator[S.Exp]:
    """Yield ``e`` and every (transitively) contained expression.

    Pre-order: each node, then its children's walks in child-specification
    order, entering lambda bodies and context array lists.  The order is
    observable (the simulator records guard thresholds in walk order).
    The pending nodes sit on an explicit stack, children pushed back to
    front, so a node is handled once whatever its depth, and a deep
    program does not reach Python's recursion limit.
    """
    stack = [e]
    pop = stack.pop
    while stack:
        x = pop()
        yield x
        push_children(x, stack)


def push_children(e: S.Exp, stack: list[S.Exp]) -> None:
    """Push the direct child expressions of ``e`` onto ``stack`` back to
    front, so that popping yields them in child-specification order: the
    step of an explicit-stack pre-order traversal like :func:`walk`."""
    spec = _RSPEC.get(type(e))
    if spec is None:
        spec = _spec(e)  # raises TypeError for an unknown class
    for attr, kind in spec:
        val = getattr(e, attr)
        if kind == "exp":
            stack.append(val)
        elif kind == "exps":
            stack.extend(reversed(val))
        elif kind == "lam":
            stack.append(val.body)
        else:  # ctx
            for b in reversed(val.bindings):
                stack.extend(reversed(b.arrays))


def count_nodes(e: S.Exp) -> int:
    """Number of AST nodes; used as the code-size metric (§5.1)."""
    return sum(1 for _ in walk(e))


def iter_scoped_children(e: S.Exp) -> Iterator[tuple[S.Exp, frozenset[str]]]:
    """Yield ``(child, binders)`` for every direct child expression.

    ``binders`` is the set of variable names bound *around that child* by
    ``e`` itself (let names for a let body, lambda/loop parameters, seg-op
    context bindings).  This is the scoping structure :func:`free_vars`
    uses, exposed so scope-aware analyses (e.g. the fusion passes' free
    occurrence counting) need not replicate the binder rules per class.
    """
    if isinstance(e, S.Let):
        yield e.rhs, frozenset()
        yield e.body, frozenset(e.names)
        return
    if isinstance(e, S.Loop):
        for i in e.inits:
            yield i, frozenset()
        yield e.bound, frozenset()
        yield e.body, frozenset(e.params) | frozenset({e.ivar})
        return
    if isinstance(e, T.SegOp):
        bound: frozenset[str] = frozenset()
        for b in e.ctx:
            for arr in b.arrays:
                yield arr, bound
            bound |= frozenset(b.params)
        if isinstance(e, (T.SegRed, T.SegScan)):
            yield e.lam.body, bound | frozenset(e.lam.params)
            for ne in e.nes:
                yield ne, bound
        yield e.body, bound
        return
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            yield val, frozenset()
        elif kind == "exps":
            for sub in val:
                yield sub, frozenset()
        elif kind == "lam":
            yield val.body, frozenset(val.params)


def contains_parallel(e: S.Exp, include_target: bool = True) -> bool:
    """Does ``e`` contain (source-level) parallel SOACs or seg-ops?

    With ``include_target=False`` only source SOACs count — used to decide
    whether an expression "has inner SOACs" in rules G2/G3, where already
    flattened seg-ops should not retrigger versioning.
    """
    for sub in walk(e):
        if isinstance(sub, S.PARALLEL_SOACS):
            return True
        if include_target and isinstance(sub, T.SegOp):
            return True
    return False


def free_vars(e: S.Exp) -> frozenset[str]:
    """Free variables of an expression."""
    return _fv(e)


def _fv_lambda(lam: S.Lambda) -> frozenset[str]:
    return _fv(lam.body) - frozenset(lam.params)


def _fv(e: S.Exp) -> frozenset[str]:
    if isinstance(e, S.Var):
        return frozenset({e.name})
    if isinstance(e, (S.Lit, S.SizeE, T.ParCmp)):
        return frozenset()
    if isinstance(e, S.Let):
        return _fv(e.rhs) | (_fv(e.body) - frozenset(e.names))
    if isinstance(e, S.Loop):
        out: frozenset[str] = frozenset()
        for i in e.inits:
            out |= _fv(i)
        out |= _fv(e.bound)
        out |= _fv(e.body) - frozenset(e.params) - frozenset({e.ivar})
        return out
    if isinstance(e, T.SegOp):
        bound: set[str] = set()
        out = frozenset()
        for b in e.ctx:
            for arr in b.arrays:
                out |= _fv(arr) - frozenset(bound)
            bound.update(b.params)
        if isinstance(e, (T.SegRed, T.SegScan)):
            out |= _fv_lambda(e.lam) - frozenset(bound)
            for ne in e.nes:
                out |= _fv(ne) - frozenset(bound)
        out |= _fv(e.body) - frozenset(bound)
        return out
    # generic case: collect over children, with lambdas handled specially
    out = frozenset()
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            out |= _fv(val)
        elif kind == "exps":
            for sub in val:
                out |= _fv(sub)
        elif kind == "lam":
            out |= _fv_lambda(val)
    return out


def rename_vars(e: S.Exp, mapping: Mapping[str, str]) -> S.Exp:
    """Rename free variables (variable-for-variable; capture-avoiding)."""
    return subst_vars(e, {k: S.Var(v) for k, v in mapping.items()})


def subst_vars(e: S.Exp, mapping: Mapping[str, S.Exp]) -> S.Exp:
    """Capture-avoiding substitution of expressions for free variables."""
    if not mapping:
        return e
    repl_fv: frozenset[str] = frozenset()
    for v in mapping.values():
        repl_fv |= free_vars(v)
    return _subst(e, dict(mapping), repl_fv)


def _freshen(
    names: tuple[str, ...], mapping: dict[str, S.Exp], repl_fv: frozenset[str]
) -> tuple[tuple[str, ...], dict[str, S.Exp], frozenset[str]]:
    """Drop shadowed entries and freshen binders that would capture."""
    inner = {k: v for k, v in mapping.items() if k not in names}
    if not inner:
        return names, {}, repl_fv
    new_names = list(names)
    for i, n in enumerate(names):
        if n in repl_fv:
            fresh = fresh_name(n)
            new_names[i] = fresh
            inner[n] = S.Var(fresh)
    return tuple(new_names), inner, repl_fv


def _subst_lambda(
    lam: S.Lambda, mapping: dict[str, S.Exp], repl_fv: frozenset[str]
) -> S.Lambda:
    params, inner, fv = _freshen(lam.params, mapping, repl_fv)
    if not inner:
        return S.Lambda(params, lam.body) if params != lam.params else lam
    return S.Lambda(params, _subst(lam.body, inner, fv | frozenset(params)))


def _subst(e: S.Exp, mapping: dict[str, S.Exp], repl_fv: frozenset[str]) -> S.Exp:
    if isinstance(e, S.Var):
        return mapping.get(e.name, e)
    if isinstance(e, (S.Lit, S.SizeE, T.ParCmp)):
        return e
    if isinstance(e, S.Let):
        rhs = _subst(e.rhs, mapping, repl_fv)
        names, inner, fv = _freshen(e.names, mapping, repl_fv)
        body = _subst(e.body, inner, fv) if inner else e.body
        return S.Let(names, rhs, body)
    if isinstance(e, S.Loop):
        inits = tuple(_subst(i, mapping, repl_fv) for i in e.inits)
        bound = _subst(e.bound, mapping, repl_fv)
        binders = e.params + (e.ivar,)
        names, inner, fv = _freshen(binders, mapping, repl_fv)
        body = _subst(e.body, inner, fv) if inner else e.body
        return S.Loop(names[:-1], inits, names[-1], bound, body)
    if isinstance(e, T.SegOp):
        # context arrays are open terms; params bind progressively inward
        cur = dict(mapping)
        new_bindings = []
        for b in e.ctx:
            arrays = tuple(_subst(a, cur, repl_fv) for a in b.arrays)
            params, cur, repl_fv2 = _freshen(b.params, cur, repl_fv)
            repl_fv = repl_fv2 | frozenset(params)
            new_bindings.append(T.Binding(params, arrays, b.size))
        ctx = T.Ctx(new_bindings)
        body = _subst(e.body, cur, repl_fv) if cur else e.body
        if isinstance(e, T.SegMap):
            return T.SegMap(e.level, ctx, body)
        lam = _subst_lambda(e.lam, cur, repl_fv) if cur else e.lam
        nes = tuple(_subst(ne, cur, repl_fv) for ne in e.nes) if cur else e.nes
        cls = T.SegRed if isinstance(e, T.SegRed) else T.SegScan
        return cls(e.level, ctx, lam, nes, body)

    # generic structural case
    def sub(x: S.Exp) -> S.Exp:
        return _subst(x, mapping, repl_fv)

    if isinstance(e, S.TupleExp):
        return S.TupleExp(tuple(sub(x) for x in e.elems))
    if isinstance(e, S.BinOp):
        return S.BinOp(e.op, sub(e.x), sub(e.y))
    if isinstance(e, S.UnOp):
        return S.UnOp(e.op, sub(e.x))
    if isinstance(e, S.If):
        return S.If(sub(e.cond), sub(e.then), sub(e.els))
    if isinstance(e, S.Index):
        return S.Index(sub(e.arr), tuple(sub(i) for i in e.idxs))
    if isinstance(e, S.Iota):
        return S.Iota(sub(e.n))
    if isinstance(e, S.Replicate):
        return S.Replicate(sub(e.n), sub(e.x))
    if isinstance(e, S.Rearrange):
        return S.Rearrange(e.perm, sub(e.arr))
    if isinstance(e, S.Map):
        return S.Map(
            _subst_lambda(e.lam, mapping, repl_fv), tuple(sub(a) for a in e.arrs)
        )
    if isinstance(e, S.Reduce):
        return S.Reduce(
            _subst_lambda(e.lam, mapping, repl_fv),
            tuple(sub(n) for n in e.nes),
            tuple(sub(a) for a in e.arrs),
        )
    if isinstance(e, S.Scan):
        return S.Scan(
            _subst_lambda(e.lam, mapping, repl_fv),
            tuple(sub(n) for n in e.nes),
            tuple(sub(a) for a in e.arrs),
        )
    if isinstance(e, S.Redomap):
        return S.Redomap(
            _subst_lambda(e.red_lam, mapping, repl_fv),
            _subst_lambda(e.map_lam, mapping, repl_fv),
            tuple(sub(n) for n in e.nes),
            tuple(sub(a) for a in e.arrs),
        )
    if isinstance(e, S.Scanomap):
        return S.Scanomap(
            _subst_lambda(e.scan_lam, mapping, repl_fv),
            _subst_lambda(e.map_lam, mapping, repl_fv),
            tuple(sub(n) for n in e.nes),
            tuple(sub(a) for a in e.arrs),
        )
    if isinstance(e, S.Intrinsic):
        return S.Intrinsic(e.name, tuple(sub(a) for a in e.args))
    raise TypeError(f"substitution not implemented for {type(e).__name__}")


def map_children(e: S.Exp, f: Callable[[S.Exp], S.Exp]) -> S.Exp:
    """Rebuild ``e`` with ``f`` applied to every direct child expression.

    Lambda bodies and context arrays are children too.  Binders are left
    untouched — callers doing binder-sensitive work should use
    :func:`subst_vars` or hand-written recursion instead.
    """
    if isinstance(e, (S.Var, S.Lit, S.SizeE, T.ParCmp)):
        return e
    if isinstance(e, S.TupleExp):
        return S.TupleExp(tuple(f(x) for x in e.elems))
    if isinstance(e, S.BinOp):
        return S.BinOp(e.op, f(e.x), f(e.y))
    if isinstance(e, S.UnOp):
        return S.UnOp(e.op, f(e.x))
    if isinstance(e, S.Let):
        return S.Let(e.names, f(e.rhs), f(e.body))
    if isinstance(e, S.If):
        return S.If(f(e.cond), f(e.then), f(e.els))
    if isinstance(e, S.Index):
        return S.Index(f(e.arr), tuple(f(i) for i in e.idxs))
    if isinstance(e, S.Iota):
        return S.Iota(f(e.n))
    if isinstance(e, S.Replicate):
        return S.Replicate(f(e.n), f(e.x))
    if isinstance(e, S.Rearrange):
        return S.Rearrange(e.perm, f(e.arr))
    if isinstance(e, S.Loop):
        return S.Loop(e.params, tuple(f(i) for i in e.inits), e.ivar, f(e.bound), f(e.body))
    if isinstance(e, S.Map):
        return S.Map(S.Lambda(e.lam.params, f(e.lam.body)), tuple(f(a) for a in e.arrs))
    if isinstance(e, S.Reduce):
        return S.Reduce(
            S.Lambda(e.lam.params, f(e.lam.body)),
            tuple(f(n) for n in e.nes),
            tuple(f(a) for a in e.arrs),
        )
    if isinstance(e, S.Scan):
        return S.Scan(
            S.Lambda(e.lam.params, f(e.lam.body)),
            tuple(f(n) for n in e.nes),
            tuple(f(a) for a in e.arrs),
        )
    if isinstance(e, S.Redomap):
        return S.Redomap(
            S.Lambda(e.red_lam.params, f(e.red_lam.body)),
            S.Lambda(e.map_lam.params, f(e.map_lam.body)),
            tuple(f(n) for n in e.nes),
            tuple(f(a) for a in e.arrs),
        )
    if isinstance(e, S.Scanomap):
        return S.Scanomap(
            S.Lambda(e.scan_lam.params, f(e.scan_lam.body)),
            S.Lambda(e.map_lam.params, f(e.map_lam.body)),
            tuple(f(n) for n in e.nes),
            tuple(f(a) for a in e.arrs),
        )
    if isinstance(e, S.Intrinsic):
        return S.Intrinsic(e.name, tuple(f(a) for a in e.args))
    if isinstance(e, T.SegMap):
        return T.SegMap(e.level, _map_ctx(e.ctx, f), f(e.body))
    if isinstance(e, T.SegRed):
        return T.SegRed(
            e.level,
            _map_ctx(e.ctx, f),
            S.Lambda(e.lam.params, f(e.lam.body)),
            tuple(f(n) for n in e.nes),
            f(e.body),
        )
    if isinstance(e, T.SegScan):
        return T.SegScan(
            e.level,
            _map_ctx(e.ctx, f),
            S.Lambda(e.lam.params, f(e.lam.body)),
            tuple(f(n) for n in e.nes),
            f(e.body),
        )
    raise TypeError(f"map_children: unknown class {type(e).__name__}")


def _map_ctx(ctx: T.Ctx, f: Callable[[S.Exp], S.Exp]) -> T.Ctx:
    return T.Ctx(
        T.Binding(b.params, tuple(f(a) for a in b.arrays), b.size) for b in ctx
    )
