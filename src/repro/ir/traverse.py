"""Generic AST traversal: walks, free variables, substitution, renaming,
structural fingerprints.

One child-specification table, :data:`_SPEC`, lists each node class's
children in order; every other slot of the class is a scalar field (an
operator, binder names, a level, a size).  The walkers (:func:`walk`,
:func:`push_children`), the rebuilders (:func:`map_children` and the
structural case of :func:`subst_vars`) and :func:`kernel_fingerprint` all
read it, so adding a node class means adding one table row.  A rebuild
returns a new node whose scalar slots are copied and whose children come
from the callback in table order, so fresh names are drawn in that order.

Some loops keep their own per-class shape on purpose:

* binder-aware code (:func:`_fv`, :func:`iter_scoped_children`, the
  ``Let``/``Loop``/seg-op cases of substitution, ``validate._scope``)
  must know which children each binder scopes over, which the table does
  not say; :func:`free_vars` routed through :func:`iter_scoped_children`
  ran about 30 % slower over the compiled benchmark programs;
* ``anormal._norm`` hoists a SOAC's operands before it normalises the
  lambda, and that order fixes every compiled program's fresh names;
* the read-only walkers ``versions.branching_trees``,
  ``tree.thresholds_in`` and ``tree.path_signature`` recurse over the
  table directly: rewritten over :func:`walk`/:func:`push_children`,
  ``branching_tree_hash`` (run on every checkpoint write) ran about 60 %
  slower over the same programs and ``thresholds_in`` about 30 % slower.

Substitution is capture-avoiding: binders that collide with the free
variables of the substituted expressions are freshened.
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


def _slots(cls: type) -> tuple[str, ...]:
    """Every slot of ``cls``, base classes first."""
    return tuple(
        slot for k in reversed(cls.__mro__) for slot in vars(k).get("__slots__", ())
    )


#: per class, the slots that are not children: a rebuild copies them and
#: the structural fingerprint records them, in slot order
_SCALARS: dict[type, tuple[str, ...]] = {
    cls: tuple(slot for slot in _slots(cls) if slot not in dict(spec))
    for cls, spec in _SPEC.items()
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
    spec = _spec(e)
    cls = type(e)
    parts: list = [cls.__name__]
    parts.extend(getattr(e, slot) for slot in _SCALARS[cls])
    if isinstance(e, S.Lit):
        # 1, 1.0 and True compare equal: the value's type tells them apart
        parts.insert(2, type(e.value).__name__)
    for attr, kind in spec:
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

    # every other class binds only through its lambdas
    return _rebuild(
        e,
        lambda x: _subst(x, mapping, repl_fv),
        lambda lam: _subst_lambda(lam, mapping, repl_fv),
    )


def map_children(e: S.Exp, f: Callable[[S.Exp], S.Exp]) -> S.Exp:
    """Rebuild ``e`` with ``f`` applied to every direct child expression.

    Lambda bodies and context arrays are children too.  Binders are left
    untouched — callers doing binder-sensitive work should use
    :func:`subst_vars` or hand-written recursion instead.  A node with
    children always comes back as a new node, a leaf as itself.
    """
    return _rebuild(e, f)


def _rebuild(
    e: S.Exp,
    f: Callable[[S.Exp], S.Exp],
    lam_f: Callable[[S.Lambda], S.Lambda] | None = None,
) -> S.Exp:
    """A new node of ``e``'s class with its scalar slots copied and each
    child set from ``f`` in child-specification order (each lambda from
    ``lam_f``, by default a new lambda around ``f`` of its body); a leaf
    comes back as itself."""
    spec = _spec(e)
    if not spec:
        return e
    cls = type(e)
    new = object.__new__(cls)
    for slot in _SCALARS[cls]:
        setattr(new, slot, getattr(e, slot))
    for attr, kind in spec:
        val = getattr(e, attr)
        if kind == "exp":
            val = f(val)
        elif kind == "exps":
            val = tuple([f(x) for x in val])
        elif kind == "lam":
            val = S.Lambda(val.params, f(val.body)) if lam_f is None else lam_f(val)
        else:  # ctx
            val = T.Ctx([
                T.Binding(b.params, tuple([f(a) for a in b.arrays]), b.size)
                for b in val
            ])
        setattr(new, attr, val)
    return new
