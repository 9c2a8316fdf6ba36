"""Type checking for source and target programs, and the level validator.

``typeof`` computes the (multi-)value type of an expression under an
environment of variable types.  It enforces the structural rules that the
flattening transformation relies on (SOAC arities, array ranks, loop
parameter stability) while being deliberately lenient about *symbolic* size
equality — two symbolic sizes that cannot be proven equal are assumed equal,
as in any size-dependent-typed compiler front-end that defers checks to run
time.  Unequal constant sizes are rejected.

``validate_levels`` checks the target language's implicit constraint
(paper §2.1): a parallel construct at level 0 contains only sequential code,
and one at level l ≥ 1 directly contains only parallel constructs at level
l − 1.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.ir import source as S
from repro.ir import target as T
from repro.ir.types import (
    BOOL,
    I64,
    ArrayType,
    ScalarType,
    Type,
    array_of,
)
from repro.sizes import SizeConst, SizeExpr, SizeVar, size_prod, size_sum

__all__ = [
    "TypeError_",
    "typeof",
    "typeof1",
    "size_of_exp",
    "validate_levels",
    "register_intrinsic_type",
    "INTRINSIC_TYPES",
]


class TypeError_(Exception):
    """A type error in a source or target program."""


#: Intrinsic name -> (arg types) -> result types.
INTRINSIC_TYPES: dict[str, Callable[[tuple[Type, ...]], tuple[Type, ...]]] = {}


def register_intrinsic_type(
    name: str, rule: Callable[[tuple[Type, ...]], tuple[Type, ...]]
) -> None:
    INTRINSIC_TYPES[name] = rule


TypeEnv = Mapping[str, Type]

_NUMERIC_ORDER = {"i32": 0, "i64": 1, "f32": 2, "f64": 3}


def _join_scalar(a: ScalarType, b: ScalarType, what: str) -> ScalarType:
    if a == b:
        return a
    if a == BOOL or b == BOOL:
        raise TypeError_(f"{what}: cannot join {a} with {b}")
    return a if _NUMERIC_ORDER[a.name] >= _NUMERIC_ORDER[b.name] else b


def size_of_exp(e: S.Exp, env: TypeEnv) -> SizeExpr:
    """Interpret an integer-typed expression as a symbolic size."""
    if isinstance(e, S.Lit):
        return SizeConst(int(e.value))
    if isinstance(e, S.SizeE):
        return e.size
    if isinstance(e, S.Var):
        return SizeVar(e.name)
    if isinstance(e, S.BinOp) and e.op == "*":
        return size_prod([size_of_exp(e.x, env), size_of_exp(e.y, env)])
    if isinstance(e, S.BinOp) and e.op == "+":
        return size_sum([size_of_exp(e.x, env), size_of_exp(e.y, env)])
    raise TypeError_(f"cannot interpret {e!r} as a symbolic size")


def _unify_size(a: SizeExpr, b: SizeExpr, what: str) -> SizeExpr:
    if a == b:
        return a
    if isinstance(a, SizeConst) and isinstance(b, SizeConst) and a.value != b.value:
        raise TypeError_(f"{what}: size mismatch {a} vs {b}")
    return a  # symbolically distinct; assumed equal (checked at run time)


def _unify(a: Type, b: Type, what: str) -> Type:
    if isinstance(a, ScalarType) and isinstance(b, ScalarType):
        return _join_scalar(a, b, what)
    if isinstance(a, ArrayType) and isinstance(b, ArrayType):
        if a.rank != b.rank:
            raise TypeError_(f"{what}: rank mismatch {a} vs {b}")
        shape = tuple(
            _unify_size(x, y, what) for x, y in zip(a.shape, b.shape)
        )
        return ArrayType(shape, _join_scalar(a.elem, b.elem, what))
    raise TypeError_(f"{what}: cannot unify {a} with {b}")


def typeof1(e: S.Exp, env: TypeEnv) -> Type:
    """Type of a single-valued expression."""
    ts = typeof(e, env)
    if len(ts) != 1:
        raise TypeError_(f"expected single value, got {len(ts)}: {e!r}")
    return ts[0]


def _array_args(
    arrs: tuple[S.Exp, ...], env: TypeEnv, what: str
) -> tuple[list[ArrayType], SizeExpr]:
    if not arrs:
        raise TypeError_(f"{what}: needs at least one array argument")
    ats: list[ArrayType] = []
    for a in arrs:
        t = typeof1(a, env)
        if not isinstance(t, ArrayType):
            raise TypeError_(f"{what}: argument {a!r} is not an array (got {t})")
        ats.append(t)
    n = ats[0].outer_size
    for t in ats[1:]:
        n = _unify_size(n, t.outer_size, what)
    return ats, n


def _check_lambda(
    lam: S.Lambda, arg_types: list[Type], env: TypeEnv, what: str
) -> tuple[Type, ...]:
    if len(lam.params) != len(arg_types):
        raise TypeError_(
            f"{what}: lambda takes {len(lam.params)} params, given {len(arg_types)}"
        )
    inner = dict(env)
    inner.update(zip(lam.params, arg_types))
    return typeof(lam.body, inner)


def _check_operator(
    lam: S.Lambda, elem_ts: list[Type], nes: tuple[S.Exp, ...], env: TypeEnv, what: str
) -> None:
    """Check an associative operator: 2k params, returns the k elem types."""
    rts = _check_lambda(lam, elem_ts + elem_ts, env, what)
    if len(rts) != len(elem_ts):
        raise TypeError_(f"{what}: operator returns {len(rts)} values, expected {len(elem_ts)}")
    for r, t in zip(rts, elem_ts):
        _unify(r, t, what)
    if len(nes) != len(elem_ts):
        raise TypeError_(f"{what}: {len(nes)} neutral elements for {len(elem_ts)} arrays")
    for ne, t in zip(nes, elem_ts):
        _unify(typeof1(ne, env), t, what)


def typeof(e: S.Exp, env: TypeEnv) -> tuple[Type, ...]:
    """Types of a (multi-valued) expression."""
    if isinstance(e, S.Var):
        try:
            return (env[e.name],)
        except KeyError:
            raise TypeError_(f"unbound variable {e.name!r}") from None
    if isinstance(e, S.Lit):
        return (e.type,)
    if isinstance(e, S.SizeE):
        return (I64,)
    if isinstance(e, S.TupleExp):
        out: list[Type] = []
        for x in e.elems:
            out.extend(typeof(x, env))
        return tuple(out)
    if isinstance(e, S.BinOp):
        tx = typeof1(e.x, env)
        ty = typeof1(e.y, env)
        if not isinstance(tx, ScalarType) or not isinstance(ty, ScalarType):
            raise TypeError_(f"binop {e.op} on non-scalars {tx}, {ty}")
        if e.op in ("&&", "||"):
            if tx != BOOL or ty != BOOL:
                raise TypeError_(f"{e.op} needs booleans")
            return (BOOL,)
        joined = _join_scalar(tx, ty, f"binop {e.op}")
        return (BOOL,) if S.BINOPS[e.op] else (joined,)
    if isinstance(e, S.UnOp):
        tx = typeof1(e.x, env)
        if not isinstance(tx, ScalarType):
            raise TypeError_(f"unop {e.op} on non-scalar {tx}")
        res = S.UNOPS[e.op]
        return (tx,) if res is None else (res,)
    if isinstance(e, S.Let):
        rts = typeof(e.rhs, env)
        if len(rts) != len(e.names):
            raise TypeError_(
                f"let binds {len(e.names)} names to {len(rts)} values"
            )
        inner = dict(env)
        inner.update(zip(e.names, rts))
        return typeof(e.body, inner)
    if isinstance(e, S.If):
        ct = typeof1(e.cond, env)
        if ct != BOOL:
            raise TypeError_(f"if condition has type {ct}, not bool")
        ts = typeof(e.then, env)
        fs = typeof(e.els, env)
        if len(ts) != len(fs):
            raise TypeError_("if branches return different arities")
        return tuple(_unify(a, b, "if") for a, b in zip(ts, fs))
    if isinstance(e, S.Index):
        at = typeof1(e.arr, env)
        if not isinstance(at, ArrayType):
            raise TypeError_(f"indexing non-array {at}")
        k = len(e.idxs)
        if k > at.rank:
            raise TypeError_(f"too many indices ({k}) for {at}")
        for i in e.idxs:
            it = typeof1(i, env)
            if not isinstance(it, ScalarType) or not it.is_integral:
                raise TypeError_(f"index of type {it}")
        if k == at.rank:
            return (at.elem,)
        return (ArrayType(at.shape[k:], at.elem),)
    if isinstance(e, S.Iota):
        return (array_of(I64, size_of_exp(e.n, env)),)
    if isinstance(e, S.Replicate):
        t = typeof1(e.x, env)
        return (array_of(t, size_of_exp(e.n, env)),)
    if isinstance(e, S.Rearrange):
        at = typeof1(e.arr, env)
        if not isinstance(at, ArrayType):
            raise TypeError_(f"rearrange of non-array {at}")
        if len(e.perm) != at.rank:
            raise TypeError_(
                f"rearrange permutation {e.perm} does not match rank {at.rank}"
            )
        return (ArrayType(tuple(at.shape[d] for d in e.perm), at.elem),)
    if isinstance(e, S.Loop):
        its = tuple(typeof1(i, env) for i in e.inits)
        bt = typeof1(e.bound, env)
        if not isinstance(bt, ScalarType) or not bt.is_integral:
            raise TypeError_(f"loop bound of type {bt}")
        inner = dict(env)
        inner.update(zip(e.params, its))
        inner[e.ivar] = I64
        bts = typeof(e.body, inner)
        if len(bts) != len(its):
            raise TypeError_("loop body arity does not match loop parameters")
        for b, i in zip(bts, its):
            _unify(b, i, "loop")
        return its
    if isinstance(e, S.Map):
        ats, n = _array_args(e.arrs, env, "map")
        rts = _check_lambda(e.lam, [t.row_type() for t in ats], env, "map")
        return tuple(array_of(t, n) for t in rts)
    if isinstance(e, S.Reduce):
        ats, _ = _array_args(e.arrs, env, "reduce")
        elem_ts = [t.row_type() for t in ats]
        _check_operator(e.lam, elem_ts, e.nes, env, "reduce")
        return tuple(elem_ts)
    if isinstance(e, S.Scan):
        ats, _ = _array_args(e.arrs, env, "scan")
        elem_ts = [t.row_type() for t in ats]
        _check_operator(e.lam, elem_ts, e.nes, env, "scan")
        return tuple(ats)
    if isinstance(e, S.Redomap):
        ats, _ = _array_args(e.arrs, env, "redomap")
        mts = list(_check_lambda(e.map_lam, [t.row_type() for t in ats], env, "redomap"))
        _check_operator(e.red_lam, mts, e.nes, env, "redomap")
        return tuple(mts)
    if isinstance(e, S.Scanomap):
        ats, n = _array_args(e.arrs, env, "scanomap")
        mts = list(
            _check_lambda(e.map_lam, [t.row_type() for t in ats], env, "scanomap")
        )
        _check_operator(e.scan_lam, mts, e.nes, env, "scanomap")
        return tuple(array_of(t, n) for t in mts)
    if isinstance(e, S.Intrinsic):
        try:
            rule = INTRINSIC_TYPES[e.name]
        except KeyError:
            raise TypeError_(f"unknown intrinsic {e.name!r}") from None
        return rule(tuple(typeof1(a, env) for a in e.args))
    if isinstance(e, T.SegOp):
        return _typeof_segop(e, env)
    if isinstance(e, T.ParCmp):
        return (BOOL,)
    raise TypeError_(f"cannot type {type(e).__name__}")


def _typeof_segop(e: T.SegOp, env: TypeEnv) -> tuple[Type, ...]:
    what = type(e).__name__.lower()
    inner = dict(env)
    dims: list[SizeExpr] = []
    for b in e.ctx:
        ats, n = _array_args(b.arrays, inner, what)
        n = _unify_size(n, b.size, what)
        dims.append(n)
        if len(b.params) != len(ats):
            raise TypeError_(f"{what}: binding arity mismatch")
        inner.update({p: t.row_type() for p, t in zip(b.params, ats)})
    bts = typeof(e.body, inner)
    if isinstance(e, T.SegMap):
        out: list[Type] = []
        for t in bts:
            for d in reversed(dims):
                t = array_of(t, d)
            out.append(t)
        return tuple(out)
    # segred/segscan: check the operator over the body value types
    _check_operator(e.lam, list(bts), e.nes, inner, what)
    wrap_dims = dims if isinstance(e, T.SegScan) else dims[:-1]
    out = []
    for t in bts:
        for d in reversed(wrap_dims):
            t = array_of(t, d)
        out.append(t)
    return tuple(out)


# ---------------------------------------------------------------------------
# Level validation (paper §2.1's implicit constraint)
# ---------------------------------------------------------------------------


def _top_segops(e: S.Exp):
    """Yield SegOps reachable without entering another SegOp's body, in
    walk order (an explicit stack, so each node is handled once)."""
    from repro.ir.traverse import push_children

    stack = [e]
    while stack:
        x = stack.pop()
        if isinstance(x, T.SegOp):
            yield x
        else:
            push_children(x, stack)


def validate_levels(e: S.Exp, max_level: int) -> None:
    """Check the target nesting constraint; raise TypeError_ on violation.

    Every parallel construct directly inside the top level must be at a level
    ≤ ``max_level``; the body of a level-l construct may directly contain
    parallel constructs only at level l − 1; level-0 bodies are sequential.
    """
    for op in _top_segops(e):
        if op.level > max_level:
            raise TypeError_(
                f"{type(op).__name__} at level {op.level} exceeds maximum {max_level}"
            )
        _validate_op(op)


def _validate_op(op: T.SegOp) -> None:
    for sub in _top_segops(op.body):
        if op.level == 0:
            raise TypeError_(
                f"level-0 {type(op).__name__} contains parallel "
                f"{type(sub).__name__} at level {sub.level}"
            )
        if sub.level != op.level - 1:
            raise TypeError_(
                f"level-{op.level} {type(op).__name__} directly contains "
                f"level-{sub.level} {type(sub).__name__} "
                f"(expected level {op.level - 1})"
            )
        _validate_op(sub)
    if isinstance(op, (T.SegRed, T.SegScan)):
        for _sub in _top_segops(op.lam.body):
            raise TypeError_(
                f"{type(op).__name__} operator contains a parallel construct"
            )
