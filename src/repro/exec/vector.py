"""Vectorizing executor: compiles IR to closures over whole NumPy arrays.

The scalar interpreter (:mod:`repro.interp.evaluator`) applies lambdas one
element at a time in Python; this module compiles the same source/target IR
to Python closures that operate on the *whole* batch axis at once, in the
style of Blelloch-style flattening:

* a ``map`` folds its iteration space into one flat batch axis — binops,
  unops and casts become single broadcast array operations.  Inside a
  batch, the nested body's batched free variables are bound *by
  reference* (their array plus a lane -> row index; each read is one
  gather) where every read is ``x[i, ...]`` with a lane-varying index,
  and lane-expanded (copied to every inner lane) otherwise
  (``exec.bind.lane_mapped`` / ``exec.bind.expanded``);
* the six folds (``reduce``/``scan``, ``redomap``/``scanomap``, and the
  innermost axis of ``segred``/``segscan``) share one step loop: the
  per-element body runs once over all elements, folded into the batch
  like a nested ``map``, and only the operator steps, in the oracle's
  left-to-right order, each step a whole-array operation across all
  enclosing segments.  The body steps with the operator instead where
  the fold's arrays are all uniform while a batched variable reaches the
  body, and where its hoisted compile would need a per-lane fallback or
  raise (``exec.fold.hoisted`` / ``exec.fold.stepped``);
* ``segmap`` nests enter one batch level per context binding and the body
  is compiled once per kernel, reused across launches;
* constructs whose lanes diverge get *masked* lowerings: a batched ``if``
  with non-total branches runs each branch only on the lanes that take it,
  a batched-bound ``loop`` runs to the per-lane trip-count maximum on the
  still-active lanes, and a batched-argument intrinsic uses its registered
  whole-batch lowering (:attr:`IntrinsicDef.vector`);
* what is left — ``iota``/``replicate`` with batched extents and
  intrinsics without a ``vector`` lowering — falls back to the scalar
  oracle *per lane*, counted in ``exec.scalar_fallbacks``.

Results are bit-identical to the tree-walking oracle: both engines share
the scalar op tables' cast machinery, uniform (non-batched) computation
reuses the oracle's ``_BINOPS``/``_UNOPS`` directly, and the vector op
table mirrors oracle quirks exactly (``min``/``max`` via ``np.where`` to
match Python's ``min``/``max`` NaN behaviour, eager ``&&``/``||``,
floor-vs-true division chosen by float-ness).  ``docs/execution.md`` has
the full rule table; ``repro check`` is the proof obligation.

Static batchedness: each expression is compiled under a set ``bv`` of
environment names that are batched (carry a leading batch axis), and its
subset ``lm`` of names bound by reference, whose entries are ``(base,
rows)`` pairs.  Every compiled node reports, per returned value, whether
it is batched — a plain Python boolean decided at compile time, as ``lm``
is, so the closures contain no dynamic representation dispatch.

The environment contract: no closure writes into the ``env`` it is
given (a construct that binds names binds them in a copy), so a caller
may rebind names in one environment between calls.  The fold step loop
and a uniform-bound ``loop`` do, instead of copying a dict per step.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from typing import Callable, Mapping

import numpy as np

from repro import faults, perf
from repro.interp import intrinsics
from repro.interp.evaluator import (
    _BINOPS,
    _UNOPS,
    DEFAULT_THRESHOLD,
    Evaluator,
    InterpError,
)
from repro.interp.values import Value, to_dtype
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.traverse import iter_scoped_children, walk
from repro.obs import trace as obs

__all__ = ["VectorEvaluator"]

#: closure signature: (env, batch size | None) -> tuple of values
Closure = Callable[[dict, "int | None"], tuple]


# ---------------------------------------------------------------------------
# Vector op tables (batched operands; must match the scalar tables bitwise)
# ---------------------------------------------------------------------------


class _NeedsFallback(Exception):
    """Compile-time signal: a node's per-lane results may be irregular
    (lane-dependent shapes), so the scalar fallback must be installed at an
    enclosing construct whose output arity/shape is lane-invariant."""

    def __init__(self, construct: str):
        super().__init__(construct)
        self.construct = construct


def _isfloat(v: Value) -> bool:
    if isinstance(v, np.ndarray):
        return v.dtype.kind == "f"
    return isinstance(v, (float, np.floating))


def _vdiv(a, b):
    # the scalar table picks // vs / by operand float-ness, not declared type
    if _isfloat(a) or _isfloat(b):
        return np.true_divide(a, b)
    return np.floor_divide(a, b)


# min/max intentionally avoid np.minimum/np.maximum: Python's ``min(a, b)``
# returns ``b if b < a else a``, which differs from the NumPy ufuncs on NaNs
# and signed zeros.  ``np.where`` reproduces the oracle exactly.
_VBINOPS: dict[str, Callable] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": _vdiv,
    "%": np.mod,
    "min": lambda a, b: np.where(np.less(b, a), b, a),
    "max": lambda a, b: np.where(np.greater(b, a), b, a),
    "pow": np.power,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "&&": np.logical_and,  # eager, like the scalar table (docs/execution.md)
    "||": np.logical_or,
}

# exp/log/sqrt and the to_* casts share the scalar table's implementations,
# which operate on whole arrays as well as scalars — one cast code path for
# both engines is what makes them bit-identical.
_VUNOPS: dict[str, Callable] = {
    "neg": np.negative,
    "abs": np.abs,
    "exp": _UNOPS["exp"],
    "log": _UNOPS["log"],
    "sqrt": _UNOPS["sqrt"],
    "not": np.logical_not,
    "to_f32": _UNOPS["to_f32"],
    "to_f64": _UNOPS["to_f64"],
    "to_i32": _UNOPS["to_i32"],
    "to_i64": _UNOPS["to_i64"],
}

#: node classes that may be evaluated speculatively (both branches of a
#: batched ``if``): total, effect-free, and cannot raise on defined inputs.
#: ``pow`` is excluded below — integers to negative powers raise.
_TOTAL_NODES = (S.Var, S.Lit, S.SizeE, S.TupleExp, S.BinOp, S.UnOp, S.Let, S.If, T.ParCmp)


def _is_total(e: S.Exp) -> bool:
    for sub in walk(e):
        if not isinstance(sub, _TOTAL_NODES):
            return False
        if isinstance(sub, S.BinOp) and sub.op == "pow":
            return False
    return True


# ---------------------------------------------------------------------------
# Batch-shape helpers
# ---------------------------------------------------------------------------


def _lift(v: Value, n: int) -> np.ndarray:
    """Share a uniform value across all ``n`` lanes: a read-only view with
    stride 0 on the lane axis, over the value's own buffer."""
    a = np.asarray(v)
    if a.dtype.kind in "biufc" and a.flags.c_contiguous:
        # what np.broadcast_to builds, without its Python-level checks
        out = np.ndarray((n, *a.shape), a.dtype, a, 0, (0, *a.strides))
        out.flags.writeable = False
        return out
    return np.broadcast_to(a, (n, *a.shape))


def _expand(v: np.ndarray, m: int) -> np.ndarray:
    """Grow a batched value (n, ...) to (n*m, ...): each lane repeated m times."""
    return v.repeat(m, axis=0)


def _flatten_b(v: np.ndarray, n: int, m: int) -> np.ndarray:
    """Fold a batched array's element axis into the batch: (n, m, ...) -> (n*m, ...)."""
    return v.reshape((n * m, *v.shape[2:]))


def _tile_u(v: np.ndarray, n: int) -> np.ndarray:
    """Tile a uniform array across ``n`` lanes: (m, ...) -> (n*m, ...)."""
    a = np.asarray(v)
    return np.broadcast_to(a, (n,) + a.shape).reshape((n * a.shape[0],) + a.shape[1:])


def _elements(v, batched: bool):
    """A value's elements in step order: ``v[:, i]`` if batched, else ``v[i]``."""
    return v.swapaxes(0, 1) if batched else v


#: how a nest level binds the batched free variables of its body:
#: ``(expand, refs, compose)``, see :func:`_bind`
Binding = tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]

NO_BINDING: Binding = ((), (), ())


def _bind(env, n, m, params, arrs, aflags, how: Binding):
    """Bind ``params`` to the ``m`` elements of ``arrs`` as one batch.

    Without an enclosing batch (``n`` is None) the elements *are* the
    batch.  Inside a batch of width ``n`` the two axes fold and each
    array is reshaped (n, m, ...) -> (n*m, ...), a uniform one tiled.
    ``how`` says what happens to the body's batched free variables:
    those in ``expand`` are lane-expanded (m copies of each lane); those
    in ``refs`` are bound *by reference*, as ``(base, rows)``: the
    (n, ...) array itself and the lane -> row index ``rows``; those in
    ``compose`` are bound by reference already and get their row index
    repeated for the new axis.  Returns the new environment and its
    batch width.
    """
    env2 = dict(env)
    if n is None:
        env2.update(zip(params, arrs))
        return env2, m
    expand, refs, compose = how
    for name in expand:
        env2[name] = _expand(env2[name], m)
    if expand:
        perf.inc("exec.bind.expanded", len(expand))
    if refs:
        rows = np.repeat(np.arange(n), m)
        for name in refs:
            env2[name] = (env2[name], rows)
    if compose:
        # names bound at the same level share one row index: repeat it once
        repeated: dict[int, np.ndarray] = {}
        for name in compose:
            base, r = env2[name]
            r2 = repeated.get(id(r))
            if r2 is None:
                r2 = repeated[id(r)] = np.repeat(r, m)
            env2[name] = (base, r2)
    if refs or compose:
        perf.inc("exec.bind.lane_mapped", len(refs) + len(compose))
    for p, v, f in zip(params, arrs, aflags):
        env2[p] = _flatten_b(v, n, m) if f else _tile_u(v, n)
    return env2, n * m


def _merge_reads(out: dict, reads: Mapping) -> None:
    """Add ``reads`` (see :meth:`VectorEvaluator._reads`) into ``out``."""
    for name, keys in reads.items():
        if name not in out:
            out[name] = keys
        else:
            cur = out[name]
            out[name] = None if cur is None or keys is None else cur | keys


def _width(arrs: list, flags: list[bool]) -> int:
    """Common element count of SOAC argument arrays (mixed batched/uniform)."""
    n: int | None = None
    for a, f in zip(arrs, flags):
        w = a.shape[1] if f else len(a)
        if n is None:
            n = w
        elif w != n:
            raise InterpError("irregular SOAC arguments")
    if n is None:
        raise InterpError("SOAC without array arguments")
    return n


def _identity(body, params, aflags) -> tuple[int, ...] | None:
    """Which of a fold's arrays an identity body returns, in order: all
    of them without a body (``reduce``/``scan``); for a body that only
    returns its parameters, theirs, where the arrays are all batched or
    all uniform (so their flags are what hoisting would give).  None for
    any other body."""
    if body is None:
        return tuple(range(len(aflags)))
    elems = body.elems if isinstance(body, S.TupleExp) else (body,)
    col = {p: j for j, p in enumerate(params)}
    if len(set(aflags)) > 1 or not all(
        isinstance(x, S.Var) and x.name in col for x in elems
    ):
        return None
    return tuple(col[x.name] for x in elems)


def _index_chain(e: S.Index) -> tuple[S.Exp, tuple[S.Exp, ...]]:
    """``x[i][j]`` as ``(x, (i, j))``: indexing once with all the indices
    gathers one element per lane, where the inner read alone would gather
    a whole block per lane only for the outer one to pick from it."""
    arr, idxs = e.arr, tuple(e.idxs)
    while isinstance(arr, S.Index):
        arr, idxs = arr.arr, (*arr.idxs, *idxs)
    return arr, idxs


def _select(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-lane branch select; aligns the (n,) condition to array payloads."""
    pr = a.ndim - 1
    cc = c.reshape((c.shape[0],) + (1,) * pr) if pr else c
    return np.where(cc, a, b)


# ---------------------------------------------------------------------------
# The compiler/evaluator
# ---------------------------------------------------------------------------


class VectorEvaluator:
    """Compiles expressions to batched-NumPy closures and runs them.

    Mirrors :class:`repro.interp.evaluator.Evaluator`'s construction
    signature.  Compiled kernels are cached per ``(node, batched vars,
    by-reference vars)`` on the instance, so reusing one evaluator across
    launches (as the differential harness does across forced paths)
    compiles each kernel once; ``thresholds`` may be mutated between launches, ``sizes`` may
    not (sizes are burnt into the closures).
    """

    def __init__(
        self,
        sizes: Mapping[str, int] | None = None,
        thresholds: Mapping[str, int] | None = None,
    ):
        self.sizes = dict(sizes or {})
        self.thresholds = dict(thresholds or {})
        #: scalar oracle for per-lane fallbacks — shares our (mutable) dicts
        self.scalar = Evaluator()
        self.scalar.sizes = self.sizes
        self.scalar.thresholds = self.thresholds
        #: (id(node), relevant batched vars, those bound by reference)
        #: -> (closure, batched flags)
        self._cache: dict[tuple, tuple[Closure, tuple[bool, ...]]] = {}
        #: compile-time memos, dropped once a root is compiled: id(node)
        #: -> free variables, and -> how the node reads each name
        self._fvs: dict[int, frozenset[str]] = {}
        self._rds: dict[int, dict] = {}
        #: pinned roots: every cached node is one's subtree, so ids stay unique
        self._keep: list[object] = []
        #: per-lane fallbacks compiled in (or reused from the cache) so far,
        #: and the cache keys whose closures contain one
        self._fallback_sites = 0
        self._with_fallback: set[tuple] = set()
        self.vector_ops = 0
        self.scalar_fallbacks = 0
        self.masked_ifs = 0
        self.masked_loops = 0
        self.compiled_kernels = 0
        #: construct name -> number of per-lane fallback executions
        self.fallback_counts: Counter[str] = Counter()

    # -- public entry points ------------------------------------------------

    def eval(self, e: S.Exp, env: dict[str, Value]) -> tuple[Value, ...]:
        """Evaluate to a tuple of values (multi-value convention)."""
        key = (id(e), frozenset(), frozenset())
        if key not in self._cache:
            self._keep.append(e)
            with perf.timer("exec.compile"):
                self._compile(e, frozenset())
            self._fvs.clear()
            self._rds.clear()
        fn, _flags = self._cache[key]
        v0, f0 = self.vector_ops, self.scalar_fallbacks
        c0 = dict(self.fallback_counts)
        try:
            return fn(dict(env), None)
        finally:
            if self.vector_ops > v0:
                perf.inc("exec.vector_ops", self.vector_ops - v0)
            if self.scalar_fallbacks > f0:
                perf.inc("exec.scalar_fallbacks", self.scalar_fallbacks - f0)
            for construct, cnt in self.fallback_counts.items():
                d = cnt - c0.get(construct, 0)
                if d > 0:
                    perf.inc(f"exec.fallback.{construct}", d)

    def eval1(self, e: S.Exp, env: dict[str, Value]) -> Value:
        vs = self.eval(e, env)
        if len(vs) != 1:
            raise InterpError(f"expected one value, got {len(vs)}")
        return vs[0]

    # -- compilation core ---------------------------------------------------

    def _free(self, e: S.Exp) -> frozenset[str]:
        """Free variables of ``e``, memoised per node bottom-up, so a
        compile computes each subtree's set once."""
        fv = self._fvs.get(id(e))
        if fv is None:
            if isinstance(e, S.Var):
                fv = frozenset((e.name,))
            else:
                fv = frozenset()
                for child, binders in iter_scoped_children(e):
                    sub = self._free(child)
                    fv = fv | (sub - binders if binders else sub)
            self._fvs[id(e)] = fv
        return fv

    def _free_lambda(self, lam: S.Lambda) -> frozenset[str]:
        fv = self._fvs.get(id(lam))
        if fv is None:
            fv = self._fvs[id(lam)] = self._free(lam.body) - frozenset(lam.params)
        return fv

    def _reads(self, e: S.Exp) -> dict:
        """How ``e`` reads each name it mentions, memoised per node.

        A name maps to the set of its reads' *index keys* when every read
        is the array of an ``Index`` (one key per read: the free variables
        of its indices), and to None where some read is not (a bare use,
        or the array of a rearrange, an argument, ...) or ``e`` rebinds
        the name.
        """
        hit = self._rds.get(id(e))
        if hit is not None:
            return hit
        if isinstance(e, S.Var):
            out: dict = {e.name: None}
        else:
            out = {}
            arr = e.arr if isinstance(e, S.Index) and isinstance(e.arr, S.Var) else None
            for child, binders in iter_scoped_children(e):
                if child is not arr:
                    _merge_reads(out, self._reads(child))
                for name in binders:
                    out[name] = None
            if arr is not None:
                key = frozenset().union(*[self._free(i) for i in e.idxs])
                _merge_reads(out, {arr.name: frozenset([key])})
        self._rds[id(e)] = out
        return out

    @staticmethod
    def _plan_bind(outer, lm, reads: Callable[[], Mapping], uniform) -> Binding:
        """Split the batched free variables ``outer`` of a nested body.

        Those bound by reference already (``lm``) compose their row
        index.  Of the others, a name binds by reference when ``reads()``
        (the body's :meth:`_reads`) shows every read of it is ``x[i, ...]``
        with a lane-varying index (one that mentions a name outside
        ``uniform``); the rest, read at constant indices, used outside an
        ``Index`` or rebound, are lane-expanded: each step then reads a
        view of the one copy, where a gather would copy the value again.
        """
        refs = []
        expand = []
        rest = outer - lm
        rd = reads() if rest else {}
        for name in sorted(rest):
            keys = rd.get(name)
            if keys and all(k - uniform for k in keys):
                refs.append(name)
            else:
                expand.append(name)
        return tuple(expand), tuple(refs), tuple(sorted(outer & lm))

    def _compile(self, e: S.Exp, bv: frozenset[str], lm: frozenset[str] = frozenset()):
        bv = frozenset(bv) & self._free(e)
        if lm:
            lm = frozenset(lm) & bv
        key = (id(e), bv, lm)
        hit = self._cache.get(key)
        if hit is None:
            sites = self._fallback_sites
            hit = self._cache[key] = self._c(e, bv, lm)
            if self._fallback_sites != sites:
                self._with_fallback.add(key)
        elif key in self._with_fallback:
            self._fallback_sites += 1  # a cached closure brings its fallback
        return hit

    def _c1(self, e: S.Exp, bv: frozenset[str], lm: frozenset[str]) -> tuple[Closure, bool]:
        fn, flags = self._compile(e, bv, lm)
        if len(flags) != 1:
            raise InterpError(f"expected one value, got {len(flags)}")
        return fn, flags[0]

    def _kernel(self) -> None:
        self.compiled_kernels += 1
        perf.inc("exec.compile")

    # -- dispatch -----------------------------------------------------------

    def _c(self, e: S.Exp, bv: frozenset[str], lm: frozenset[str]):
        if isinstance(e, S.Var):
            name = e.name

            def fn_var(env, n):
                try:
                    return (env[name],)
                except KeyError:
                    raise InterpError(f"unbound variable {name!r}") from None

            return fn_var, (name in bv,)
        if isinstance(e, S.Lit):
            val = to_dtype(e.type).type(e.value)
            return (lambda env, n: (val,)), (False,)
        if isinstance(e, S.SizeE):
            sval = np.int64(e.size.eval(self.sizes))
            return (lambda env, n: (sval,)), (False,)
        if isinstance(e, T.ParCmp):
            par = e.par.eval(self.sizes)
            tname = e.threshold

            def fn_cmp(env, n):
                return (bool(par >= self.thresholds.get(tname, DEFAULT_THRESHOLD)),)

            return fn_cmp, (False,)
        if isinstance(e, S.TupleExp):
            subs = [self._compile(x, bv, lm) for x in e.elems]
            flags = tuple(f for _, fl in subs for f in fl)

            def fn_tup(env, n):
                out: list[Value] = []
                for sfn, _ in subs:
                    out.extend(sfn(env, n))
                return tuple(out)

            return fn_tup, flags
        if isinstance(e, S.BinOp):
            return self._c_binop(e, bv, lm)
        if isinstance(e, S.UnOp):
            return self._c_unop(e, bv, lm)
        if isinstance(e, S.Let):
            return self._c_let(e, bv, lm)
        if isinstance(e, S.If):
            return self._c_if(e, bv, lm)
        if isinstance(e, S.Index):
            return self._c_index(e, bv, lm)
        if isinstance(e, S.Iota):
            return self._c_iota(e, bv, lm)
        if isinstance(e, S.Replicate):
            return self._c_replicate(e, bv, lm)
        if isinstance(e, S.Rearrange):
            return self._c_rearrange(e, bv, lm)
        if isinstance(e, S.Loop):
            return self._c_loop(e, bv, lm)
        if isinstance(e, S.Map):
            return self._guarded(
                e, bv, lm,
                lambda: len(self._compile(e.lam.body, frozenset())[1]),
                lambda: self._c_map(e, bv, lm),
            )
        if isinstance(e, (S.Reduce, S.Scan, S.Redomap, S.Scanomap)):
            return self._guarded(
                e, bv, lm, lambda: len(e.nes), lambda: self._c_fold(e, bv, lm)
            )
        if isinstance(e, S.Intrinsic):
            return self._c_intrinsic(e, bv, lm)
        if isinstance(e, T.SegMap):
            return self._fault_guarded(self._guarded(
                e, bv, lm,
                lambda: len(self._compile(e.body, frozenset())[1]),
                lambda: self._c_segmap(e, bv, lm),
            ))
        if isinstance(e, (T.SegRed, T.SegScan)):
            return self._fault_guarded(self._guarded(
                e, bv, lm, lambda: len(e.nes),
                lambda: self._c_segfold(e, bv, lm),
            ))
        raise InterpError(f"cannot evaluate {type(e).__name__}")

    # -- scalar-shaped nodes --------------------------------------------------

    def _c_binop(self, e: S.BinOp, bv, lm):
        fx, bx = self._c1(e.x, bv, lm)
        fy, by = self._c1(e.y, bv, lm)
        if not (bx or by):
            op = _BINOPS[e.op]
            return (lambda env, n: (op(fx(env, n)[0], fy(env, n)[0]),)), (False,)
        vop = _VBINOPS[e.op]

        def fn(env, n):
            self.vector_ops += 1
            return (vop(fx(env, n)[0], fy(env, n)[0]),)

        return fn, (True,)

    def _c_unop(self, e: S.UnOp, bv, lm):
        fx, bx = self._c1(e.x, bv, lm)
        if not bx:
            op = _UNOPS[e.op]
            return (lambda env, n: (op(fx(env, n)[0]),)), (False,)
        vop = _VUNOPS[e.op]

        def fn(env, n):
            self.vector_ops += 1
            return (vop(fx(env, n)[0]),)

        return fn, (True,)

    def _c_let(self, e: S.Let, bv, lm):
        frhs, rflags = self._compile(e.rhs, bv, lm)
        if len(rflags) != len(e.names):
            raise InterpError(
                f"let arity mismatch: {len(e.names)} names, {len(rflags)} values"
            )
        body_bv = (bv - set(e.names)) | {nm for nm, f in zip(e.names, rflags) if f}
        fbody, bflags = self._compile(e.body, frozenset(body_bv), lm - set(e.names))
        names = e.names

        def fn(env, n):
            vals = frhs(env, n)
            env2 = dict(env)
            env2.update(zip(names, vals))
            return fbody(env2, n)

        return fn, bflags

    def _c_if(self, e: S.If, bv, lm):
        fc, bc = self._c1(e.cond, bv, lm)
        ft, tfl = self._compile(e.then, bv, lm)
        fe, efl = self._compile(e.els, bv, lm)
        if len(tfl) != len(efl):
            raise InterpError("if branch arity mismatch")
        if not bc:
            flags = tuple(a or b for a, b in zip(tfl, efl))
            # per branch, which values to lift, or None where none need it
            tlift = [f and not sf for f, sf in zip(flags, tfl)]
            elift = [f and not sf for f, sf in zip(flags, efl)]
            tlift = tlift if any(tlift) else None
            elift = elift if any(elift) else None

            def fn_u(env, n):
                taken, lift = (ft, tlift) if fc(env, n)[0] else (fe, elift)
                vals = taken(env, n)
                if lift is None:
                    return vals
                return tuple(_lift(v, n) if lf else v for v, lf in zip(vals, lift))

            return fn_u, flags
        if not (_is_total(e.then) and _is_total(e.els)):
            return self._c_masked_if(e, bv, lm, fc, (ft, tfl), (fe, efl))

        def fn_b(env, n):
            c = fc(env, n)[0]
            # speculative: both branches run on every lane; suppress the
            # warnings the oracle (which runs only the taken branch) avoids
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                tv = ft(env, n)
                ev = fe(env, n)
            self.vector_ops += 1
            out = []
            for (a, af), (b, bf) in zip(zip(tv, tfl), zip(ev, efl)):
                a2 = np.asarray(a) if af else _lift(a, c.shape[0])
                b2 = np.asarray(b) if bf else _lift(b, c.shape[0])
                out.append(_select(c, a2, b2))
            return tuple(out)

        return fn_b, (True,) * len(tfl)

    def _c_masked_if(self, e: S.If, bv, lm, fc, then, els):
        """Masked two-sided evaluation of a batched ``if`` whose branches
        may raise: lanes are partitioned by the condition, each branch runs
        only on its own lanes (batched free variables compressed by the
        mask, a by-reference one's row index instead), and the partial
        results scatter back into one output."""
        fv = self._free(e.then) | self._free(e.els)
        fvs = sorted(fv & (bv - lm))
        lvs = sorted(fv & lm)
        self._kernel()
        arity = len(then[1])

        def fn(env, n):
            c = np.asarray(fc(env, n)[0], dtype=bool)
            w = c.shape[0]
            self.vector_ops += 1
            self.masked_ifs += 1
            perf.inc("exec.masked_if")
            with obs.span("exec.masked", cat="exec", construct="if", lanes=w):
                parts = []
                for mask, (fbr, fl) in ((c, then), (~c, els)):
                    cnt = int(mask.sum())
                    if cnt == 0:
                        parts.append(None)
                        continue
                    if cnt == w:
                        sub = env
                    else:
                        sub = dict(env)
                        for k in fvs:
                            if k in sub:
                                sub[k] = np.asarray(sub[k])[mask]
                        for k in lvs:
                            base, rows = sub[k]
                            sub[k] = (base, rows[mask])
                    vals = fbr(sub, cnt)
                    parts.append([
                        np.asarray(v) if f else np.asarray(_lift(v, cnt))
                        for v, f in zip(vals, fl)
                    ])
                tv, evs = parts
                if tv is None:
                    return tuple(evs)
                if evs is None:
                    return tuple(tv)
                out = []
                for j in range(arity):
                    a, b = tv[j], evs[j]
                    # the oracle's per-lane restack promotes mixed branch
                    # dtypes; allocate at the same promoted dtype
                    res = np.empty((w,) + a.shape[1:], dtype=np.result_type(a, b))
                    res[c] = a
                    res[~c] = b
                    out.append(res)
                return tuple(out)

        return fn, (True,) * arity

    def _c_index(self, e: S.Index, bv, lm):
        arr, idxs = _index_chain(e)
        fidx = [self._c1(i, bv, lm) for i in idxs]
        iflags = [f for _, f in fidx]
        if isinstance(arr, S.Var) and arr.name in lm:
            # bound by reference: one gather through the lanes' rows
            name = arr.name

            def fn_rows(env, n):
                base, rows = env[name]
                ivals = [f(env, n)[0] for f, _ in fidx]
                self.vector_ops += 1
                return (base[(rows,) + tuple(
                    v if fl else int(v) for v, fl in zip(ivals, iflags)
                )],)

            return fn_rows, (True,)
        fa, ba = self._c1(arr, bv, lm)
        if not ba and not any(iflags):

            def fn_u(env, n):
                arr = fa(env, n)[0]
                idxs = tuple(int(f(env, n)[0]) for f, _ in fidx)
                return (arr[idxs],)

            return fn_u, (False,)

        def fn_b(env, n):
            arr = fa(env, n)[0]
            ivals = [f(env, n)[0] for f, _ in fidx]
            self.vector_ops += 1
            if ba:
                if any(iflags):
                    parts = (np.arange(np.shape(arr)[0]),) + tuple(
                        v if fl else int(v) for v, fl in zip(ivals, iflags)
                    )
                else:
                    parts = (slice(None),) + tuple(int(v) for v in ivals)
            else:
                parts = tuple(v if fl else int(v) for v, fl in zip(ivals, iflags))
            return (arr[parts],)

        return fn_b, (True,)

    def _c_iota(self, e: S.Iota, bv, lm):
        fnn, bn = self._c1(e.n, bv, lm)
        if bn:
            # lane-dependent length: irregular, restacking is impossible
            # here — punt to the nearest enclosing fixed-arity construct
            raise _NeedsFallback("iota")
        return (lambda env, n: (np.arange(int(fnn(env, n)[0]), dtype=np.int64),)), (False,)

    def _c_replicate(self, e: S.Replicate, bv, lm):
        fnn, bn = self._c1(e.n, bv, lm)
        fx, bx = self._c1(e.x, bv, lm)
        if bn:
            raise _NeedsFallback("replicate")
        if not bx:

            def fn_u(env, n):
                m = int(fnn(env, n)[0])
                x = fx(env, n)[0]
                if isinstance(x, np.ndarray):
                    return (np.broadcast_to(x, (m,) + x.shape).copy(),)
                return (np.full(m, x),)

            return fn_u, (False,)

        def fn_b(env, n):
            m = int(fnn(env, n)[0])
            v = np.asarray(fx(env, n)[0])
            self.vector_ops += 1
            return (np.broadcast_to(v[:, None], (v.shape[0], m) + v.shape[1:]),)

        return fn_b, (True,)

    def _c_rearrange(self, e: S.Rearrange, bv, lm):
        fa, ba = self._c1(e.arr, bv, lm)
        if not ba:
            perm = e.perm
            return (lambda env, n: (np.transpose(fa(env, n)[0], perm),)), (False,)
        bperm = (0,) + tuple(d + 1 for d in e.perm)

        def fn(env, n):
            self.vector_ops += 1
            return (np.transpose(fa(env, n)[0], bperm),)

        return fn, (True,)

    def _c_loop(self, e: S.Loop, bv, lm):
        fb, bflag = self._c1(e.bound, bv, lm)
        if bflag:
            return self._c_masked_loop(e, bv, lm, fb)
        finits = [self._c1(i, bv, lm) for i in e.inits]
        initflags = [f for _, f in finits]
        flags = list(initflags)
        base_bv = (bv - set(e.params)) - {e.ivar}
        body_lm = lm & base_bv
        while True:
            body_bv = frozenset(base_bv | {p for p, f in zip(e.params, flags) if f})
            fbody, rflags = self._compile(e.body, body_bv, body_lm)
            if len(rflags) != len(e.params):
                raise InterpError("loop body arity mismatch")
            new = [a or b for a, b in zip(flags, rflags)]
            if new == flags:
                break
            flags = new
        params, ivar = e.params, e.ivar
        lift_init = [f and not f0 for f, f0 in zip(flags, initflags)]
        lift_step = [f and not rf for f, rf in zip(flags, rflags)]
        relift = any(lift_step)

        def fn(env, n):
            vals = [f(env, n)[0] for f, _ in finits]
            if any(lift_init):
                vals = [_lift(v, n) if lf else v for v, lf in zip(vals, lift_init)]
            bound = int(fb(env, n)[0])
            # one environment for all trips, rebound in place: no closure
            # writes into the env it is given (docs/execution.md)
            env2 = dict(env)
            for it in range(bound):
                env2.update(zip(params, vals))
                env2[ivar] = np.int64(it)
                vals = fbody(env2, n)
                if relift:
                    vals = [_lift(v, n) if lf else v for v, lf in zip(vals, lift_step)]
            return tuple(vals)

        return fn, tuple(flags)

    def _c_masked_loop(self, e: S.Loop, bv, lm, fb):
        """Max-trip masked iteration of a batched-bound ``loop``: every
        accumulator is lifted to a writable batched array, and each trip
        runs the body on the still-active lanes (``bounds > it``) only,
        scattering the updates back."""
        finits = [self._c1(i, bv, lm) for i in e.inits]
        # lanes run different trip counts, so every accumulator diverges:
        # force them all batched and compile the body once at that width
        base_bv = (bv - set(e.params)) - {e.ivar}
        body_lm = lm & base_bv
        fbody, rflags = self._compile(
            e.body, frozenset(base_bv | set(e.params)), body_lm
        )
        if len(rflags) != len(e.params):
            raise InterpError("loop body arity mismatch")
        fvs = sorted((self._free(e.body) - set(e.params) - {e.ivar}) & (bv - lm))
        lvs = sorted(self._free(e.body) & body_lm)
        self._kernel()
        params, ivar = e.params, e.ivar

        def fn(env, n):
            bounds = np.asarray(fb(env, n)[0])
            if bounds.dtype.kind != "i":
                bounds = bounds.astype(np.int64)
            w = bounds.shape[0]
            self.vector_ops += 1
            self.masked_loops += 1
            perf.inc("exec.masked_loop")
            vals = [
                np.array(np.asarray(v) if f else _lift(v, w))
                for v, f in [(f(env, n)[0], fl) for f, fl in finits]
            ]
            maxb = int(bounds.max()) if w else 0
            with obs.span(
                "exec.masked", cat="exec", construct="loop", lanes=w, max_trips=maxb
            ):
                for it in range(maxb):
                    active = bounds > it
                    cnt = int(active.sum())
                    if cnt == 0:
                        break
                    if cnt == w:
                        env2 = dict(env)
                        env2.update(zip(params, vals))
                        env2[ivar] = np.int64(it)
                        out = fbody(env2, w)
                        vals = [
                            np.array(np.asarray(v) if rf else _lift(v, w))
                            for v, rf in zip(out, rflags)
                        ]
                        continue
                    env2 = dict(env)
                    for k in fvs:
                        if k in env2:
                            env2[k] = np.asarray(env2[k])[active]
                    for k in lvs:
                        base, rows = env2[k]
                        env2[k] = (base, rows[active])
                    for p, a in zip(params, vals):
                        env2[p] = a[active]
                    env2[ivar] = np.int64(it)
                    out = fbody(env2, cnt)
                    for j, (v, rf) in enumerate(zip(out, rflags)):
                        upd = np.asarray(v) if rf else np.asarray(_lift(v, cnt))
                        tgt = vals[j]
                        if tgt.dtype != upd.dtype:
                            # per-lane dtype drift: promote like np.stack
                            # over mixed lanes would (the oracle's restack)
                            tgt = vals[j] = tgt.astype(
                                np.result_type(tgt.dtype, upd.dtype)
                            )
                        tgt[active] = upd
            return tuple(vals)

        return fn, (True,) * len(e.params)

    def _c_intrinsic(self, e: S.Intrinsic, bv, lm):
        fargs = [self._c1(a, bv, lm) for a in e.args]
        aflags = [f for _, f in fargs]
        batched = any(aflags)
        defn = intrinsics.get(e.name)
        if batched:
            if defn.vector is None:
                return self._c_fallback(e, bv, lm, 1, f"intrinsic:{e.name}")
            self._kernel()

        def fn(env, n):
            args = [f(env, n)[0] for f, _ in fargs]
            if batched:
                # the intrinsic's registered whole-batch lowering
                self.vector_ops += 1
                perf.inc("exec.intrinsic")
                out = defn.vector(args, aflags)
            else:
                out = defn.interp(*args)
            out = out if isinstance(out, tuple) else (out,)
            if len(out) != 1:
                raise InterpError(
                    f"multi-value intrinsic {e.name!r} not supported by the vector engine"
                )
            return out

        return fn, (batched,)

    # -- per-lane scalar fallback ---------------------------------------------

    @staticmethod
    def _fault_guarded(compiled):
        """Wrap a compiled seg-op closure (a "kernel launch") with the fault
        boundary: checked at *call* time — compiled closures are cached, so
        a plan activated after compilation still injects — with bounded
        transient retry via the plan's policy.  Without an active plan the
        kernel is called directly."""
        fn, flags = compiled

        def guarded(env, n, _inject=faults.inject):
            if _inject._INJECTOR is None:
                return fn(env, n)
            return faults.retrying("exec.kernel", lambda: fn(env, n))

        return guarded, flags

    def _guarded(self, e: S.Exp, bv, lm, arity_fn, compile_fn):
        """Compile via ``compile_fn``; on :class:`_NeedsFallback` (a nested
        construct whose per-lane results may be irregular, e.g. ``iota``
        with a batched extent) fall back to the scalar oracle at *this*
        node, whose arity ``arity_fn()`` is statically known."""
        try:
            return compile_fn()
        except _NeedsFallback as nf:
            if not bv:
                # this construct starts the batch itself: per-lane results
                # are irregular and cannot be restacked (the scalar oracle
                # rejects these too)
                raise InterpError(
                    f"irregular nested parallelism: {nf.construct} with "
                    "batched extent"
                ) from None
            return self._c_fallback(e, bv, lm, arity_fn(), nf.construct)

    def _c_fallback(self, e: S.Exp, bv, lm, arity: int, construct: str):
        """Run ``e`` through the scalar oracle once per lane and restack."""
        self._kernel()
        self._fallback_sites += 1
        fv = sorted(self._free(e) - lm)
        bvset = set(bv)
        lvs = sorted(self._free(e) & lm)
        scalar = self.scalar

        def fn(env, n):
            self.scalar_fallbacks += 1
            self.fallback_counts[construct] += 1
            with obs.span(
                "exec.fallback", cat="exec", construct=construct, lanes=n, fallback=True
            ):
                refs = [(k, *env[k]) for k in lvs]
                lanes = []
                for i in range(n):
                    env_i = {
                        k: (env[k][i] if k in bvset else env[k])
                        for k in fv
                        if k in env
                    }
                    for k, base, rows in refs:
                        env_i[k] = base[rows[i]]
                    row = scalar._eval(e, env_i)
                    if len(row) != arity:
                        raise InterpError(
                            f"fallback arity mismatch: {len(row)} vs {arity}"
                        )
                    lanes.append(row)
                return tuple(
                    np.stack([r[j] for r in lanes]) for j in range(arity)
                )

        return fn, (True,) * arity

    # -- map ------------------------------------------------------------------

    def _c_map(self, e: S.Map, bv, lm):
        lam = e.lam
        if len(lam.params) != len(e.arrs):
            raise InterpError("lambda arity mismatch")
        farrs = [self._c1(a, bv, lm) for a in e.arrs]
        aflags = [f for _, f in farrs]
        lam_fv = self._free_lambda(lam)
        outer = frozenset(bv & lam_fv)
        self._kernel()
        if not outer and not any(aflags):
            # fresh batch: the map itself becomes the batch axis
            fbody, bflags = self._compile(lam.body, frozenset(lam.params))
            params = lam.params

            def fn_u(env, n):
                arrs = [f(env, n)[0] for f, _ in farrs]
                m = _width(arrs, aflags)
                if m == 0:
                    raise InterpError("map over empty array (shape not inferable)")
                env2, _ = _bind(env, None, m, params, arrs, aflags, NO_BINDING)
                with obs.span("exec.kernel", cat="exec", construct="map", batch=1, width=m):
                    vals = fbody(env2, m)
                return tuple(
                    np.asarray(v) if f else _lift(v, m) for v, f in zip(vals, bflags)
                )

            return fn_u, (False,) * len(bflags)
        # fold the map's axis into the enclosing batch: (n, m, ...) -> (n*m, ...)
        how = self._plan_bind(outer, lm, lambda: self._reads(lam.body), lam_fv - bv)
        lanes = list(how[1] + how[2])
        fbody, bflags = self._compile(
            lam.body, outer | frozenset(lam.params), frozenset(lanes)
        )
        params = lam.params

        def fn_b(env, n):
            arrs = [f(env, n)[0] for f, _ in farrs]
            m = _width(arrs, aflags)
            if m == 0:
                raise InterpError("map over empty array (shape not inferable)")
            env2, big = _bind(env, n, m, params, arrs, aflags, how)
            with obs.span(
                "exec.kernel", cat="exec", construct="map", batch=n, width=m
            ) as sp:
                if lanes:
                    sp["lane_mapped"] = lanes
                vals = fbody(env2, big)
            out = []
            for v, f in zip(vals, bflags):
                a = np.asarray(v) if f else _lift(v, big)
                out.append(a.reshape((n, m) + a.shape[1:]))
            return tuple(out)

        return fn_b, (True,) * len(bflags)

    # -- the fold step loop ----------------------------------------------------

    def _compile_operator(self, lam, bv, lm, accflags, valflags):
        """Compile a fold operator to a fixpoint over accumulator batchedness."""
        if len(lam.params) != len(accflags) + len(valflags):
            raise InterpError("lambda arity mismatch")
        lam_fv = self._free_lambda(lam)
        lam_lm = lm & lam_fv
        accflags = list(accflags)
        while True:
            lam_bv = frozenset(
                (bv & lam_fv)
                | {p for p, f in zip(lam.params, accflags + list(valflags)) if f}
            )
            flam, rflags = self._compile(lam.body, lam_bv, lam_lm)
            if len(rflags) != len(accflags):
                raise InterpError("lambda arity mismatch")
            new = [a or b for a, b in zip(accflags, rflags)]
            if new == accflags:
                break
            accflags = new
        return flam, accflags, list(rflags)

    def _compile_hoisted(self, body: S.Exp, hbv: frozenset[str], hlm: frozenset[str]):
        """``body`` compiled with its element parameters batched, or None
        where that compile would raise or need a per-lane fallback."""
        sites = self._fallback_sites
        try:
            hit = self._compile(body, hbv, hlm)
        except (_NeedsFallback, InterpError):
            hit = None
        if self._fallback_sites == sites:
            return hit
        # the thrown-away compile's fallbacks are not in the fold: a
        # closure cached under its keys counts its own on reuse
        self._fallback_sites = sites
        return None

    def _c_steps(
        self, bv, lm, arrs, params, body, nes, lam, scan: bool, empty_msg: str
    ):
        """The step loop of all six fold constructs, compiled under ``bv``.

        ``body`` maps one element of ``arrs`` (bound to ``params``) to the
        operator's value arguments; ``None`` is the identity (``reduce`` /
        ``scan``).  It *hoists* the body where it can: compiled with
        the element parameters batched, it runs once over all ``m``
        elements, bound as :meth:`_c_map` binds a nested map, and only the
        operator runs per step, strictly left to right.  A body that only
        returns its parameters, over arrays all batched or all uniform, is
        the identity too: its steps are read off the arrays, with no bind
        and no body call.  The body keeps *stepping* (one run per step, at
        the fold's own width) where the fold's arrays are all uniform while
        a batched variable reaches the body, and where its hoisted compile
        would raise or need a per-lane fallback.  All of it is decided
        here, at compile time.

        Returns ``(run, accflags, lanes)``: ``run(env, n, sp)`` folds at
        width ``n``, labels the kernel span ``sp``, and returns the
        accumulators, or a scan's rows stacked along the element axis;
        ``lanes`` are the names the hoisted body binds by reference.
        The operator runs in one environment per launch, its parameters
        rebound in place on each step: no compiled closure writes into the
        environment it is given (``docs/execution.md``).
        """
        farrs = [self._c1(a, bv, lm) for a in arrs]
        aflags = [f for _, f in farrs]
        fnes = [self._c1(x, bv, lm) for x in nes]
        nesflags = [f for _, f in fnes]
        if body is not None and len(params) != len(arrs):
            raise InterpError("lambda arity mismatch")
        hoist = step = None
        how = NO_BINDING
        fresh = False
        # the columns of ``arrs`` an identity body returns, in order
        ident = _identity(body, params, aflags)
        if ident is not None:
            valflags = [aflags[j] for j in ident]
        else:
            # batched free variables of the body, bound when it hoists
            body_fv = self._free(body) - set(params)
            outer = bv & body_fv
            # nothing batched reaches the body: the elements are the batch
            fresh = not outer and not any(aflags)
            # a fold over uniform arrays inside a batch steps: per step its
            # element is one value shared by all lanes, where hoisting would
            # tile the elements across the lanes and bind each batched free
            # variable once per element
            if any(aflags) or not outer:
                how = self._plan_bind(
                    outer, lm, lambda: self._reads(body), body_fv - bv
                )
                hoist = self._compile_hoisted(
                    body, outer | frozenset(params), frozenset(how[1] + how[2])
                )
            if hoist is None:
                how = NO_BINDING
                step = self._compile(
                    body,
                    (bv - set(params)) | {p for p, f in zip(params, aflags) if f},
                    lm - set(params),
                )
                valflags = list(step[1])
            else:
                # a fresh batch's rows are uniform across the fold's lanes
                valflags = [False] * len(hoist[1]) if fresh else list(hoist[1])
        lanes = list(how[1] + how[2])
        flam, accflags, rflags = self._compile_operator(
            lam, bv, lm, nesflags, valflags
        )
        oparams = lam.params
        op_fv = sorted(self._free_lambda(lam))
        lift_ne = [f and not f0 for f, f0 in zip(accflags, nesflags)]
        lift_ne = lift_ne if any(lift_ne) else None
        lift_step = [f and not rf for f, rf in zip(accflags, rflags)]
        relift = any(lift_step)
        body_fv = sorted(self._free(body) - set(params)) if step is not None else []
        mode = "hoisted" if step is None else "stepped"
        counter = f"exec.fold.{mode}"

        def hoisted(env, n, m, arrs):
            """Run the body once over all elements; each step's values."""
            if ident is not None:
                cols = [_elements(arrs[j], aflags[j]) for j in ident]
            elif m == 0:
                return iter(())
            else:
                fbody, hflags = hoist
                env2, big = _bind(
                    env, None if fresh else n, m, params, arrs, aflags, how
                )
                cols = []
                for v, hf in zip(fbody(env2, big), hflags):
                    if not hf:
                        cols.append(itertools.repeat(v, m))
                    elif fresh:
                        cols.append(np.asarray(v))
                    else:
                        a = np.asarray(v)
                        cols.append(_elements(a.reshape((n, m) + a.shape[1:]), True))
            return zip(*cols) if cols else itertools.repeat((), m)

        def stepped(env, n, arrs):
            """Run the body once per step, at the fold's width; each
            step's values."""
            fstep = step[0]
            benv = {k: env[k] for k in body_fv if k in env}
            for elems in zip(*[_elements(a, f) for a, f in zip(arrs, aflags)]):
                benv.update(zip(params, elems))
                yield fstep(benv, n)

        def run(env, n, sp):
            arrs = [f(env, n)[0] for f, _ in farrs]
            m = _width(arrs, aflags)
            if scan and m == 0:
                raise InterpError(empty_msg)
            acc = tuple([f(env, n)[0] for f, _ in fnes])
            if lift_ne is not None:
                acc = tuple([_lift(v, n) if lf else v for v, lf in zip(acc, lift_ne)])
            steps = hoisted(env, n, m, arrs) if step is None else stepped(env, n, arrs)
            sp["steps"] = m
            sp["fold"] = mode
            perf.inc(counter)
            oenv = {k: env[k] for k in op_fv if k in env}
            rows: list[tuple] = []
            for vals in steps:
                oenv.update(zip(oparams, acc + vals))
                acc = flam(oenv, n)
                if relift:
                    acc = tuple([_lift(v, n) if lf else v for v, lf in zip(acc, lift_step)])
                if scan:
                    rows.append(acc)
            if not scan:
                return tuple(acc)
            # one C call per accumulator; a batched one's rows stack on the
            # element axis, (m, n, ...) -> (n, m, ...) as a view
            out = []
            for j, f in enumerate(accflags):
                a = np.array([r[j] for r in rows])
                out.append(a.swapaxes(0, 1) if f else a)
            return tuple(out)

        return run, accflags, lanes

    def _c_fold(self, e, bv, lm):
        """``reduce``/``scan`` (the identity body) and ``redomap``/``scanomap``."""
        scan = isinstance(e, (S.Scan, S.Scanomap))
        if isinstance(e, (S.Reduce, S.Scan)):
            construct = "scan" if scan else "reduce"
            params, body, lam = (), None, e.lam
        else:
            construct = "scanomap" if scan else "redomap"
            params, body = e.map_lam.params, e.map_lam.body
            lam = e.scan_lam if scan else e.red_lam
        run, accflags, lanes = self._c_steps(
            bv, lm, e.arrs, params, body, e.nes, lam, scan,
            f"{construct} over empty array",
        )
        self._kernel()

        def fn(env, n):
            with obs.span(
                "exec.kernel", cat="exec", construct=construct, batch=n or 1
            ) as sp:
                if lanes:
                    sp["lane_mapped"] = lanes
                return run(env, n, sp)

        return fn, tuple(accflags)

    # -- segmented operations --------------------------------------------------

    def _compile_nest(self, bindings, bv, lm, tail_fvs, tail_reads, uniform):
        """Compile a mapnest context prefix into per-level entry plans.

        ``tail_fvs`` are the free variables referenced after all of
        ``bindings`` (body, operator, neutral elements), and
        ``tail_reads()`` how they are read (:meth:`_reads`); every level
        must keep them addressable, binding batched ones as the batch
        grows (:meth:`_plan_bind`, with ``uniform`` the names free at the
        nest that are not batched).  Returns the plans and the batched and
        by-reference names after the last level.
        """
        rems: list[frozenset[str]] = [frozenset()] * len(bindings)
        rem = frozenset(tail_fvs)
        for k in reversed(range(len(bindings))):
            rems[k] = rem
            for arr in bindings[k].arrays:
                rem = rem | self._free(arr)

        def reads_after(k: int) -> dict:
            rd = dict(tail_reads())
            for later in reversed(bindings[k + 1:]):
                rd.update(dict.fromkeys(later.params))
                for arr in later.arrays:
                    _merge_reads(rd, self._reads(arr))
            return rd

        plan = []
        cur_bv, cur_lm = frozenset(bv), frozenset(lm)
        for k, b in enumerate(bindings):
            farrs = [self._c1(a, cur_bv, cur_lm) for a in b.arrays]
            aflags = [f for _, f in farrs]
            how = self._plan_bind(
                cur_bv & rems[k], cur_lm, lambda k=k: reads_after(k), uniform
            )
            plan.append((farrs, aflags, b.params, how))
            cur_bv = frozenset((cur_bv & rems[k]) | set(b.params))
            cur_lm = frozenset(how[1] + how[2]) - set(b.params)
        return plan, cur_bv, cur_lm

    def _enter_nest(self, env, n, plan):
        """Enter every level of a compiled nest: the new environment, its
        batch width and the extent of each level."""
        dims = []
        for farrs, aflags, params, how in plan:
            arrs = [f(env, n)[0] for f, _ in farrs]
            m = _width(arrs, aflags)
            if m == 0:
                raise InterpError("segmap over empty dimension")
            env, n = _bind(env, n, m, params, arrs, aflags, how)
            dims.append(m)
        return env, n, tuple(dims)

    @staticmethod
    def _nest_lanes(plan) -> list[str]:
        """The names some level of ``plan`` binds by reference."""
        return sorted({x for *_, how in plan for x in how[1] + how[2]})

    @staticmethod
    def _unnest(vals, flags, n, cur, dims):
        """Reshape results at nest width ``cur`` to ``(n,) + dims + ...``."""
        lead = (n,) + dims if n is not None else dims
        out = []
        for v, f in zip(vals, flags):
            a = np.asarray(v) if f else _lift(v, cur)
            out.append(a.reshape(lead + a.shape[1:]))
        return tuple(out)

    def _c_segmap(self, e: T.SegMap, bv, lm):
        bindings = tuple(e.ctx)
        plan, body_bv, body_lm = self._compile_nest(
            bindings, bv, lm, self._free(e.body), lambda: self._reads(e.body),
            self._free(e) - bv,
        )
        fbody, bflags = self._compile(e.body, body_bv, body_lm)
        outer = bool(bv)
        self._kernel()
        construct = f"segmap{e.level}"
        lanes = self._nest_lanes(plan)

        def fn(env, n):
            with obs.span(
                "exec.kernel", cat="exec", construct=construct, batch=n or 1
            ) as sp:
                if lanes:
                    sp["lane_mapped"] = lanes
                # no batched inputs -> the nest starts its own fresh batch
                lead = n if outer else None
                env2, cur, dims = self._enter_nest(env, lead, plan)
                return self._unnest(fbody(env2, cur), bflags, lead, cur, dims)

        return fn, (outer,) * len(bflags)

    def _c_segfold(self, e, bv, lm):
        scan = isinstance(e, T.SegScan)
        bindings = tuple(e.ctx)
        prefix, last = bindings[:-1], bindings[-1]
        construct = f"segscan{e.level}" if scan else f"segred{e.level}"
        tail = self._free(e.body) | self._free_lambda(e.lam)
        for x in (*e.nes, *last.arrays):
            tail = tail | self._free(x)

        def tail_reads() -> dict:
            reads: dict = {}
            for x in (e.body, e.lam.body, *e.nes, *last.arrays):
                _merge_reads(reads, self._reads(x))
            reads.update(dict.fromkeys((*last.params, *e.lam.params)))
            return reads

        plan, pbv, plm = self._compile_nest(
            prefix, bv, lm, tail, tail_reads, self._free(e) - bv
        )
        run, accflags, fold_lanes = self._c_steps(
            pbv, plm, last.arrays, last.params, e.body, e.nes, e.lam, scan,
            "segscan over empty dimension",
        )
        self._kernel()
        outer = bool(bv)
        lanes = sorted(set(self._nest_lanes(plan)) | set(fold_lanes))

        def fn(env, n):
            with obs.span(
                "exec.kernel", cat="exec", construct=construct, batch=n or 1
            ) as sp:
                if lanes:
                    sp["lane_mapped"] = lanes
                # no batched inputs -> the nest starts its own fresh batch
                lead = n if outer else None
                env2, cur, dims = self._enter_nest(env, lead, plan)
                vals = run(env2, cur, sp)
                if cur is None:
                    return vals
                # a scan's element axis lands innermost: (cur, m, ...)
                return self._unnest(vals, accflags, lead, cur, dims)

        return fn, (outer,) * len(e.nes)
