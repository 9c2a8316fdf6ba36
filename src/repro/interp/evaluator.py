"""Reference interpreter for source *and* target programs.

The two languages share all sequential constructs; the source SOACs have the
same value semantics whether they are "parallel" (source) or "sequential"
(target), so a single evaluator covers both.  The target-only constructs are
``segmap/segred/segscan`` (evaluated by the defining equations of §2.1) and
``ParCmp`` version guards (evaluated against the threshold assignment).

This interpreter defines the semantics that flattening must preserve; the
equivalence property tests run it on both sides of the transformation.
Reductions and scans always fold left-to-right, so floating-point results
are bit-identical across source and flattened programs.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro import config, faults
from repro.flatten.versions import DEFAULT_THRESHOLD
from repro.interp import intrinsics
from repro.interp.scalar import BINOPS as _BINOPS  # eager ``&&``/``||``: see there
from repro.interp.values import Value, to_dtype
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import Program
from repro.ir.types import ArrayType

__all__ = [
    "DEFAULT_THRESHOLD",
    "Evaluator",
    "run_program",
    "program_env",
    "bind_sizes",
    "InterpError",
]


class InterpError(Exception):
    pass


def _preserve_dtype(ufunc):
    """Apply ``ufunc``, casting the result back to the input's dtype.

    ``exp``/``log``/``sqrt`` are *type-preserving* in the language
    (``S.UNOPS`` maps them to ``None``), so an ``i32`` input must yield an
    ``i32`` result — numpy's ufuncs would promote integer inputs to floats.
    The cast goes through ``astype`` (a C-level cast) so the scalar and
    vector engines, which share this helper, are bit-identical even for
    out-of-range values.  Works on scalars and whole arrays alike.
    """

    def f(a):
        arr = np.asarray(a)
        out = np.asarray(ufunc(arr))
        if out.dtype != arr.dtype:
            out = out.astype(arr.dtype)
        return out[()] if arr.ndim == 0 else out

    return f


def _cast(dtype):
    """``to_*`` conversion via ``astype`` — no Python ``int`` round-trip.

    ``np.int32(int(a))`` raises ``OverflowError`` for out-of-range floats
    while array casts wrap; routing both engines through the same
    ``astype`` machinery keeps them bit-identical (and deterministic on a
    given platform).  Works on scalars and whole arrays alike.
    """

    def f(a):
        arr = np.asarray(a)
        out = arr.astype(dtype)
        return out[()] if arr.ndim == 0 else out

    return f


_UNOPS = {
    "neg": lambda a: -a,
    "abs": lambda a: abs(a),
    "exp": _preserve_dtype(np.exp),
    "log": _preserve_dtype(np.log),
    "sqrt": _preserve_dtype(np.sqrt),
    "not": lambda a: not bool(a),
    "to_f32": _cast(np.float32),
    "to_f64": _cast(np.float64),
    "to_i32": _cast(np.int32),
    "to_i64": _cast(np.int64),
}


class Evaluator:
    """Evaluates expressions under an environment of named values.

    ``sizes`` binds size variables (needed for ``ParCmp`` guards and
    ``iota``/``replicate`` with symbolic extents); ``thresholds`` assigns the
    tunable version-selection parameters (missing entries default to 2^15).
    """

    def __init__(
        self,
        sizes: Mapping[str, int] | None = None,
        thresholds: Mapping[str, int] | None = None,
    ):
        self.sizes = dict(sizes or {})
        self.thresholds = dict(thresholds or {})

    # -- public entry points ------------------------------------------------

    def eval(self, e: S.Exp, env: dict[str, Value]) -> tuple[Value, ...]:
        """Evaluate to a tuple of values (multi-value convention)."""
        return self._eval(e, env)

    def eval1(self, e: S.Exp, env: dict[str, Value]) -> Value:
        vs = self._eval(e, env)
        if len(vs) != 1:
            raise InterpError(f"expected one value, got {len(vs)}")
        return vs[0]

    def apply(self, lam: S.Lambda, args: tuple[Value, ...], env: dict[str, Value]):
        if len(lam.params) != len(args):
            raise InterpError("lambda arity mismatch")
        inner = dict(env)
        inner.update(zip(lam.params, args))
        return self._eval(lam.body, inner)

    # -- core ---------------------------------------------------------------

    def _eval(self, e: S.Exp, env: dict[str, Value]) -> tuple[Value, ...]:
        if isinstance(e, S.Var):
            try:
                return (env[e.name],)
            except KeyError:
                raise InterpError(f"unbound variable {e.name!r}") from None
        if isinstance(e, S.Lit):
            return (to_dtype(e.type).type(e.value),)
        if isinstance(e, S.SizeE):
            return (np.int64(e.size.eval(self.sizes)),)
        if isinstance(e, S.TupleExp):
            out: list[Value] = []
            for x in e.elems:
                out.extend(self._eval(x, env))
            return tuple(out)
        if isinstance(e, S.BinOp):
            a = self.eval1(e.x, env)
            b = self.eval1(e.y, env)
            return (_BINOPS[e.op](a, b),)
        if isinstance(e, S.UnOp):
            return (_UNOPS[e.op](self.eval1(e.x, env)),)
        if isinstance(e, S.Let):
            vals = self._eval(e.rhs, env)
            if len(vals) != len(e.names):
                raise InterpError(
                    f"let arity mismatch: {len(e.names)} names, {len(vals)} values"
                )
            inner = dict(env)
            inner.update(zip(e.names, vals))
            return self._eval(e.body, inner)
        if isinstance(e, S.If):
            c = self.eval1(e.cond, env)
            return self._eval(e.then if c else e.els, env)
        if isinstance(e, S.Index):
            arr = self.eval1(e.arr, env)
            idxs = tuple(int(self.eval1(i, env)) for i in e.idxs)
            out = arr[idxs]
            return (out,)
        if isinstance(e, S.Iota):
            n = int(self.eval1(e.n, env))
            return (np.arange(n, dtype=np.int64),)
        if isinstance(e, S.Replicate):
            n = int(self.eval1(e.n, env))
            x = self.eval1(e.x, env)
            if isinstance(x, np.ndarray):
                return (np.broadcast_to(x, (n,) + x.shape).copy(),)
            return (np.full(n, x),)
        if isinstance(e, S.Rearrange):
            arr = self.eval1(e.arr, env)
            return (np.transpose(arr, e.perm),)
        if isinstance(e, S.Loop):
            vals = [self.eval1(i, env) for i in e.inits]
            bound = int(self.eval1(e.bound, env))
            for it in range(bound):
                inner = dict(env)
                inner.update(zip(e.params, vals))
                inner[e.ivar] = np.int64(it)
                vals = list(self._eval(e.body, inner))
                if len(vals) != len(e.params):
                    raise InterpError("loop body arity mismatch")
            return tuple(vals)
        if isinstance(e, S.Map):
            return self._eval_map(e, env)
        if isinstance(e, S.Reduce):
            arrs = [self.eval1(a, env) for a in e.arrs]
            nes = tuple(self.eval1(x, env) for x in e.nes)
            return self._fold(e.lam, nes, arrs, env)
        if isinstance(e, S.Scan):
            arrs = [self.eval1(a, env) for a in e.arrs]
            nes = tuple(self.eval1(x, env) for x in e.nes)
            return self._scan(e.lam, nes, arrs, env)
        if isinstance(e, S.Redomap):
            arrs = [self.eval1(a, env) for a in e.arrs]
            nes = tuple(self.eval1(x, env) for x in e.nes)
            acc = nes
            for i in range(_outer_len(arrs)):
                mapped = self.apply(e.map_lam, tuple(a[i] for a in arrs), env)
                acc = self.apply(e.red_lam, acc + mapped, env)
            return acc
        if isinstance(e, S.Scanomap):
            arrs = [self.eval1(a, env) for a in e.arrs]
            nes = tuple(self.eval1(x, env) for x in e.nes)
            acc = nes
            rows: list[tuple[Value, ...]] = []
            for i in range(_outer_len(arrs)):
                mapped = self.apply(e.map_lam, tuple(a[i] for a in arrs), env)
                acc = self.apply(e.scan_lam, acc + mapped, env)
                rows.append(acc)
            return _stack_rows(rows)
        if isinstance(e, S.Intrinsic):
            defn = intrinsics.get(e.name)
            args = [self.eval1(a, env) for a in e.args]
            out = defn.interp(*args)
            return out if isinstance(out, tuple) else (out,)
        if isinstance(e, T.SegMap):
            # seg-ops are the interpreter's "kernel launches": fault-checked
            # with bounded transient retry (no-op when no plan is active)
            return faults.retrying(
                "interp.kernel", lambda: self._eval_segmap(e, env)
            )
        if isinstance(e, T.SegRed):
            return faults.retrying(
                "interp.kernel", lambda: self._eval_segred(e, env)
            )
        if isinstance(e, T.SegScan):
            return faults.retrying(
                "interp.kernel", lambda: self._eval_segscan(e, env)
            )
        if isinstance(e, T.ParCmp):
            par = e.par.eval(self.sizes)
            t = self.thresholds.get(e.threshold, DEFAULT_THRESHOLD)
            return (bool(par >= t),)
        raise InterpError(f"cannot evaluate {type(e).__name__}")

    # -- SOAC helpers ---------------------------------------------------------

    def _eval_map(self, e: S.Map, env: dict[str, Value]) -> tuple[Value, ...]:
        arrs = [self.eval1(a, env) for a in e.arrs]
        n = _outer_len(arrs)
        rows = [
            self.apply(e.lam, tuple(a[i] for a in arrs), env) for i in range(n)
        ]
        if not rows:
            raise InterpError("map over empty array (shape not inferable)")
        return _stack_rows(rows)

    def _fold(self, lam, nes, arrs, env) -> tuple[Value, ...]:
        acc = nes
        for i in range(_outer_len(arrs)):
            acc = self.apply(lam, acc + tuple(a[i] for a in arrs), env)
        return acc

    def _scan(self, lam, nes, arrs, env) -> tuple[Value, ...]:
        acc = nes
        rows: list[tuple[Value, ...]] = []
        for i in range(_outer_len(arrs)):
            acc = self.apply(lam, acc + tuple(a[i] for a in arrs), env)
            rows.append(acc)
        if not rows:
            raise InterpError("scan over empty array")
        return _stack_rows(rows)

    # -- seg-op helpers --------------------------------------------------------

    def _eval_segmap(self, e: T.SegMap, env) -> tuple[Value, ...]:
        nested = self._seg_go(tuple(e.ctx), env, lambda inner: self._eval(e.body, inner))
        return _nest_to_arrays(nested, len(e.ctx))

    def _eval_segred(self, e: T.SegRed, env) -> tuple[Value, ...]:
        bindings = tuple(e.ctx)

        def inner_fold(inner_env) -> tuple[Value, ...]:
            b = bindings[-1]
            arrays = [self.eval1(a, inner_env) for a in b.arrays]
            nes = tuple(self.eval1(x, inner_env) for x in e.nes)
            acc = nes
            for i in range(_outer_len(arrays)):
                env2 = dict(inner_env)
                env2.update(zip(b.params, (a[i] for a in arrays)))
                vals = self._eval(e.body, env2)
                acc = self.apply(e.lam, acc + vals, inner_env)
            return acc

        nested = self._seg_go(bindings[:-1], env, inner_fold)
        return _nest_to_arrays(nested, len(bindings) - 1)

    def _eval_segscan(self, e: T.SegScan, env) -> tuple[Value, ...]:
        bindings = tuple(e.ctx)

        def inner_scan(inner_env) -> tuple[Value, ...]:
            b = bindings[-1]
            arrays = [self.eval1(a, inner_env) for a in b.arrays]
            nes = tuple(self.eval1(x, inner_env) for x in e.nes)
            acc = nes
            rows: list[tuple[Value, ...]] = []
            for i in range(_outer_len(arrays)):
                env2 = dict(inner_env)
                env2.update(zip(b.params, (a[i] for a in arrays)))
                vals = self._eval(e.body, env2)
                acc = self.apply(e.lam, acc + vals, inner_env)
                rows.append(acc)
            if not rows:
                raise InterpError("segscan over empty dimension")
            return _stack_rows(rows)

        nested = self._seg_go(bindings[:-1], env, inner_scan)
        return _nest_to_arrays(nested, len(bindings) - 1)

    def _seg_go(self, bindings, env, leaf):
        """Iterate a context prefix, returning nested lists of leaf results."""
        if not bindings:
            return leaf(env)
        b = bindings[0]
        arrays = [self.eval1(a, env) for a in b.arrays]
        n = _outer_len(arrays)
        out = []
        for i in range(n):
            inner = dict(env)
            inner.update(zip(b.params, (a[i] for a in arrays)))
            out.append(self._seg_go(bindings[1:], inner, leaf))
        return out


def _outer_len(arrs: list[np.ndarray]) -> int:
    n = len(arrs[0])
    for a in arrs[1:]:
        if len(a) != n:
            raise InterpError("irregular SOAC arguments")
    return n


def _stack_rows(rows: list[tuple[Value, ...]]) -> tuple[Value, ...]:
    arity = len(rows[0])
    return tuple(np.stack([r[j] for r in rows]) for j in range(arity))


def _nest_to_arrays(nested, depth: int) -> tuple[Value, ...]:
    """Turn depth-nested lists of value tuples into a tuple of arrays."""
    if depth == 0:
        return nested
    if depth == 1:
        return _stack_rows([r for r in nested])
    subs = [_nest_to_arrays(x, depth - 1) for x in nested]
    return _stack_rows(subs)


def bind_sizes(prog: Program, inputs: Mapping[str, np.ndarray]) -> dict[str, int]:
    """Derive the size-variable assignment from concrete input shapes."""
    sizes: dict[str, int] = {}
    for name, t in prog.params:
        if not isinstance(t, ArrayType):
            continue
        val = inputs[name]
        if val.ndim != t.rank:
            raise InterpError(f"{name}: rank mismatch {val.ndim} vs {t.rank}")
        for dim, actual in zip(t.shape, val.shape):
            # match single-variable dims exactly; check others for consistency
            fv = dim.free_vars()
            if len(fv) == 1 and str(dim) in fv:
                (var,) = fv
                if var in sizes and sizes[var] != actual:
                    raise InterpError(
                        f"size {var} bound inconsistently: {sizes[var]} vs {actual}"
                    )
                sizes[var] = int(actual)
            elif not fv:
                if dim.eval({}) != actual:
                    raise InterpError(f"{name}: constant dim {dim} != {actual}")
    # second pass: verify composite dims
    for name, t in prog.params:
        if isinstance(t, ArrayType):
            val = inputs[name]
            for dim, actual in zip(t.shape, val.shape):
                if dim.free_vars() <= set(sizes):
                    if dim.eval(sizes) != actual:
                        raise InterpError(
                            f"{name}: dim {dim} evaluates to {dim.eval(sizes)}, "
                            f"array has {actual}"
                        )
    return sizes


def program_env(
    prog: Program,
    inputs: Mapping[str, Value],
    sizes: Mapping[str, int] | None = None,
) -> tuple[dict[str, Value], dict[str, int]]:
    """The (environment, size assignment) pair for running ``prog``.

    Size variables are inferred from the input array shapes; scalar integer
    parameters double as size variables (e.g. loop bounds) unless ``sizes``
    overrides them.
    """
    env = {name: inputs[name] for name, _ in prog.params}
    all_sizes = bind_sizes(prog, inputs)
    if sizes:
        all_sizes.update(sizes)
    for name, t in prog.params:
        if not isinstance(t, ArrayType) and isinstance(inputs[name], (int, np.integer)):
            all_sizes.setdefault(name, int(inputs[name]))
    return env, all_sizes


def run_program(
    prog: Program,
    inputs: Mapping[str, Value],
    body: S.Exp | None = None,
    thresholds: Mapping[str, int] | None = None,
    sizes: Mapping[str, int] | None = None,
    engine: str | None = None,
    memo: dict | None = None,
) -> tuple[Value, ...]:
    """Run a program (or an alternative ``body`` over its parameters).

    Scalar program parameters must be supplied in ``inputs`` too; size
    variables are inferred from array shapes unless given explicitly.

    ``engine`` selects the executor: ``"scalar"`` is this module's
    tree-walking oracle, ``"vector"`` the batched-NumPy compiler in
    :mod:`repro.exec`, ``"codegen"`` the generated-source tier on top of it
    (both bit-identical to the oracle, see ``docs/execution.md``).
    ``None`` follows the configured engine (``REPRO_EXEC``, ``run
    --exec``), ``"scalar"`` by default.

    ``memo`` is an evaluator memo for ``body`` (a compiled program's): a
    batched engine then reuses the evaluator that compiled it for the
    same sizes, dtypes and config (:func:`repro.exec.run_batched`).
    """
    eng = engine or config.current().engine
    env, all_sizes = program_env(prog, inputs, sizes)
    target = body if body is not None else prog.body
    if eng == "scalar":
        ev = Evaluator(sizes=all_sizes, thresholds=thresholds)
        return ev.eval(target, env)
    from repro.exec import run_batched

    return run_batched(eng, target, env, all_sizes, inputs, thresholds, memo)
