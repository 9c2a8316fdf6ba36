"""IR well-formedness validator.

Checks the structural invariants that every pass of the pipeline must
preserve but that nothing previously enforced mechanically:

* **scoping** — every variable occurrence is bound (by a program parameter,
  ``let``, lambda, loop, or mapnest-context binding), reported with a
  breadcrumb path to the offending node;
* **typing** — the expression type checks under the program's parameter
  environment, and (when the caller passes the source result types) the
  transformed program still returns the same number of values with the
  same array ranks and element types;
* **level nesting** — the target language's implicit constraint (§2.1):
  a level-l construct directly contains only level-(l−1) parallel
  constructs, level-0 bodies are sequential;
* **version guards** — ``ParCmp`` nodes appear only as ``if`` conditions,
  each threshold guards at most one conditional, and every threshold
  mentioned is registered with the compiler's threshold registry;
* **context sizes** — every mapnest binding pairs as many parameters as
  arrays, and constant binding extents agree with the bound arrays.

The validator is invoked after every pass in :mod:`repro.compiler` when the
config's ``validate`` is on: ``REPRO_VALIDATE=1``, ``repro check``, and
always under the test suite.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.ir import source as S
from repro.ir import target as T
from repro.ir.traverse import _spec
from repro.ir.typecheck import TypeError_, typeof, validate_levels
from repro.ir.types import ArrayType, Type

__all__ = [
    "ValidationError",
    "validate",
]


class ValidationError(Exception):
    """An IR invariant violation, with the pass and node path that broke it."""

    def __init__(self, stage: str, invariant: str, message: str, path: Sequence[str] = ()):
        self.stage = stage
        self.invariant = invariant
        self.path = tuple(path)
        where = "/".join(self.path) or "<root>"
        super().__init__(f"[{stage or 'ir'}] {invariant} at {where}: {message}")


# -- scope checking ----------------------------------------------------------


def _scope_lambda(lam: S.Lambda, bound: frozenset[str], path: list[str], stage: str) -> None:
    _scope(lam.body, bound | frozenset(lam.params), path + ["lam.body"], stage)


def _scope(e: S.Exp, bound: frozenset[str], path: list[str], stage: str) -> None:
    if isinstance(e, S.Var):
        if e.name not in bound:
            raise ValidationError(stage, "scoping", f"unbound variable {e.name!r}", path)
        return
    if isinstance(e, (S.Lit, S.SizeE, T.ParCmp)):
        return
    if isinstance(e, S.Let):
        _scope(e.rhs, bound, path + ["let.rhs"], stage)
        _scope(e.body, bound | frozenset(e.names), path + ["let.body"], stage)
        return
    if isinstance(e, S.Loop):
        for i, init in enumerate(e.inits):
            _scope(init, bound, path + [f"loop.init[{i}]"], stage)
        _scope(e.bound, bound, path + ["loop.bound"], stage)
        inner = bound | frozenset(e.params) | frozenset({e.ivar})
        _scope(e.body, inner, path + ["loop.body"], stage)
        return
    if isinstance(e, T.SegOp):
        what = type(e).__name__.lower()
        inner = bound
        for k, b in enumerate(e.ctx):
            for j, arr in enumerate(b.arrays):
                _scope(arr, inner, path + [f"{what}.ctx[{k}].arr[{j}]"], stage)
            inner = inner | frozenset(b.params)
        if isinstance(e, (T.SegRed, T.SegScan)):
            _scope_lambda(e.lam, inner, path + [f"{what}.op"], stage)
            for j, ne in enumerate(e.nes):
                _scope(ne, inner, path + [f"{what}.ne[{j}]"], stage)
        _scope(e.body, inner, path + [f"{what}.body"], stage)
        return
    # generic structural case, lambdas handled via the child-spec table
    cls = type(e).__name__.lower()
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            _scope(val, bound, path + [f"{cls}.{attr}"], stage)
        elif kind == "exps":
            for i, sub in enumerate(val):
                _scope(sub, bound, path + [f"{cls}.{attr}[{i}]"], stage)
        elif kind == "lam":
            _scope_lambda(val, bound, path + [f"{cls}.{attr}"], stage)


# -- version-guard placement -------------------------------------------------


def _check_guards(
    e: S.Exp,
    path: list[str],
    stage: str,
    seen: dict[str, list[str]],
    in_cond: bool = False,
) -> None:
    if isinstance(e, T.ParCmp):
        if not in_cond:
            raise ValidationError(
                stage,
                "guard-position",
                f"ParCmp on {e.threshold!r} outside an if condition",
                path,
            )
        if e.threshold in seen:
            raise ValidationError(
                stage,
                "guard-uniqueness",
                f"threshold {e.threshold!r} guards two conditionals "
                f"(first at {'/'.join(seen[e.threshold]) or '<root>'})",
                path,
            )
        seen[e.threshold] = list(path)
        return
    cls = type(e).__name__.lower()
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        cond = isinstance(e, S.If) and attr == "cond"
        if kind == "exp":
            _check_guards(val, path + [f"{cls}.{attr}"], stage, seen, in_cond=cond)
        elif kind == "exps":
            for i, sub in enumerate(val):
                _check_guards(sub, path + [f"{cls}.{attr}[{i}]"], stage, seen)
        elif kind == "lam":
            _check_guards(val.body, path + [f"{cls}.{attr}.body"], stage, seen)
        elif kind == "ctx":
            for k, b in enumerate(val):
                for j, arr in enumerate(b.arrays):
                    _check_guards(arr, path + [f"{cls}.ctx[{k}].arr[{j}]"], stage, seen)


# -- context binding sanity --------------------------------------------------


def _check_bindings(e: S.Exp, path: list[str], stage: str) -> None:
    if isinstance(e, T.SegOp):
        what = type(e).__name__.lower()
        if e.level < 0:
            raise ValidationError(stage, "levels", f"negative level {e.level}", path)
        if not e.ctx:
            raise ValidationError(stage, "context", f"{what} with empty context", path)
        for k, b in enumerate(e.ctx):
            if len(b.params) != len(b.arrays):
                raise ValidationError(
                    stage,
                    "context",
                    f"binding {k} has {len(b.params)} params for {len(b.arrays)} arrays",
                    path + [f"{what}.ctx[{k}]"],
                )
    cls = type(e).__name__.lower()
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            _check_bindings(val, path + [f"{cls}.{attr}"], stage)
        elif kind == "exps":
            for i, sub in enumerate(val):
                _check_bindings(sub, path + [f"{cls}.{attr}[{i}]"], stage)
        elif kind == "lam":
            _check_bindings(val.body, path + [f"{cls}.{attr}.body"], stage)
        elif kind == "ctx":
            for k, b in enumerate(val):
                for j, arr in enumerate(b.arrays):
                    _check_bindings(arr, path + [f"{cls}.ctx[{k}].arr[{j}]"], stage)


# -- result-type preservation ------------------------------------------------


def _compatible(a: Type, b: Type) -> bool:
    if isinstance(a, ArrayType) != isinstance(b, ArrayType):
        return False
    if isinstance(a, ArrayType) and isinstance(b, ArrayType):
        return a.rank == b.rank and a.elem == b.elem
    return a == b


# -- entry point -------------------------------------------------------------


def validate(
    body: S.Exp,
    env: Mapping[str, Type],
    *,
    stage: str = "",
    max_level: int | None = None,
    registry=None,
    expect: tuple[Type, ...] | None = None,
) -> tuple[Type, ...]:
    """Validate all IR invariants of ``body``; return its result types.

    ``env`` is the program's parameter type environment.  ``max_level``
    enables the target-language level check; ``registry`` (a
    :class:`~repro.flatten.versions.ThresholdRegistry`) enables the check
    that every guard threshold is registered; ``expect`` asserts that the
    result types are preserved relative to the source program.  Raises
    :class:`ValidationError` on the first violation.
    """
    try:
        _scope(body, frozenset(env), [], stage)
        seen_guards: dict[str, list[str]] = {}
        _check_guards(body, [], stage, seen_guards)
        _check_bindings(body, [], stage)
    except TypeError as ex:  # unknown node class in the child-spec table
        raise ValidationError(stage, "structure", str(ex)) from ex

    if registry is not None:
        known = set(registry.names())
        for t, where in seen_guards.items():
            if t not in known:
                raise ValidationError(
                    stage, "guard-registry", f"threshold {t!r} is not registered", where
                )

    try:
        ts = typeof(body, env)
    except TypeError_ as ex:
        raise ValidationError(stage, "typing", str(ex)) from ex

    if expect is not None:
        if len(ts) != len(expect):
            raise ValidationError(
                stage,
                "type-preservation",
                f"program returns {len(ts)} values, source returned {len(expect)}",
            )
        for i, (got, want) in enumerate(zip(ts, expect)):
            if not _compatible(got, want):
                raise ValidationError(
                    stage,
                    "type-preservation",
                    f"result {i} has type {got}, source had {want}",
                )

    if max_level is not None:
        try:
            validate_levels(body, max_level)
        except TypeError_ as ex:
            raise ValidationError(stage, "levels", str(ex)) from ex

    return ts
