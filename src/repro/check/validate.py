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


# -- breadcrumb paths --------------------------------------------------------
#
# A pass hands each child the path to it as a linked pair ``(segment,
# parent)``, ``None`` at the root: one small tuple per node, where a list
# copy would cost the node's depth.  Only an error unwinds it.


def _trail(path) -> list[str]:
    out: list[str] = []
    while path is not None:
        seg, path = path
        out.append(seg)
    out.reverse()
    return out


# -- scope checking ----------------------------------------------------------


def _scope_lambda(lam: S.Lambda, bound: frozenset[str], path, stage: str) -> None:
    _scope(lam.body, bound | frozenset(lam.params), ("lam.body", path), stage)


def _scope(e: S.Exp, bound: frozenset[str], path, stage: str) -> None:
    if isinstance(e, S.Var):
        if e.name not in bound:
            raise ValidationError(
                stage, "scoping", f"unbound variable {e.name!r}", _trail(path)
            )
        return
    if isinstance(e, (S.Lit, S.SizeE, T.ParCmp)):
        return
    if isinstance(e, S.Let):
        _scope(e.rhs, bound, ("let.rhs", path), stage)
        _scope(e.body, bound | frozenset(e.names), ("let.body", path), stage)
        return
    if isinstance(e, S.Loop):
        for i, init in enumerate(e.inits):
            _scope(init, bound, (f"loop.init[{i}]", path), stage)
        _scope(e.bound, bound, ("loop.bound", path), stage)
        inner = bound | frozenset(e.params) | frozenset({e.ivar})
        _scope(e.body, inner, ("loop.body", path), stage)
        return
    if isinstance(e, T.SegOp):
        what = type(e).__name__.lower()
        inner = bound
        for k, b in enumerate(e.ctx):
            for j, arr in enumerate(b.arrays):
                _scope(arr, inner, (f"{what}.ctx[{k}].arr[{j}]", path), stage)
            inner = inner | frozenset(b.params)
        if isinstance(e, (T.SegRed, T.SegScan)):
            _scope_lambda(e.lam, inner, (f"{what}.op", path), stage)
            for j, ne in enumerate(e.nes):
                _scope(ne, inner, (f"{what}.ne[{j}]", path), stage)
        _scope(e.body, inner, (f"{what}.body", path), stage)
        return
    # generic structural case, lambdas handled via the child-spec table
    cls = type(e).__name__.lower()
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            _scope(val, bound, (f"{cls}.{attr}", path), stage)
        elif kind == "exps":
            for i, sub in enumerate(val):
                _scope(sub, bound, (f"{cls}.{attr}[{i}]", path), stage)
        elif kind == "lam":
            _scope_lambda(val, bound, (f"{cls}.{attr}", path), stage)


# -- version guards and context bindings -------------------------------------


def _check_structure(
    e: S.Exp,
    path,
    stage: str,
    seen: dict[str, list[str]],
    bad: list[ValidationError],
    in_cond: bool = False,
) -> None:
    """Guard placement, raised at once, and context-binding sanity, whose
    first violation is kept in ``bad`` (the caller raises it if no guard
    is misplaced anywhere: guard errors take precedence)."""
    if isinstance(e, T.ParCmp):
        if not in_cond:
            raise ValidationError(
                stage,
                "guard-position",
                f"ParCmp on {e.threshold!r} outside an if condition",
                _trail(path),
            )
        if e.threshold in seen:
            raise ValidationError(
                stage,
                "guard-uniqueness",
                f"threshold {e.threshold!r} guards two conditionals "
                f"(first at {'/'.join(seen[e.threshold]) or '<root>'})",
                _trail(path),
            )
        seen[e.threshold] = _trail(path)
        return
    if isinstance(e, T.SegOp) and not bad:
        err = _binding_error(e, path, stage)
        if err is not None:
            bad.append(err)
    cls = type(e).__name__.lower()
    for attr, kind in _spec(e):
        val = getattr(e, attr)
        if kind == "exp":
            cond = attr == "cond" and isinstance(e, S.If)
            _check_structure(
                val, (f"{cls}.{attr}", path), stage, seen, bad, in_cond=cond
            )
        elif kind == "exps":
            for i, sub in enumerate(val):
                _check_structure(sub, (f"{cls}.{attr}[{i}]", path), stage, seen, bad)
        elif kind == "lam":
            _check_structure(val.body, (f"{cls}.{attr}.body", path), stage, seen, bad)
        elif kind == "ctx":
            for k, b in enumerate(val):
                for j, arr in enumerate(b.arrays):
                    _check_structure(
                        arr, (f"{cls}.ctx[{k}].arr[{j}]", path), stage, seen, bad
                    )


def _binding_error(e: T.SegOp, path, stage: str) -> ValidationError | None:
    what = type(e).__name__.lower()
    if e.level < 0:
        return ValidationError(stage, "levels", f"negative level {e.level}", _trail(path))
    if not e.ctx:
        return ValidationError(
            stage, "context", f"{what} with empty context", _trail(path)
        )
    for k, b in enumerate(e.ctx):
        if len(b.params) != len(b.arrays):
            return ValidationError(
                stage,
                "context",
                f"binding {k} has {len(b.params)} params for {len(b.arrays)} arrays",
                _trail((f"{what}.ctx[{k}]", path)),
            )
    return None


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
        _scope(body, frozenset(env), None, stage)
        seen_guards: dict[str, list[str]] = {}
        bad: list[ValidationError] = []
        _check_structure(body, None, stage, seen_guards, bad)
        if bad:
            raise bad[0]
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
