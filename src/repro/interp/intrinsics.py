"""Registry of intrinsic operations.

An intrinsic bundles a type rule, an interpreter function, and a cost
profile.  Intrinsics model hand-written reference kernels (e.g. FinPar's
sequential Thomas-algorithm tridag) whose behaviour is not expressible as a
SOAC composition but whose semantics/cost we still need.

The cost profile is a function of the argument *types* with concrete sizes::

    cost(arg_types, sizes) -> (ops, global_bytes, local_bytes)

where shapes are taken from the argument types evaluated under ``sizes``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.ir.typecheck import register_intrinsic_type
from repro.ir.types import Type

__all__ = ["IntrinsicDef", "register", "get", "INTRINSICS"]


@dataclass
class IntrinsicDef:
    name: str
    type_rule: Callable[[tuple[Type, ...]], tuple[Type, ...]]
    interp: Callable[..., object]
    #: (arg_avals, sizes) -> (scalar ops, global bytes, local bytes) per call
    cost: Callable[[tuple, dict[str, int]], tuple[float, float, float]]
    #: (arg_avals) -> result avals, for the cost simulator's shape tracking;
    #: None means "a single f32 scalar"
    abstract: Callable[[tuple], tuple] | None = None
    #: whole-batch lowering for the batched engines: ``vector(args, aflags)``
    #: receives the evaluated arguments (batched ones carry a leading batch
    #: axis; ``aflags`` says which) and must return results bit-identical to
    #: running ``interp`` once per lane and restacking.  ``None`` means the
    #: engine falls back to the per-lane scalar oracle.
    vector: Callable[[list, list], object] | None = None


INTRINSICS: dict[str, IntrinsicDef] = {}


def register(defn: IntrinsicDef) -> IntrinsicDef:
    """Register an intrinsic; makes it typeable, runnable and costable."""
    INTRINSICS[defn.name] = defn
    register_intrinsic_type(defn.name, defn.type_rule)
    return defn


def get(name: str) -> IntrinsicDef:
    try:
        return INTRINSICS[name]
    except KeyError:
        raise KeyError(f"unregistered intrinsic {name!r}") from None
