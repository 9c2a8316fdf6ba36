"""Shape classes: log-bucketed threshold-relevant dimensions.

The online tuner (:mod:`repro.tuning.online`) must share tuned
thresholds across the datasets a deployed program actually receives,
without assuming it has seen the exact sizes before.  The right
granularity falls out of the branching tree: the only dimensions that
influence version selection are the ``Par`` expressions the tree's
guards compare against thresholds (``tuning/tree.py``), and a guard's
decision depends only on the *magnitude* of that parallelism degree.

A dataset's **shape class** is therefore the tuple of log2 buckets of
each registered threshold's ``Par`` value under the dataset's size
assignment (registry order).  Two datasets in one class present
same-magnitude parallelism to every guard, so the profitable code
version — and hence the tuned threshold assignment — is shared.
Dimensions that no guard inspects never fragment the table.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["log_bucket", "shape_class", "shape_key"]


def log_bucket(value: int) -> int:
    """The log2 bucket of a parallelism degree: ``floor(log2(v)) + 1``
    for positive ``v`` (i.e. ``int.bit_length``), 0 for empty work."""
    v = int(value)
    return v.bit_length() if v > 0 else 0


def shape_class(compiled, sizes: Mapping[str, int]) -> tuple[int, ...]:
    """The dataset's shape class under ``compiled``'s threshold registry.

    One bucket per registered threshold, in registry order — the same
    order :func:`repro.tuning.persist.thresholds_doc` lists parameters,
    so a class is stable across processes for a fixed branching tree.
    """
    env = dict(sizes)
    return tuple(log_bucket(t.par.eval(env)) for t in compiled.registry.items)


def shape_key(cls: Sequence[int]) -> str:
    """Stable string form of a shape class, used as the table key.

    ``"b5.b19"`` for a two-threshold program; ``"-"`` for a program whose
    compiled body has no threshold guards at all (single-version trees).
    """
    return ".".join(f"b{b}" for b in cls) if cls else "-"
