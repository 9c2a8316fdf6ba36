"""Threshold parameters and the branching tree of a multi-versioned program.

Incremental flattening guards each code version with a predicate
``Par ≥ t`` over a fresh threshold parameter ``t`` (rules G3, G9).  The
compiler exports the *branching tree* — which thresholds guard which
versions, and in what nesting — to the autotuner, which uses it to detect
parameter assignments that select an already-measured execution path
(paper §4.2, Fig. 5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir import source as S
from repro.ir import target as T
from repro.ir.traverse import _spec
from repro.sizes import SizeExpr

__all__ = [
    "DEFAULT_THRESHOLD",
    "Threshold",
    "ThresholdRegistry",
    "BranchNode",
    "branching_trees",
    "render_tree",
]

#: the value of a threshold the assignment does not name (paper §4.2:
#: untuned thresholds default to 2^15)
DEFAULT_THRESHOLD = 2**15


@dataclass(frozen=True)
class Threshold:
    """One tunable parameter: guards a code version against ``par``."""

    name: str
    kind: str  # "suff_outer_par" (t_top) or "suff_intra_par" (t_intra)
    par: SizeExpr


class ThresholdRegistry:
    """Allocates fresh threshold names and records their metadata."""

    def __init__(self, prefix: str = "t"):
        self.prefix = prefix
        self.items: list[Threshold] = []

    def fresh(self, kind: str, par: SizeExpr) -> str:
        name = f"{self.prefix}{len(self.items)}"
        self.items.append(Threshold(name, kind, par))
        return name

    def names(self) -> list[str]:
        return [t.name for t in self.items]

    def by_name(self, name: str) -> Threshold:
        for t in self.items:
            if t.name == name:
                return t
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class BranchNode:
    """A node of the branching tree (paper Fig. 5).

    ``threshold``/``par`` describe the guard; ``if_true`` is the version
    taken when ``par ≥ threshold`` holds, ``if_false`` the alternative.
    Leaves are version identifiers (ints assigned in discovery order).
    """

    threshold: str
    par: SizeExpr
    if_true: "list[BranchNode] | int"
    if_false: "list[BranchNode] | int"


def branching_trees(e: S.Exp) -> list[BranchNode]:
    """Extract all ParCmp-guarded decision trees from a flattened program.

    Several independent trees can occur in sequence (e.g. LocVolCalib's two
    tridag batches); each `If(ParCmp(...), ...)` becomes a node whose
    children are the trees of its branches.  Version leaves are numbered
    left-to-right; a branch with no further guards is a single leaf id.
    """
    counter = [0]

    def leaf() -> int:
        counter[0] += 1
        return counter[0] - 1

    def go(x: S.Exp) -> list[BranchNode]:
        if isinstance(x, S.If) and isinstance(x.cond, T.ParCmp):
            t = go(x.then)
            f = go(x.els)
            return [
                BranchNode(
                    x.cond.threshold,
                    x.cond.par,
                    t if t else leaf(),
                    f if f else leaf(),
                )
            ]
        out: list[BranchNode] = []
        for attr, kind in _spec(x):
            val = getattr(x, attr)
            if kind == "exp":
                out.extend(go(val))
            elif kind == "exps":
                for sub in val:
                    out.extend(go(sub))
            elif kind == "lam":
                out.extend(go(val.body))
            elif kind == "ctx":
                for b in val:
                    for arr in b.arrays:
                        out.extend(go(arr))
        return out

    return go(e)


def render_tree(nodes: list[BranchNode] | int, indent: int = 0) -> str:
    """ASCII rendering of a branching tree (cf. paper Fig. 5)."""
    pad = "  " * indent
    if isinstance(nodes, int):
        return f"{pad}V{nodes}\n"
    out = ""
    for n in nodes:
        out += f"{pad}{n.par} ≥ {n.threshold}?\n"
        out += f"{pad}├─ yes:\n" + render_tree(n.if_true, indent + 2)
        out += f"{pad}└─ no:\n" + render_tree(n.if_false, indent + 2)
    return out
