"""Path signatures through a program's branching tree (paper §4.2).

Different threshold assignments frequently select the *same* execution path
for a given dataset ("the parameter assignment (5,15,25) results in version
V1, but so do assignments with p1 = 6!").  The tuner keys its measurement
cache on the path signature — the ordered list of (threshold, decision)
pairs actually *reached* during execution — so duplicate assignments resolve
without re-running the program.
"""

from __future__ import annotations

import bisect
from typing import Iterator, Mapping, Sequence

from repro import perf
from repro.flatten.versions import DEFAULT_THRESHOLD
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.traverse import _spec, push_children

__all__ = ["path_signature", "thresholds_in", "SignatureEngine", "signature_boxes"]


def thresholds_in(e: S.Exp) -> list[str]:
    """All threshold names appearing in guard position, in discovery order."""
    out: list[str] = []

    def go(x: S.Exp) -> None:
        if isinstance(x, T.ParCmp):
            if x.threshold not in out:
                out.append(x.threshold)
        for attr, kind in _spec(x):
            val = getattr(x, attr)
            if kind == "exp":
                go(val)
            elif kind == "exps":
                for sub in val:
                    go(sub)
            elif kind == "lam":
                go(val.body)
            elif kind == "ctx":
                for b in val:
                    for arr in b.arrays:
                        go(arr)

    go(e)
    return out


def path_signature(
    e: S.Exp,
    sizes: Mapping[str, int],
    thresholds: Mapping[str, int],
    device=None,
) -> tuple[tuple[str, bool], ...]:
    """The decisions taken through every reached ParCmp guard.

    Guards inside untaken branches are *not* part of the signature — their
    thresholds are irrelevant for this dataset under this assignment.

    When ``device`` is given, the §4.1 local-memory fallback is modelled:
    a guard whose version cannot fit the device's local memory behaves as
    false (the same rule the simulator applies), so signature-keyed caches
    remain sound in the presence of fallbacks.
    """
    sig: list[tuple[str, bool]] = []

    def go(x: S.Exp) -> None:
        if isinstance(x, S.If) and isinstance(x.cond, T.ParCmp):
            par = x.cond.par.eval(sizes)
            t = thresholds.get(x.cond.threshold, DEFAULT_THRESHOLD)
            taken = par >= t
            if taken and device is not None:
                from repro.gpu.cost import intra_local_demand

                if intra_local_demand(x.then, sizes) > device.local_mem:
                    taken = False
            sig.append((x.cond.threshold, taken))
            go(x.then if taken else x.els)
            return
        for attr, kind in _spec(x):
            val = getattr(x, attr)
            if kind == "exp":
                go(val)
            elif kind == "exps":
                for sub in val:
                    go(sub)
            elif kind == "lam":
                go(val.body)
            elif kind == "ctx":
                for b in val:
                    for arr in b.arrays:
                        go(arr)

    go(e)
    return tuple(sig)


class SignatureEngine:
    """Precompiled path signatures for one ``(program body, dataset)`` pair.

    For a fixed dataset every ``ParCmp`` guard compares its *constant*
    ``Par`` value against a threshold, and the §4.1 local-memory fallback
    depends only on the guarded branch, the sizes and the device — all
    constant too.  The engine walks the AST **once**, boiling it down to a
    tree of ``(threshold, par, blocked)`` decision nodes; evaluating a
    configuration then touches only the guards on its path instead of
    re-walking the whole program, and agrees with :func:`path_signature`
    node for node.
    """

    def __init__(self, e: S.Exp, sizes: Mapping[str, int], device=None):
        self.sizes = dict(sizes)
        self.device = device
        self._names: list[str] = []
        nodes = 0

        def build(x: S.Exp) -> list[tuple]:
            # pre-order over an explicit stack; a guard is a leaf here,
            # its two branches built as its own subtrees
            nonlocal nodes
            out: list[tuple] = []
            stack = [x]
            while stack:
                y = stack.pop()
                nodes += 1
                if isinstance(y, S.If) and isinstance(y.cond, T.ParCmp):
                    name = y.cond.threshold
                    if name not in self._names:
                        self._names.append(name)
                    par = y.cond.par.eval(self.sizes)
                    blocked = False
                    if device is not None:
                        from repro.gpu.cost import intra_local_demand

                        blocked = (
                            intra_local_demand(y.then, self.sizes)
                            > device.local_mem
                        )
                    out.append((name, par, blocked, build(y.then), build(y.els)))
                else:
                    push_children(y, stack)
            return out

        self._tree = build(e)
        perf.inc("signature.build_nodes", nodes)

    @property
    def threshold_names(self) -> tuple[str, ...]:
        """Threshold names reachable in the tree, in discovery order."""
        return tuple(self._names)

    def config_key(self, thresholds: Mapping[str, int]) -> tuple[int, ...]:
        """``thresholds`` restricted to the names that can affect the path."""
        return tuple(thresholds.get(n, DEFAULT_THRESHOLD) for n in self._names)

    def signature(
        self, thresholds: Mapping[str, int]
    ) -> tuple[tuple[str, bool], ...]:
        """Equivalent to ``path_signature(e, sizes, thresholds, device)``."""
        sig: list[tuple[str, bool]] = []

        def go(nodes: list[tuple]) -> None:
            for name, par, blocked, then_nodes, else_nodes in nodes:
                taken = par >= thresholds.get(name, DEFAULT_THRESHOLD)
                if taken and blocked:
                    taken = False
                sig.append((name, taken))
                go(then_nodes if taken else else_nodes)

        go(self._tree)
        perf.inc("signature.eval_nodes", len(sig))
        return tuple(sig)


Box = dict[str, tuple[int, int]]


def signature_boxes(
    engines: Sequence[SignatureEngine],
    candidates: Mapping[str, Sequence[int]],
) -> Iterator[Box]:
    """Every distinct joint path signature of ``engines``, once each.

    A configuration picks, for every threshold name in ``candidates``, one
    index into its ascending candidate list.  The joint signature (the
    per-engine signatures side by side) is constant on *boxes* — products
    of one inclusive index interval ``(lo, hi)`` per threshold — and each
    box yielded here holds exactly the configurations sharing one joint
    signature; together they partition the product of the candidate lists.

    The walk is depth-first over the engines' decision trees in order,
    starting from full intervals.  A guard whose threshold has candidates
    splits its interval at the first candidate above the guard's ``Par``
    value: the lower part takes the guard, the upper part does not, and an
    empty part is pruned.  A threshold used by several guards intersects
    their constraints.  A blocked guard (the §4.1 local-memory fallback)
    is never taken and constrains nothing, and a guard without a candidate
    list compares against ``DEFAULT_THRESHOLD`` — both as in
    :meth:`SignatureEngine.signature`.  The pending-work stack is explicit,
    so the number of engines is not bounded by Python's recursion limit.
    """
    # pending guards as a linked list: (nodes, position, rest) | None
    pending = None
    for engine in reversed(engines):
        if engine._tree:
            pending = (engine._tree, 0, pending)
    start: Box = {name: (0, len(c) - 1) for name, c in candidates.items()}
    stack = [(pending, start)]
    steps = 0
    try:
        while stack:
            pending, box = stack.pop()
            while pending is not None:
                steps += 1
                nodes, pos, rest = pending
                name, par, blocked, then_nodes, else_nodes = nodes[pos]
                if pos + 1 < len(nodes):
                    rest = (nodes, pos + 1, rest)
                span = box.get(name)
                if blocked or span is None:
                    taken = not blocked and par >= DEFAULT_THRESHOLD
                else:
                    lo, hi = span
                    # candidates below index k are <= par: they take the guard
                    k = bisect.bisect_right(candidates[name], par)
                    taken = k > hi
                    if lo < k <= hi:
                        # both sides non-empty: defer the taken side and
                        # continue on the untaken one
                        other = dict(box)
                        other[name] = (lo, k - 1)
                        stack.append(
                            ((then_nodes, 0, rest) if then_nodes else rest, other)
                        )
                        box[name] = (k, hi)
                branch = then_nodes if taken else else_nodes
                pending = (branch, 0, rest) if branch else rest
            yield box
    finally:
        perf.inc("signature.walk_nodes", steps)
