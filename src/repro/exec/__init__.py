"""Execution engines beyond the tree-walking oracle.

:class:`VectorEvaluator` compiles source/target IR to batched NumPy
closures, with masked lowerings for constructs whose lanes diverge
(bit-identical to the scalar interpreter; see ``docs/execution.md``).
:class:`CodegenEvaluator` extends it with generated-source kernels and a
cross-process on-disk compile cache (:mod:`repro.exec.compile_cache`).
Select an engine per call via ``run_program(..., engine="vector"|"codegen")``,
per process via ``REPRO_EXEC=...``, or on the CLI via ``--exec ...``.

:func:`new_evaluator` is the one place that builds a batched evaluator,
and :func:`set_thresholds` the one way to re-point it at another threshold
assignment.  :func:`run_batched` runs a body on either engine; given a
compiled program's evaluator memo, it compiles the closure tree once per
(engine, sizes, dtype signature, config) and every later call with that
key only executes (``docs/execution.md``, "The compile cache").
"""

from __future__ import annotations

import threading

from repro import config, perf
from repro.exec.codegen import CodegenEvaluator, dtype_signature
from repro.exec.vector import VectorEvaluator

__all__ = [
    "CodegenEvaluator",
    "MEMO_MAX",
    "VectorEvaluator",
    "dtype_signature",
    "new_evaluator",
    "run_batched",
    "set_thresholds",
]

#: evaluators one compiled program keeps (least recently used goes first)
MEMO_MAX = 8

#: guards the take-out and put-back of memoised evaluators, nothing else
_memo_lock = threading.Lock()


def new_evaluator(engine: str, sizes, inputs) -> VectorEvaluator:
    """A fresh batched evaluator for ``engine`` with thresholds empty.

    ``sizes`` is the full size assignment (it is burnt into the compiled
    closures); ``inputs`` gives the codegen engine its dtype signature.
    """
    if engine == "vector":
        return VectorEvaluator(sizes=sizes)
    if engine == "codegen":
        return CodegenEvaluator(sizes=sizes, dtype_sig=dtype_signature(inputs))
    raise ValueError(
        f"unknown engine {engine!r} (expected 'scalar', 'vector' or 'codegen')"
    )


def set_thresholds(ev: VectorEvaluator, thresholds) -> None:
    """Make ``thresholds`` the assignment ``ev``'s next launch reads.

    The dict is mutated, never rebound: the per-lane scalar fallback
    (``ev.scalar``) holds the same dict object, so a rebinding would leave
    the fallback lanes on the previous assignment.
    """
    ev.thresholds.clear()
    if thresholds:
        ev.thresholds.update(thresholds)


def run_batched(engine, body, env, sizes, inputs, thresholds=None, memo=None):
    """Evaluate ``body`` in ``env`` on a batched engine.

    Without ``memo``, or with caching off (``REPRO_NO_CACHE=1``), a fresh
    evaluator compiles the closure tree.  ``memo`` is a compiled program's
    evaluator memo, for that program's one body: it maps (engine, sizes,
    dtype signature, resolved config) to an evaluator that has compiled
    the tree already.  A call takes its evaluator out of the memo and puts
    it back once it has returned, so no two threads ever share one; a
    concurrent caller with the same key compiles its own, and a call that
    raises drops its evaluator.  Thresholds are not in the key: each call
    writes its own into the evaluator it holds.
    """
    if memo is None or not perf.caching_enabled():
        ev = new_evaluator(engine, sizes, inputs)
        set_thresholds(ev, thresholds)
        return ev.eval(body, env)
    key = (engine, tuple(sorted(sizes.items())), dtype_signature(inputs),
           config.current())
    with _memo_lock:
        ev = memo.pop(key, None)
    if ev is None:
        perf.inc("exec.memo.misses")
        ev = new_evaluator(engine, sizes, inputs)
    else:
        perf.inc("exec.memo.hits")
    set_thresholds(ev, thresholds)
    out = ev.eval(body, env)
    with _memo_lock:
        memo.pop(key, None)  # a concurrent caller's copy: ours is as good
        memo[key] = ev
        if len(memo) > MEMO_MAX:
            del memo[next(iter(memo))]
    return out
