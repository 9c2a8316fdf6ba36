"""Scalar binary operators: the one definition of their value semantics.

The interpreter and the executors apply these to NumPy scalars; the
simplifier and the GPU cost simulator fold constants with them.  The module
imports no NumPy, so compiling or simulating a program never loads it.
"""

from __future__ import annotations

__all__ = ["BINOPS"]


def _div(a, b):
    """``/`` divides truly if either operand is floating, else floors.

    Python scalars decide it without NumPy; any other operand is a NumPy
    scalar or array, so NumPy is loaded already when the fallback asks it.
    """
    if isinstance(a, float) or isinstance(b, float):
        return a / b
    if isinstance(a, int) and isinstance(b, int):
        return a // b
    import numpy as np

    if isinstance(a, np.floating) or isinstance(b, np.floating):
        return a / b
    return a // b


# ``&&`` and ``||`` are EAGER: ``BinOp`` evaluates both operands before the
# operator runs (see ``Evaluator._eval``), so a trapping RHS traps even when
# the LHS already decides the result.  The vector engine relies on this — it
# computes whole-array operands unconditionally — so short-circuiting must
# never be (re)introduced here without also changing ``docs/execution.md``
# and the regression test in ``tests/interp/test_eager_bool.py``.
BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "%": lambda a, b: a % b,
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
    "pow": lambda a, b: a**b,
    "==": lambda a, b: bool(a == b),
    "!=": lambda a, b: bool(a != b),
    "<": lambda a, b: bool(a < b),
    "<=": lambda a, b: bool(a <= b),
    ">": lambda a, b: bool(a > b),
    ">=": lambda a, b: bool(a >= b),
    "&&": lambda a, b: bool(a) and bool(b),
    "||": lambda a, b: bool(a) or bool(b),
}
