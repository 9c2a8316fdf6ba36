"""Reference interpreters for the source and target languages.

The package ``__init__`` resolves its names lazily (the idiom of
:mod:`repro.check`).  Importing a submodule runs this file first, and the
cost simulator and the simplifier import :mod:`repro.interp.intrinsics`
and :mod:`repro.interp.scalar` without wanting the evaluator or the NumPy
it loads.
"""

from __future__ import annotations

_LAZY = {
    "DEFAULT_THRESHOLD": "repro.interp.evaluator",
    "Evaluator": "repro.interp.evaluator",
    "InterpError": "repro.interp.evaluator",
    "bind_sizes": "repro.interp.evaluator",
    "program_env": "repro.interp.evaluator",
    "run_program": "repro.interp.evaluator",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(modname), name)
