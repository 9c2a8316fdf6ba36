"""Differential correctness harness (the ``repro check`` subsystem).

Three cooperating pieces mechanically enforce the paper's central claim —
that every code version produced by incremental flattening is semantically
equivalent to the source program:

* :mod:`repro.check.validate` — an IR well-formedness validator (scoping,
  typing, level nesting, version-guard placement) that the compiler runs
  after every pass when ``REPRO_VALIDATE=1`` (and always under ``repro
  check`` and pytest);
* :mod:`repro.check.differential` — a forced-path differential executor
  that enumerates the branching tree of a multi-versioned program, pins
  threshold assignments so as to force each code version, and asserts that
  every path computes bit-identical results to the source interpreter;
* :mod:`repro.check.genprog` / :mod:`repro.check.fuzz` — a property-based
  generator of nested-parallel programs (with shrinking and a regression
  corpus under ``tests/corpus/``) that feeds the differential executor.

The package ``__init__`` resolves attributes lazily so that
``repro.compiler`` can import :mod:`repro.check.validate` without creating
an import cycle through :mod:`repro.check.differential` (which itself
imports the compiler).
"""

from __future__ import annotations

_LAZY = {
    # NB: the *function* ``validate`` is deliberately not re-exported here —
    # the submodule of the same name would shadow it as soon as the compiler
    # imports ``repro.check.validate``; import the function from there.
    "ValidationError": "repro.check.validate",
    "differential_check": "repro.check.differential",
    "check_all": "repro.check.differential",
    "enumerate_forced_paths": "repro.check.differential",
    "CHECK_DATASETS": "repro.check.differential",
    "ENGINES": "repro.check.differential",
    "build_program": "repro.check.genprog",
    "random_recipe": "repro.check.genprog",
    "recipes": "repro.check.genprog",
    "shrink_recipe": "repro.check.genprog",
    "run_fuzz": "repro.check.fuzz",
    "check_recipe": "repro.check.fuzz",
    "load_corpus": "repro.check.fuzz",
    "chaos_tune_check": "repro.check.chaos",
    "chaos_plan": "repro.check.chaos",
    "ChaosReport": "repro.check.chaos",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(modname), name)
