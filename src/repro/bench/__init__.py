"""The paper's benchmark suite: programs, datasets, references, runners.

The package ``__init__`` resolves its names lazily (the idiom of
:mod:`repro.check`): ``repro list`` and ``repro tune`` read
:mod:`repro.bench.datasets`, and importing it must not load the figure
runner with its tuners and references.
"""

from __future__ import annotations

_LAZY = {
    "FIG2_SWEEP": "repro.bench.datasets",
    "LOCVOLCALIB_DATASETS": "repro.bench.datasets",
    "TABLE1": "repro.bench.datasets",
    "table1_sizes": "repro.bench.datasets",
    "BULK_BENCHMARKS": "repro.bench.runner",
    "BenchSpec": "repro.bench.runner",
    "code_expansion_rows": "repro.bench.runner",
    "fig2_rows": "repro.bench.runner",
    "fig7_rows": "repro.bench.runner",
    "fig8_rows": "repro.bench.runner",
    "fullflat_rows": "repro.bench.runner",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(modname), name)
