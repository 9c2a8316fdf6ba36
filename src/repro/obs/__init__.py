"""Structured tracing and observability (see ``docs/observability.md``).

The paper's argument is about *measured* behaviour — which branching-tree
path ran, what the tuner converged to, what each compiler pass did to the
program — so this package makes those measurements first-class:

* :mod:`repro.obs.trace` — the span tracer (nested, thread-safe, near-zero
  cost when off).  Instrumentation lives in the compiler (one span per
  pass, with IR node deltas), the parser, the OpenCL code generator, the
  GPU cost simulator (one span per simulated kernel launch), and the
  autotuner (one span per proposal).
* :mod:`repro.obs.chrome` — export to Chrome-trace JSON for
  ``chrome://tracing`` / Perfetto.
* :mod:`repro.obs.summary` — aggregated human-readable tables.

Entry points: ``repro profile PROG`` and the ``--trace out.json`` flag on
the ``show``/``simulate``/``tune``/``check`` subcommands.  The
:mod:`repro.perf` counters/timers are built on the same backbone: every
``perf.timer`` block also records a span while tracing is active.

The package ``__init__`` resolves its names lazily (the idiom of
:mod:`repro.check`): every instrumented module imports
:mod:`repro.obs.trace`, and that must not load the exporters.
"""

from __future__ import annotations

_LAZY = {
    "Span": "repro.obs.trace",
    "Tracer": "repro.obs.trace",
    "NULL_SPAN": "repro.obs.trace",
    "start": "repro.obs.trace",
    "stop": "repro.obs.trace",
    "current": "repro.obs.trace",
    "enabled": "repro.obs.trace",
    "tracing": "repro.obs.trace",
    "span": "repro.obs.trace",
    "instant": "repro.obs.trace",
    "to_chrome": "repro.obs.chrome",
    "dump_chrome": "repro.obs.chrome",
    "write_chrome_trace": "repro.obs.chrome",
    "SpanStats": "repro.obs.summary",
    "aggregate": "repro.obs.summary",
    "render_summary": "repro.obs.summary",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(modname), name)
