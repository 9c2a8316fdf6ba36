"""Threshold autotuning (paper §4.2): parameters, search, path caching,
and per-shape-class tuning under live traffic (``docs/online-tuning.md``).

The package ``__init__`` resolves its names lazily (the idiom of
:mod:`repro.check`), so ``from repro.tuning import Autotuner`` loads the
stochastic tuner and what it uses, not the exhaustive or online tuners.
"""

from __future__ import annotations

_LAZY = {
    "Autotuner": "repro.tuning.tuner",
    "TuningResult": "repro.tuning.tuner",
    "LogIntegerParameter": "repro.tuning.params",
    "ParameterSpace": "repro.tuning.params",
    "RandomSearch": "repro.tuning.search",
    "HillClimb": "repro.tuning.search",
    "AUCBandit": "repro.tuning.search",
    "make_technique": "repro.tuning.search",
    "SignatureEngine": "repro.tuning.tree",
    "path_signature": "repro.tuning.tree",
    "signature_boxes": "repro.tuning.tree",
    "thresholds_in": "repro.tuning.tree",
    "TooManySignatures": "repro.tuning.exhaustive",
    "candidate_values": "repro.tuning.exhaustive",
    "exhaustive_tune": "repro.tuning.exhaustive",
    "OnlineTuner": "repro.tuning.online",
    "OnlineDecision": "repro.tuning.online",
    "log_bucket": "repro.tuning.shapes",
    "shape_class": "repro.tuning.shapes",
    "shape_key": "repro.tuning.shapes",
    "TuningFileError": "repro.tuning.persist",
    "branching_tree_hash": "repro.tuning.persist",
    "checkpoint_path": "repro.tuning.persist",
    "load_checkpoint": "repro.tuning.persist",
    "load_thresholds": "repro.tuning.persist",
    "load_online_table": "repro.tuning.persist",
    "save_checkpoint": "repro.tuning.persist",
    "save_thresholds": "repro.tuning.persist",
    "save_online_table": "repro.tuning.persist",
    "save_telemetry": "repro.tuning.persist",
    "telemetry_path": "repro.tuning.persist",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        modname = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(modname), name)
