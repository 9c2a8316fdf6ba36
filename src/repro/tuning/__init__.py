"""Threshold autotuning (paper §4.2): parameters, search, path caching,
and online adaptation under live traffic (``docs/online-tuning.md``)."""

from repro.tuning.exhaustive import TooManySignatures, candidate_values, exhaustive_tune
from repro.tuning.online import OnlineDecision, OnlineTuner
from repro.tuning.params import LogIntegerParameter, ParameterSpace
from repro.tuning.persist import (
    TuningFileError,
    branching_tree_hash,
    checkpoint_path,
    load_checkpoint,
    load_online_table,
    load_thresholds,
    save_checkpoint,
    save_online_table,
    save_telemetry,
    save_thresholds,
    telemetry_path,
)
from repro.tuning.search import AUCBandit, HillClimb, RandomSearch, make_technique
from repro.tuning.shapes import describe_class, log_bucket, shape_class, shape_key
from repro.tuning.tree import (
    SignatureEngine,
    path_signature,
    signature_boxes,
    thresholds_in,
)
from repro.tuning.tuner import Autotuner, TuningResult

__all__ = [
    "Autotuner",
    "TuningResult",
    "LogIntegerParameter",
    "ParameterSpace",
    "RandomSearch",
    "HillClimb",
    "AUCBandit",
    "make_technique",
    "SignatureEngine",
    "path_signature",
    "signature_boxes",
    "thresholds_in",
    "TooManySignatures",
    "candidate_values",
    "exhaustive_tune",
    "OnlineTuner",
    "OnlineDecision",
    "log_bucket",
    "shape_class",
    "shape_key",
    "describe_class",
    "TuningFileError",
    "branching_tree_hash",
    "checkpoint_path",
    "load_checkpoint",
    "load_thresholds",
    "load_online_table",
    "save_checkpoint",
    "save_thresholds",
    "save_online_table",
    "save_telemetry",
    "telemetry_path",
]
