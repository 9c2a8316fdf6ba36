"""Threshold persistence — the analogue of Futhark's ``.tuning`` files.

The artifact workflow tunes once and reuses the thresholds across runs;
this module stores an assignment together with enough metadata to detect
stale files (program name, threshold list, a hash of the compiled program's
branching tree, device, training datasets).

Every writer here is crash-safe: documents go through
:func:`repro.ioutil.atomic_write_json` (temp file + ``os.replace``), so a
mid-write kill never leaves a corrupt ``.tuning`` / telemetry / checkpoint
file — either the old content survives or the new one is fully visible.

Checkpoints (``<tuning>.ckpt.json``, see :func:`save_checkpoint`) record a
crashed-or-killed tuning run's measurements so ``repro tune --resume`` can
replay them and continue, reproducing the bit-identical result an
uninterrupted run would have given (``docs/robustness.md``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping, Sequence

from repro.compiler import CompiledProgram
from repro.config import FUSIONS
from repro.flatten import render_tree
from repro.ioutil import atomic_write_json

__all__ = [
    "thresholds_doc",
    "save_thresholds",
    "load_thresholds",
    "telemetry_doc",
    "save_telemetry",
    "telemetry_path",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_path",
    "online_table_doc",
    "save_online_table",
    "load_online_table",
    "branching_tree_hash",
    "TuningFileError",
]

_FORMAT = 1
_CKPT_FORMAT = 1
_ONLINE_FORMAT = 2


class TuningFileError(Exception):
    pass


def branching_tree_hash(compiled: CompiledProgram) -> str:
    """A stable hash of the compiled program's branching tree *structure*.

    Hashes the rendered tree (guard nesting, threshold names and their
    ``Par`` expressions), so a tuning file is invalidated whenever
    recompilation changes which versions a threshold guards — even if the
    set of threshold names happens to stay the same.
    """
    text = render_tree(compiled.branching_trees())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def thresholds_doc(
    compiled: CompiledProgram,
    thresholds: Mapping[str, int],
    device: str = "",
    datasets: list[dict] | None = None,
) -> dict:
    """The tuning-file document for ``compiled``'s threshold parameters.

    Shared by :func:`save_thresholds` and the service daemon's artifact
    store, so a ``repro fetch``'d artifact is byte-identical to the file
    ``repro tune --output`` writes for the same job.
    """
    unknown = set(thresholds) - set(compiled.thresholds())
    if unknown:
        raise TuningFileError(f"unknown threshold name(s): {sorted(unknown)}")
    return {
        "format": _FORMAT,
        "program": compiled.prog.name,
        "mode": compiled.mode,
        "fusion": compiled.fusion,
        "device": device,
        "thresholds": dict(thresholds),
        "parameters": [
            {"name": t.name, "kind": t.kind, "par": str(t.par)}
            for t in compiled.registry.items
        ],
        "branching_tree": branching_tree_hash(compiled),
        "datasets": datasets or [],
    }


def save_thresholds(
    path: str,
    compiled: CompiledProgram,
    thresholds: Mapping[str, int],
    device: str = "",
    datasets: list[dict] | None = None,
) -> None:
    """Write a tuning file for ``compiled``'s threshold parameters."""
    doc = thresholds_doc(compiled, thresholds, device, datasets)
    atomic_write_json(path, doc, indent=2, sort_keys=True)


def _read(path: str, what: str, kind: str | None, fmt: int) -> dict:
    """Open and parse one tuning document of ``kind`` (tuning files carry
    none) and ``format``; ``what`` names the document in errors."""
    article = "an" if what[0] in "aeiou" else "a"
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise TuningFileError(f"cannot read {what} {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TuningFileError(f"{path}: not {article} {what} ({exc})") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise TuningFileError(f"{path}: not {article} {what}")
    if doc.get("format") != fmt:
        raise TuningFileError(
            f"{path}: unsupported format {doc.get('format')} for {article} {what}"
        )
    return doc


def _check_identity(
    doc: dict,
    path: str,
    what: str,
    compiled: CompiledProgram | None,
    device: str | None,
) -> None:
    """Reject a document stamped for another program, fusion mode,
    branching tree or device than the run reading it.

    A document without a device or a fusion mode passes those checks.  A
    missing branching-tree hash passes only for a tuning file (the one
    document without a ``kind``), whose format predates the hash.
    """
    if compiled is not None:
        if doc.get("program") != compiled.prog.name:
            raise TuningFileError(
                f"{path}: tuned for program {doc.get('program')!r}, "
                f"not {compiled.prog.name!r}"
            )
        stored_fusion = doc.get("fusion")
        if stored_fusion is not None and stored_fusion != compiled.fusion:
            # thresholds tuned against one fusion mode's branching tree are
            # meaningless under another; documents predating the fusion
            # field (no "fusion" key) are still caught by the tree hash below
            fix =(f"re-tune or pass --fusion {stored_fusion}"
                   if stored_fusion in FUSIONS else "re-tune")
            raise TuningFileError(
                f"{path}: tuned with fusion mode {stored_fusion!r}, but the "
                f"program is compiled with {compiled.fusion!r} "
                f"(stale {what}? {fix})"
            )
        stored_tree = doc.get("branching_tree")
        if (stored_tree is not None or "kind" in doc) and (
            stored_tree != branching_tree_hash(compiled)
        ):
            raise TuningFileError(
                f"{path}: branching tree differs from the compiled program "
                f"(stale {what}?)"
            )
    stored_device = doc.get("device")
    if device and stored_device and stored_device != device:
        raise TuningFileError(
            f"{path}: tuned for device {stored_device!r}, not {device!r} "
            f"(stale {what}?)"
        )


def load_thresholds(
    path: str,
    compiled: CompiledProgram | None = None,
    device: str | None = None,
) -> dict[str, int]:
    """Read a tuning file; verifies it matches ``compiled`` when given.

    ``device`` (a device name, e.g. ``"K40"``) additionally rejects a file
    tuned for a different device — thresholds encode a device's
    parallelism/local-memory trade-offs, so reusing them across devices
    silently reproduces the wrong branching-tree paths.  Files written
    without a device (``device=""``) are accepted on any device.
    """
    doc = _read(path, "tuning file", None, _FORMAT)
    _check_identity(doc, path, "tuning file", compiled, device)
    return _thresholds(doc.get("thresholds", {}), path, "tuning file", compiled)


def _thresholds(
    raw, path: str, what: str, compiled: CompiledProgram | None
) -> dict[str, int]:
    """One stored threshold assignment: integer values, and names the
    compiled program (when given) defines."""
    try:
        thresholds = {str(k): int(v) for k, v in raw.items()}
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
        raise TuningFileError(f"{path}: malformed {what} ({exc})") from None
    if compiled is not None and not set(thresholds) <= set(compiled.thresholds()):
        raise TuningFileError(
            f"{path}: threshold names do not match the compiled program "
            f"(stale {what}?)"
        )
    return thresholds


def telemetry_path(tuning_path: str) -> str:
    """Where :func:`save_telemetry` puts the telemetry for a tuning file."""
    return tuning_path + ".telemetry.json"


def telemetry_doc(
    result,
    compiled: CompiledProgram | None = None,
    device: str = "",
) -> dict:
    """The telemetry document :func:`save_telemetry` writes (also stored
    verbatim in service artifacts, keeping daemon-produced telemetry
    byte-identical to ``repro tune``'s)."""
    doc = result.telemetry()
    if compiled is not None:
        doc["program"] = compiled.prog.name
        doc["branching_tree"] = branching_tree_hash(compiled)
    if device:
        doc["device"] = device
    return doc


def save_telemetry(
    path: str,
    result,
    compiled: CompiledProgram | None = None,
    device: str = "",
) -> None:
    """Persist a :class:`~repro.tuning.tuner.TuningResult`'s convergence
    telemetry (best-so-far curve, threshold trajectories, branching-tree
    path counts) as JSON alongside the tuning file."""
    atomic_write_json(path, telemetry_doc(result, compiled, device),
                      indent=2, sort_keys=True)


# -- crash-safe tuning checkpoints ---------------------------------------------


def checkpoint_path(tuning_path: str) -> str:
    """Where a tuning run checkpoints its state while searching."""
    return tuning_path + ".ckpt.json"


def _encode_sig(sig) -> list:
    # path signatures are tuples of (threshold name, decision) pairs
    return [[name, bool(taken)] for name, taken in sig]


def _decode_sig(doc) -> tuple:
    return tuple((str(name), bool(taken)) for name, taken in doc)


def save_checkpoint(
    path: str,
    tuner,
    proposals_done: int,
    best_thresholds: Mapping[str, int] | None,
    best_cost: float | None,
) -> None:
    """Atomically persist a tuning run's recoverable state.

    The checkpoint holds everything a resumed run cannot recompute from
    the seed alone: the per-dataset *measurements* (path signature →
    observed time — on real hardware these are irreproducible
    observations) and the quarantine set.  Proposal order, technique state
    and cache accounting are deterministic functions of the seed, so
    ``--resume`` replays the search from proposal 0 against these recorded
    measurements and lands, bit-identically, where an uninterrupted run
    would have (see ``docs/robustness.md``).
    """
    doc = {
        "kind": "tuning-checkpoint",
        "format": _CKPT_FORMAT,
        "program": tuner.compiled.prog.name,
        "fusion": tuner.compiled.fusion,
        "branching_tree": branching_tree_hash(tuner.compiled),
        "device": tuner.device.name,
        "seed": tuner.seed,
        "noise": tuner.noise,
        "datasets": [dict(d) for d in tuner.datasets],
        "proposals_done": proposals_done,
        "best_cost": (
            None if best_cost is None or best_cost != best_cost
            or best_cost in (float("inf"), float("-inf")) else best_cost
        ),
        "best_thresholds": dict(best_thresholds) if best_thresholds else None,
        "measurements": [
            [[_encode_sig(sig), t] for sig, t in cache.items()]
            for cache in tuner.measurements()
        ],
        "quarantined": [
            [dict(cfg), reason] for cfg, reason in tuner.quarantine_list()
        ],
    }
    atomic_write_json(path, doc, indent=2, sort_keys=True)


def load_checkpoint(
    path: str,
    compiled: CompiledProgram | None = None,
    device: str | None = None,
    datasets: Sequence[Mapping[str, int]] | None = None,
) -> dict:
    """Read a tuning checkpoint, verifying it matches the resumed run.

    Returns the decoded document with ``measurements`` as a list (one per
    dataset) of ``{signature: time}`` dicts ready for
    :meth:`~repro.tuning.tuner.Autotuner.preload_measurements`.  Raises
    :class:`TuningFileError` on a malformed file or on any mismatch
    (program, branching tree, device, training datasets) — resuming a
    checkpoint from a different search would silently corrupt the result.
    """
    doc = _read(path, "tuning checkpoint", "tuning-checkpoint", _CKPT_FORMAT)
    _check_identity(doc, path, "tuning checkpoint", compiled, device)
    if datasets is not None:
        stored = [dict(d) for d in doc.get("datasets", [])]
        if stored != [dict(d) for d in datasets]:
            raise TuningFileError(
                f"{path}: training datasets differ from the checkpointed run"
            )
    try:
        doc["measurements"] = [
            {_decode_sig(sig): float(t) for sig, t in entries}
            for entries in doc.get("measurements", [])
        ]
        doc["quarantined"] = [
            ({str(k): int(v) for k, v in cfg.items()}, str(reason))
            for cfg, reason in doc.get("quarantined", [])
        ]
    except (TypeError, ValueError) as exc:
        raise TuningFileError(f"{path}: malformed checkpoint ({exc})") from None
    return doc


# -- online per-shape-class threshold tables -----------------------------------


def online_table_doc(tuner) -> dict:
    """The persisted form of an :class:`~repro.tuning.online.OnlineTuner`.

    Stamped like a tuning file — program, mode, fusion mode, branching-tree
    hash, device — so a resumed service can detect that a recompile or a
    flag change invalidated the table.
    """
    compiled = tuner.compiled
    return {
        "kind": "online-table",
        "format": _ONLINE_FORMAT,
        "program": compiled.prog.name,
        "mode": compiled.mode,
        "fusion": compiled.fusion,
        "branching_tree": branching_tree_hash(compiled),
        "device": tuner.device.name,
        "classes": tuner.classes(),
    }


def save_online_table(path: str, tuner) -> None:
    """Atomically persist an online tuner's shape-class table.

    Called after every class tune, so a tuned class survives ``kill -9``:
    either the previous table or the one including the new class is on
    disk, never a torn mix.
    """
    atomic_write_json(path, online_table_doc(tuner), indent=2, sort_keys=True)


def load_online_table(
    path: str,
    compiled: CompiledProgram | None = None,
    device: str | None = None,
) -> dict[str, dict[str, int]]:
    """Read an online table's ``{shape key: thresholds}``, verifying it
    matches ``compiled``.

    Raises :class:`TuningFileError` on a malformed file (each class's
    thresholds are checked as :func:`load_thresholds` checks a tuning
    file's) or on any staleness (format, program, fusion mode, branching
    tree, device).
    """
    doc = _read(path, "online table", "online-table", _ONLINE_FORMAT)
    _check_identity(doc, path, "online table", compiled, device)
    classes = doc.get("classes", {})
    if not isinstance(classes, dict):
        raise TuningFileError(f"{path}: malformed online table (classes)")
    return {
        str(key): _thresholds(th, path, "online table", compiled)
        for key, th in classes.items()
    }
