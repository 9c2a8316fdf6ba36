"""Service jobs: specs, content fingerprints, runtime state, the spool.

A *job spec* is the client-supplied description of one unit of work —
``tune`` (autotune thresholds), ``compile`` (flatten + codegen metadata),
``run`` (execute on deterministic random inputs) or ``online`` (execute
with daemon-side online threshold dispatch from the tenant's
shape-class table; ``docs/online-tuning.md``) — normalised here to a
canonical field set so that equivalent submissions fingerprint
identically.  ``online`` jobs are never served from the artifact store:
a submission may tune its shape class, and its thresholds come from the
table, not from the spec alone.

The *fingerprint* covers exactly what determines the artifact: the
program identity (name, flattening mode, fusion mode, branching-tree
hash), the device, the dataset shape signature and the result-relevant
tuner/run configuration.  ``checkpoint_every`` cannot change the result
and is deliberately excluded, so a job resubmitted with a different
checkpoint interval is still a warm cache hit.  ``batch_size`` is a
search parameter (it changes the proposal sequence), so it is keyed.

A :class:`Job` is the daemon's runtime object: spec + state machine
(``queued → running → done | failed | canceled``) + an append-only event
log that streaming clients subscribe to.  The :class:`Spool` persists
each job record atomically (``<spool>/jobs/<id>.json``) at two points:
once at admission, before a runner can start the job or the client hears
its id, and once in its terminal state.  A restarted daemon re-enqueues
every job whose record is not terminal, and the Spool's per-job tuning
checkpoints (``<spool>/ckpt/``) let a ``kill -9``'d daemon resume an
interrupted tune bit-identically via the checkpoint machinery
(``docs/robustness.md``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Any, Callable

from repro.config import ENGINES
from repro.ioutil import atomic_write_json
from repro.request import DEVICES, MODES, TECHNIQUES, RequestError
from repro.service.queue import PRIORITIES
from repro.service.store import job_key

__all__ = [
    "JobSpecError",
    "JOB_KINDS",
    "TERMINAL_STATES",
    "normalize_spec",
    "fingerprint",
    "id_order",
    "Job",
    "Spool",
]

JOB_KINDS = ("tune", "compile", "run", "online")
TERMINAL_STATES = ("done", "failed", "canceled")


class JobSpecError(RequestError):
    """A submitted job spec is malformed (reported as a 400-style error)."""


def _as_sizes(doc: Any, what: str) -> dict[str, int]:
    """A size object's names and integer values; the daemon checks them
    against the program at admission (:func:`repro.request.check_sizes`)."""
    if not isinstance(doc, dict) or not doc:
        raise JobSpecError(f"{what} must be a non-empty object of sizes")
    try:
        return {str(k): int(v) for k, v in doc.items()}
    except (TypeError, ValueError):
        raise JobSpecError(f"{what} must map names to integers") from None


def _choice(doc: dict, field: str, allowed: tuple, default: str) -> str:
    value = str(doc.get(field, default))
    if value not in allowed:
        raise JobSpecError(
            f"unknown {field} {value!r} (expected one of {', '.join(allowed)})"
        )
    return value


def normalize_spec(doc: Any, result_affecting: dict) -> dict:
    """Validate a submitted job spec and return its canonical form.

    The canonical form has a fixed field set per kind (defaults filled
    in), so two submissions meaning the same work normalise — and
    therefore fingerprint — identically.  ``result_affecting`` is the
    daemon's ``Config.result_affecting()``: the fusion mode the job
    compiles under.  It is not a client field, so the fingerprint covers
    it and every later compile for the job (run, resume after a restart,
    fetch) uses the same mode, whatever ``REPRO_FUSION`` a restarted
    daemon has.
    """
    if not isinstance(doc, dict):
        raise JobSpecError("job must be an object")
    kind = _choice(doc, "kind", JOB_KINDS, "tune")
    program = doc.get("program")
    source = doc.get("source")
    if bool(program) == bool(source):
        raise JobSpecError("job needs exactly one of 'program' (a built-in "
                           "benchmark name) or 'source' (program text)")
    spec: dict[str, Any] = {
        "kind": kind,
        "program": str(program) if program else None,
        "source": str(source) if source else None,
        "mode": _choice(doc, "mode", MODES, "incremental"),
        **result_affecting,
    }
    known = {"kind", "program", "source", "mode"}
    if kind == "tune":
        datasets = doc.get("datasets")
        if not isinstance(datasets, list) or not datasets:
            raise JobSpecError("tune job needs a non-empty 'datasets' list")
        spec.update(
            datasets=[_as_sizes(d, "dataset") for d in datasets],
            device=_choice(doc, "device", DEVICES, "K40"),
            technique=_choice(doc, "technique", TECHNIQUES, "bandit"),
            proposals=int(doc.get("proposals", 300)),
            seed=int(doc.get("seed", 0)),
            noise=float(doc.get("noise", 0.0)),
            batch_size=int(doc.get("batch_size", 1)),
            # result-neutral (excluded from the fingerprint)
            checkpoint_every=int(doc.get("checkpoint_every", 10)),
        )
        if spec["proposals"] < 1:
            raise JobSpecError("tune job needs proposals >= 1")
        if spec["batch_size"] < 1:
            raise JobSpecError("tune job needs batch_size >= 1")
        known |= {"datasets", "device", "technique", "proposals", "seed",
                  "noise", "batch_size", "checkpoint_every"}
    elif kind == "run":
        spec.update(
            sizes=_as_sizes(doc.get("sizes"), "'sizes'"),
            seed=int(doc.get("seed", 0)),
            engine=_choice(doc, "engine", ENGINES, "scalar"),
            thresholds={
                str(k): int(v)
                for k, v in (doc.get("thresholds") or {}).items()
            },
        )
        known |= {"sizes", "seed", "engine", "thresholds"}
    elif kind == "online":
        spec.update(
            sizes=_as_sizes(doc.get("sizes"), "'sizes'"),
            seed=int(doc.get("seed", 0)),
            engine=_choice(doc, "engine", ENGINES, "scalar"),
            device=_choice(doc, "device", DEVICES, "K40"),
        )
        known |= {"sizes", "seed", "engine", "device"}
    unknown = set(doc) - known
    if unknown:
        raise JobSpecError(f"unknown job field(s): {sorted(unknown)}")
    return spec


def fingerprint(spec: dict, tree_hash: str) -> str:
    """The job's content fingerprint (the artifact-store key preimage).

    ``tree_hash`` is the compiled program's branching-tree hash
    (:func:`repro.tuning.persist.branching_tree_hash`), which pins the
    program *structure* — a program edit that changes which versions a
    threshold guards invalidates every cached artifact, even if the
    program name stays the same.
    """
    keyed = {k: v for k, v in spec.items() if k != "checkpoint_every"}
    keyed["fingerprint_version"] = 1
    keyed["branching_tree"] = tree_hash
    return json.dumps(keyed, sort_keys=True, separators=(",", ":"))


def id_order(job_id: str) -> tuple[int, int, str]:
    """Sort key putting job ids in submission order: ``j2`` before ``j10``.

    A name that is not ``j<digits>`` sorts after every job id, by name.
    """
    digits = job_id[1:]
    if job_id.startswith("j") and digits.isascii() and digits.isdigit():
        return (0, int(digits), job_id)
    return (1, 0, job_id)


class Job:
    """One submitted job: spec, state machine, append-only event log."""

    def __init__(self, job_id: str, tenant: str, priority: str, spec: dict):
        if priority not in PRIORITIES:
            raise JobSpecError(
                f"unknown priority {priority!r} (expected one of {PRIORITIES})"
            )
        self.id = job_id
        self.tenant = tenant
        self.priority = priority
        self.spec = spec
        self.state = "queued"
        self.error: str | None = None
        self.key: str | None = None  # artifact-store key, set at run time
        #: the fingerprint ``key`` hashes, so a fetch never recompiles
        self.fingerprint: str | None = None
        self.cached = False  # served from the artifact store
        #: inline result payload for jobs that bypass the artifact store
        #: (online jobs: a submission may tune its class, never a cache hit)
        self.result: dict | None = None
        self.cancel_requested = False
        self.events: list[dict] = []
        self._cond = threading.Condition()

    # -- events --------------------------------------------------------------

    @property
    def events_lock(self) -> threading.Condition:
        """Held by :meth:`emit`; hold it to order other work before an
        event no other thread may precede."""
        return self._cond

    def emit(self, event: str, **fields: Any) -> dict:
        """Append an event and wake streaming subscribers."""
        with self._cond:
            doc = {"event": event, "job": self.id, "seq": len(self.events),
                   "ts": round(time.time(), 3), **fields}
            self.events.append(doc)
            self._cond.notify_all()
            return doc

    def events_from(self, seq: int, timeout: float | None = None) -> list[dict]:
        """Events with ``seq >= seq``, blocking up to ``timeout`` for one."""
        with self._cond:
            if len(self.events) <= seq and timeout:
                self._cond.wait(timeout)
            return list(self.events[seq:])

    def wait_terminal(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state (True) or times out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self.state not in TERMINAL_STATES:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining if remaining is not None else 1.0)
            return True

    def set_state(self, state: str, error: str | None = None) -> None:
        with self._cond:
            self.state = state
            if error is not None:
                self.error = error
            self._cond.notify_all()

    # -- serialisation -------------------------------------------------------

    def summary(self) -> dict:
        doc = {
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "kind": self.spec.get("kind"),
            "program": self.spec.get("program") or "<source>",
            "state": self.state,
            "cached": self.cached,
        }
        if self.key:
            doc["key"] = self.key
        if self.error:
            doc["error"] = self.error
        return doc

    def record(self) -> dict:
        return {
            "kind": "service-job",
            "format": 1,
            "id": self.id,
            "tenant": self.tenant,
            "priority": self.priority,
            "state": self.state,
            "error": self.error,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "cached": self.cached,
            "result": self.result,
            "spec": self.spec,
            "events": list(self.events),
        }

    @classmethod
    def from_record(cls, doc: dict) -> "Job":
        spec = dict(doc["spec"])
        # records from before jobs carried their fusion mode: the default
        recorded = {"fusion": str(spec.pop("fusion", "ilp"))}
        job = cls(
            str(doc["id"]), str(doc.get("tenant", "default")),
            str(doc.get("priority", "normal")), normalize_spec(spec, recorded),
        )
        job.state = str(doc.get("state", "queued"))
        job.error = doc.get("error")
        job.key = doc.get("key")
        # records from before jobs carried it have none: fetch derives it
        job.fingerprint = doc.get("fingerprint")
        job.cached = bool(doc.get("cached", False))
        job.result = doc.get("result")
        job.events = list(doc.get("events", []))
        return job


class Spool:
    """The daemon's durable state: job records, tuning checkpoints, and
    online shape-class tables (``<spool>/online/``)."""

    def __init__(self, root: str):
        self.root = os.fspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        self.ckpt_dir = os.path.join(self.root, "ckpt")
        self.online_dir = os.path.join(self.root, "online")
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(self.ckpt_dir, exist_ok=True)
        os.makedirs(self.online_dir, exist_ok=True)

    def record_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, job_id + ".json")

    def ckpt_path(self, job_id: str) -> str:
        return os.path.join(self.ckpt_dir, job_id + ".ckpt.json")

    def online_path(self, key: str) -> str:
        """Where an online shape-class table persists (key: program
        identity hash, see ``ServiceDaemon._online_tuner``)."""
        return os.path.join(self.online_dir, key + ".json")

    def save(self, job: Job) -> None:
        """Atomically persist the job record (crash-safe, PR 5 ioutil).

        A job is saved at admission, before it is queued, and in its
        terminal state, by the one thread that ended it; the two never
        overlap.
        """
        atomic_write_json(self.record_path(job.id), job.record(),
                          indent=2, sort_keys=True)

    def load_all(self, log: Callable[[str], None] = lambda _msg: None) -> list[Job]:
        """Every persisted job, oldest id first; corrupt records skipped."""
        jobs: list[Job] = []
        try:
            names = sorted(os.listdir(self.jobs_dir),
                           key=lambda nm: id_order(nm.removesuffix(".json")))
        except OSError:
            return jobs
        for nm in names:
            if not nm.endswith(".json"):
                continue
            path = os.path.join(self.jobs_dir, nm)
            try:
                with open(path, encoding="utf-8") as fh:
                    doc = json.load(fh)
                jobs.append(Job.from_record(doc))
            except (OSError, ValueError, KeyError, JobSpecError) as exc:
                log(f"spool: skipping corrupt job record {nm}: {exc}")
        return jobs


def artifact_key(spec: dict, tree_hash: str) -> tuple[str, str]:
    """(store key, fingerprint) for a normalised spec."""
    fp = fingerprint(spec, tree_hash)
    return job_key(fp), fp
