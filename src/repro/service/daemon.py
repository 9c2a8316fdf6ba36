"""The ``repro serve`` daemon: tuning-as-a-service over a local socket.

The daemon turns the paper's batch autotuner into a long-running,
multi-tenant service (the ROADMAP's top open item): clients submit
tune/compile/run/online jobs as JSON lines over a Unix or TCP socket, the
:class:`~repro.service.queue.FairShareQueue` schedules them across
tenants, runner threads execute them, and finished artifacts land in the
content-addressed :class:`~repro.service.store.ArtifactStore`, so an
identical job from any tenant returns without evaluating a proposal.
Every job compiles under the settings the daemon recorded in its spec at
admission (``Config.result_affecting()``: the fusion mode), so the store
key covers them.
A daemon compiles each (program, mode, fusion) once and keeps the result
in a bounded memo, and a job record carries its artifact fingerprint, so
a store hit and a fetch cost store reads, not a compile.

Wire protocol (one JSON object per line, ``docs/service.md``):

========  =====================================================
op        reply
========  =====================================================
ping      daemon stats: queue depth per tenant, served counts,
          ``service.*`` perf counters
submit    ``{"ok": true, "job": id}`` — or a ``429`` rejection
          with ``retry_after_s`` when admission control refuses;
          with ``"stream": true`` the reply is followed by the
          job's event lines through its terminal event
jobs      summaries of every known job
status    one job's summary
events    a job's event log from a sequence number
result    blocks for the terminal state, returns the artifact
cancel    cancel a queued job, or interrupt a running one at its
          next batch boundary (its checkpoint survives)
shutdown  begin graceful shutdown: stop admitting, drain
========  =====================================================

Crash-safety is inherited rather than reinvented: every job record is
made durable in the spool twice, at admission (before a runner can start
it) and in its terminal state; tuning jobs checkpoint through the
``repro tune --resume`` machinery into ``<spool>/ckpt/``, and a daemon
that is ``kill -9``'d mid-job re-enqueues its unfinished jobs on restart
and resumes them to bit-identical artifacts.  ``online`` jobs execute
with online threshold dispatch (``docs/online-tuning.md``): a
long-running tenant's submissions share one
:class:`~repro.tuning.online.OnlineTuner` per program identity, whose
shape-class table persists atomically in ``<spool>/online/`` after every
class tune — a restarted daemon resumes every tuned class.  The PR 5 fault
injector composes transparently (``repro serve --faults PLAN``): transient
``sim.kernel`` faults are retried by the tuner; ``process_kill`` at
``tuner.batch`` kills the daemon itself (exit 137) — the chaos recipe CI
runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import socket
import threading
import time
from collections import OrderedDict
from typing import Any

from repro import config, perf
from repro.exec import guard
from repro.obs import trace as obs
from repro.service.jobs import (
    TERMINAL_STATES,
    Job,
    JobSpecError,
    Spool,
    artifact_key,
    demote_engine,
    id_order,
    normalize_spec,
)
from repro.service.queue import FairShareQueue, QueueFull
from repro.service.store import ArtifactStore

__all__ = ["ServiceDaemon", "JobCancelled"]

#: compiled programs one daemon keeps, least recently used dropped first
COMPILE_MEMO_MAX = 32


class JobCancelled(Exception):
    """Raised inside a running job's progress callback to interrupt it."""


def _resolve_program(spec: dict):
    """The job's program: a built-in benchmark or submitted source text."""
    if spec.get("source"):
        from repro.parser import parse_program

        return parse_program(spec["source"])
    name = spec["program"]
    from repro.bench.programs import MODULES, program_constructor

    for key in MODULES:
        if key.lower() == str(name).lower():
            return program_constructor(key)()
    raise JobSpecError(
        f"unknown program {name!r} (built-ins: {', '.join(MODULES)})"
    )


def _device(name: str):
    from repro.gpu import K40, VEGA64

    return {"K40": K40, "Vega64": VEGA64}[name]


def _check_sizes(prog, sizes: dict, what: str) -> None:
    missing = sorted(prog.size_vars() - sizes.keys())
    if missing:
        raise JobSpecError(f"{what} must bind size(s) {', '.join(missing)}")


def _json_cost(cost: float) -> float | None:
    # progress events are strict JSON; an unmeasured best is null, not inf
    return cost if isinstance(cost, (int, float)) and math.isfinite(cost) else None


def _output_digests(outs) -> list[dict]:
    """Shape/dtype/sha256 of each program output (run/online payloads)."""
    import numpy as np

    digests = []
    for out in outs:
        arr = np.asarray(out)
        digests.append({
            "shape": list(arr.shape),
            "dtype": str(arr.dtype),
            "sha256": hashlib.sha256(
                np.ascontiguousarray(arr).tobytes()
            ).hexdigest(),
        })
    return digests


class ServiceDaemon:
    """One service instance: listeners + queue + runners + spool + store."""

    def __init__(
        self,
        spool_dir: str,
        socket_path: str | None = None,
        port: int | None = None,
        host: str = "127.0.0.1",
        runners: int = 2,
        max_depth: int = 64,
        retry_after_s: float = 1.0,
        shed_watermark_s: float = 5.0,
        store_dir: str | None = None,
        store_max: int | None = None,
        log=None,
    ):
        if socket_path is None and port is None:
            raise ValueError("daemon needs a --socket path or a --port")
        #: the result-affecting settings admitted jobs record in their spec
        self.result_affecting = config.current().result_affecting()
        self.spool = Spool(spool_dir)
        self.store = ArtifactStore(
            store_dir or os.path.join(self.spool.root, "store"), store_max
        )
        self.queue = FairShareQueue(max_depth=max_depth, retry_after_s=retry_after_s)
        #: sustained queue wait (EWMA) above this sheds normal-priority
        #: submissions and demotes admitted jobs' engine one tier;
        #: recovery at half the watermark (hysteresis, no flapping)
        self.shed_watermark_s = float(shed_watermark_s)
        self._shed_active = False
        self._shed_lock = threading.Lock()
        self.socket_path = socket_path
        self.host = host
        self.port = port  # rebound to the real port after bind when 0
        self.n_runners = int(runners)
        self._log_fn = log if log is not None else (lambda msg: None)
        self.jobs: dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        #: online shape-class tuners, shared across jobs and runner threads,
        #: keyed on the program identity hash (see _online_tuner)
        self._online: dict[str, Any] = {}
        self._online_lock = threading.Lock()
        #: (program identity, mode, fusion) -> (prog, cp, tree hash), LRU
        self._compiled_memo: OrderedDict[tuple, tuple] = OrderedDict()
        self._compile_lock = threading.Lock()
        self._id_lock = threading.Lock()
        self._next_id = 0
        self._listeners: list[socket.socket] = []
        self._threads: list[threading.Thread] = []
        self._runners: list[threading.Thread] = []
        self._stop = threading.Event()
        self._shutdown_requested = threading.Event()
        self._started = False

    def _log(self, msg: str) -> None:
        self._log_fn(msg)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Bind listeners, recover the spool, start runner threads."""
        self._recover()
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)  # stale socket from a kill -9
            srv = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            srv.bind(self.socket_path)
            srv.listen(16)
            srv.settimeout(0.2)
            self._listeners.append(srv)
            self._log(f"listening on unix socket {self.socket_path}")
        if self.port is not None:
            srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            srv.bind((self.host, self.port))
            srv.listen(16)
            srv.settimeout(0.2)
            self.port = srv.getsockname()[1]
            self._listeners.append(srv)
            self._log(f"listening on {self.host}:{self.port}")
        for srv in self._listeners:
            t = threading.Thread(target=self._accept_loop, args=(srv,), daemon=True)
            t.start()
            self._threads.append(t)
        for i in range(self.n_runners):
            t = threading.Thread(target=self._runner_loop, name=f"runner-{i}")
            t.start()
            self._runners.append(t)
        self._started = True
        self._log(
            f"serving with {self.n_runners} runner(s), "
            f"queue depth {self.queue.max_depth}, "
            f"store at {self.store.directory}"
        )

    def _recover(self) -> None:
        """Re-register spooled jobs; re-enqueue the ones a crash cut short.

        A record that is not terminal belongs to a job the previous daemon
        admitted but did not finish; its tuning checkpoint (if any) is in
        the spool, so re-running the job resumes it bit-identically rather
        than starting over.  Its record stays as it is until the job ends.
        """
        for job in self.spool.load_all(self._log):
            with self._id_lock:
                try:
                    self._next_id = max(self._next_id, int(job.id[1:]))
                except ValueError:
                    pass
            with self._jobs_lock:
                self.jobs[job.id] = job
            if job.state in TERMINAL_STATES:
                continue
            job.set_state("queued")
            job.emit("requeued")
            try:
                self.queue.put(job.tenant, job.priority, job)
            except QueueFull as exc:
                job.set_state("failed", error=str(exc))
                job.emit("failed", error=str(exc))
                self.spool.save(job)
                continue
            perf.inc("service.jobs.recovered")
            self._log(f"recovered job {job.id} ({job.tenant}/{job.priority})")

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (signal-safe; SIGTERM lands here)."""
        self._shutdown_requested.set()

    def serve_until_shutdown(self) -> int:
        """Block until shutdown is requested, then drain and stop."""
        self._shutdown_requested.wait()
        self._log("shutdown requested: draining in-flight jobs")
        self.queue.close()  # refuse new work; admitted jobs stay takeable
        for t in self._runners:
            t.join()
        # breaker transitions persist eagerly, but a half-open probe that
        # *closed* a breaker during the drain only updated memory — flush
        # after the runners stop so no probe outcome dies with the daemon
        guard.flush()
        self._stop.set()
        for srv in self._listeners:
            try:
                srv.close()
            except OSError:
                pass
        if self.socket_path is not None:
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
        self._log("drained; bye")
        return 0

    def stop(self) -> None:
        """Request shutdown and wait for the drain (tests, embedders)."""
        self.request_shutdown()
        self.serve_until_shutdown()

    # -- connection handling -------------------------------------------------

    def _accept_loop(self, srv: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = srv.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            t = threading.Thread(target=self._handle_conn, args=(conn,), daemon=True)
            t.start()

    def _handle_conn(self, conn: socket.socket) -> None:
        try:
            rd = conn.makefile("r", encoding="utf-8", newline="\n")
            wr = conn.makefile("w", encoding="utf-8", newline="\n")
            for line in rd:
                line = line.strip()
                if not line:
                    continue
                try:
                    req = json.loads(line)
                except ValueError:
                    self._send(wr, {"ok": False, "code": 400,
                                    "error": "request is not valid JSON"})
                    continue
                try:
                    self._dispatch(req if isinstance(req, dict) else {}, wr)
                except (BrokenPipeError, ConnectionResetError):
                    return
                except Exception as exc:  # never kill the daemon on one request
                    self._send(wr, {"ok": False, "code": 500, "error": str(exc)})
        except (OSError, ValueError):
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    @staticmethod
    def _send(wr, doc: dict) -> None:
        wr.write(json.dumps(doc, sort_keys=True) + "\n")
        wr.flush()

    def _dispatch(self, req: dict, wr) -> None:
        op = req.get("op")
        if op == "ping":
            self._send(wr, self._ping_doc())
        elif op == "health":
            self._send(wr, self._health_doc())
        elif op == "submit":
            self._op_submit(req, wr)
        elif op == "jobs":
            with self._jobs_lock:
                summaries = [self.jobs[k].summary()
                             for k in sorted(self.jobs, key=id_order)]
            self._send(wr, {"ok": True, "jobs": summaries,
                            "queue": self.queue.per_tenant()})
        elif op == "status":
            job = self._job_or_error(req, wr)
            if job is not None:
                self._send(wr, {"ok": True, **job.summary()})
        elif op == "events":
            job = self._job_or_error(req, wr)
            if job is not None:
                seq = int(req.get("from", 0))
                wait = float(req.get("wait", 0) or 0)
                self._send(wr, {"ok": True, "job": job.id,
                                "events": job.events_from(seq, wait or None)})
        elif op == "result":
            self._op_result(req, wr)
        elif op == "cancel":
            job = self._job_or_error(req, wr)
            if job is not None:
                self._send(wr, self._cancel(job))
        elif op == "shutdown":
            self._send(wr, {"ok": True, "draining": self.queue.depth()})
            self.request_shutdown()
        else:
            self._send(wr, {"ok": False, "code": 400,
                            "error": f"unknown op {op!r}"})

    def _ping_doc(self) -> dict:
        with self._jobs_lock:
            states: dict[str, int] = {}
            for job in self.jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        counters = {
            k: v for k, v in perf.counters().items() if k.startswith("service.")
        }
        return {
            "ok": True,
            "pong": True,
            "jobs": states,
            "queue": {"depth": self.queue.depth(),
                      "pending": self.queue.per_tenant(),
                      "served": dict(self.queue.served)},
            "counters": counters,
        }

    def _health_doc(self) -> dict:
        """The ``health`` wire op: everything an operator (or the chaos CI
        leg) needs to judge this daemon — queue depths and latency,
        admission/shedding state, per-tenant stats, and the execution
        guard's breaker states and demotion/verify counters
        (``docs/guarded-execution.md``)."""
        doc = self._ping_doc()
        doc.pop("pong", None)
        doc["queue"]["wait_ewma_s"] = round(self.queue.wait_ewma(), 6)
        doc["admission"] = {
            "max_depth": self.queue.max_depth,
            "watermark_s": self.shed_watermark_s,
            "shedding": self._shedding(),
        }
        doc["guard"] = guard.snapshot()
        doc["counters"] = {
            k: v for k, v in perf.counters().items()
            if k.startswith(("service.", "exec.guard."))
        }
        return doc

    def _shedding(self) -> bool:
        """Overload state with hysteresis: trips at the watermark, recovers
        at half of it.  Evaluated on every submission and health probe."""
        wait = self.queue.wait_ewma()
        with self._shed_lock:
            if self._shed_active:
                if wait < 0.5 * self.shed_watermark_s:
                    self._shed_active = False
                    perf.inc("service.shed.recovered")
                    self._log(
                        f"overload recovered (queue wait {wait:.3f}s); "
                        f"admitting normal priority again"
                    )
            elif self.shed_watermark_s > 0 and wait >= self.shed_watermark_s:
                self._shed_active = True
                perf.inc("service.shed.activated")
                obs.instant("service.shed", cat="service", wait_s=round(wait, 3))
                self._log(
                    f"overloaded (queue wait {wait:.3f}s >= "
                    f"{self.shed_watermark_s:g}s): shedding normal priority, "
                    f"demoting admitted jobs' engine"
                )
            return self._shed_active

    def _job_or_error(self, req: dict, wr) -> Job | None:
        job_id = str(req.get("job", ""))
        with self._jobs_lock:
            job = self.jobs.get(job_id)
        if job is None:
            self._send(wr, {"ok": False, "code": 404,
                            "error": f"unknown job {job_id!r}"})
        return job

    # -- ops -----------------------------------------------------------------

    def _op_submit(self, req: dict, wr) -> None:
        tenant = str(req.get("tenant") or "default")
        priority = str(req.get("priority") or "normal")
        try:
            spec = normalize_spec(req.get("job"), self.result_affecting)
            if spec["kind"] in ("run", "online"):
                self._check_runnable(spec)
        except JobSpecError as exc:
            perf.inc("service.jobs.rejected")
            self._send(wr, {"ok": False, "code": 400, "error": str(exc)})
            return
        engine_demoted = False
        if self._shedding():
            # overloaded: shed normal priority deterministically (the 503
            # mirror of the 429 queue-full path), demote what is admitted
            if priority != "high":
                perf.inc("service.jobs.shed")
                self._send(wr, {"ok": False, "code": 503, "error": "overloaded",
                                "wait_ewma_s": round(self.queue.wait_ewma(), 6),
                                "retry_after_s": self.queue.retry_after_s})
                return
            if spec.get("engine") is not None:
                demoted_to = demote_engine(spec["engine"])
                if demoted_to != spec["engine"]:
                    engine_demoted = True
                    spec = {**spec, "engine": demoted_to}
                    perf.inc("service.jobs.engine_demoted")
        try:
            with self._id_lock:
                self._next_id += 1
                job = Job(f"j{self._next_id}", tenant, priority, spec)
        except JobSpecError as exc:
            perf.inc("service.jobs.rejected")
            self._send(wr, {"ok": False, "code": 400, "error": str(exc)})
            return
        queued: dict[str, Any] = {"tenant": tenant, "priority": priority}
        if engine_demoted:
            queued.update(engine_demoted=True, engine=spec["engine"])
        # the job's one durable write before its terminal one, made before
        # a runner can start it: a restart finds every job that was
        # running or whose id a client heard
        self.spool.save(job)
        try:
            # a runner may take the job at once: holding its event lock
            # until `queued` is logged keeps `started` from preceding it
            with job.events_lock:
                depth = self.queue.put(tenant, priority, job)
                job.emit("queued", depth=depth, **queued)
        except (QueueFull, RuntimeError) as exc:
            try:
                os.unlink(self.spool.record_path(job.id))  # refused: no record
            except OSError:
                pass
            if isinstance(exc, QueueFull):
                perf.inc("service.jobs.rejected")
                self._send(wr, {"ok": False, "code": 429, "error": "queue full",
                                "depth": exc.depth,
                                "retry_after_s": exc.retry_after_s})
            else:
                self._send(wr, {"ok": False, "code": 503,
                                "error": "daemon is shutting down"})
            return
        with self._jobs_lock:
            self.jobs[job.id] = job
        perf.inc("service.jobs.submitted")
        reply = {"ok": True, "job": job.id, "state": "queued", "depth": depth}
        if engine_demoted:
            reply["engine_demoted"] = True
            reply["engine"] = spec["engine"]
        self._send(wr, reply)
        if req.get("stream"):
            self._stream_events(job, wr)

    def _stream_events(self, job: Job, wr) -> None:
        """Forward the job's events as JSON lines through its terminal one.

        The stream ends on the terminal event, not the terminal state: a
        runner sets the state before it emits the event, so a stream that
        stopped on the state could miss the event its client waits for.
        """
        seq = 0
        while True:
            for ev in job.events_from(seq, timeout=0.5):
                self._send(wr, ev)
                seq = ev["seq"] + 1
                if ev["event"] in TERMINAL_STATES:
                    return

    def _op_result(self, req: dict, wr) -> None:
        job = self._job_or_error(req, wr)
        if job is None:
            return
        wait = req.get("wait")
        if wait is not None and job.state not in TERMINAL_STATES:
            job.wait_terminal(float(wait))
        doc: dict[str, Any] = {"ok": True, **job.summary()}
        if job.state == "done" and job.result is not None:
            # online jobs carry their payload inline (never store-cached)
            doc["artifact"] = job.result
        elif job.state == "done" and job.key:
            if job.fingerprint is None:
                # a record from before jobs carried their fingerprint
                try:
                    _key, job.fingerprint = artifact_key(
                        job.spec, self._compiled(job.spec)[2]
                    )
                except Exception:  # the program no longer compiles
                    pass
            # re-read through the integrity-checking store path
            doc["artifact"] = (self.store.load(job.key, job.fingerprint)
                               if job.fingerprint else None)
        elif job.state not in TERMINAL_STATES:
            doc["ok"] = False
            doc["code"] = 408
            doc["error"] = f"job {job.id} still {job.state}"
        self._send(wr, doc)

    def _cancel(self, job: Job) -> dict:
        if job.state in TERMINAL_STATES:
            return {"ok": True, "job": job.id, "state": job.state,
                    "note": "already terminal"}
        removed = self.queue.remove(lambda item: item is job)
        if removed is not None:
            job.set_state("canceled")
            job.emit("canceled", while_state="queued")
            self.spool.save(job)
            perf.inc("service.jobs.canceled")
            return {"ok": True, "job": job.id, "state": "canceled"}
        # running (or about to run): the runner observes the flag at its
        # next batch boundary; the job's checkpoint survives cancellation
        job.cancel_requested = True
        return {"ok": True, "job": job.id, "state": job.state,
                "cancel_requested": True}

    # -- execution -----------------------------------------------------------

    def _runner_loop(self) -> None:
        while True:
            job = self.queue.take(timeout=0.5)
            if job is None:
                if self.queue.closed:
                    return
                continue
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        if job.cancel_requested:
            job.set_state("canceled")
            job.emit("canceled", while_state="queued")
            self.spool.save(job)
            perf.inc("service.jobs.canceled")
            return
        job.set_state("running")
        t0 = time.perf_counter()
        with obs.span("service.job", cat="service", job=job.id,
                      tenant=job.tenant, kind=job.spec["kind"],
                      program=job.spec.get("program") or "<source>") as sp:
            try:
                evaluated = self._execute(job)
                sp["cached"] = job.cached
                sp["evaluated"] = evaluated
                job.set_state("done")
                job.emit(
                    "done", key=job.key, cached=job.cached,
                    proposals_evaluated=evaluated,
                    elapsed_s=round(time.perf_counter() - t0, 6),
                )
                perf.inc("service.jobs.completed")
            except JobCancelled:
                sp["canceled"] = True
                job.set_state("canceled")
                job.emit("canceled", while_state="running")
                perf.inc("service.jobs.canceled")
            except Exception as exc:
                sp["error"] = str(exc)
                job.set_state("failed", error=str(exc))
                job.emit("failed", error=str(exc))
                perf.inc("service.jobs.failed")
                self._log(f"job {job.id} failed: {exc}")
        self.spool.save(job)

    @staticmethod
    def _program_key(spec: dict) -> tuple:
        """A compiled program's memo key: the program's identity (a
        built-in's name, or the sha256 of submitted source: a source picks
        its program name freely), the mode and the fusion mode."""
        ident = (
            ("source", hashlib.sha256(spec["source"].encode("utf-8")).hexdigest())
            if spec["source"] else ("program", spec["program"].lower())
        )
        return (*ident, spec["mode"], spec["fusion"])

    def _check_runnable(self, spec: dict) -> None:
        """Refuse a run or online job whose sizes no engine can run: a
        missing size, or an array input with a zero extent."""
        # a lock-free read: the lock is held across whole compiles
        hit = self._compiled_memo.get(self._program_key(spec))
        if hit is not None:
            prog = hit[0]
        elif spec["source"]:
            try:
                prog = _resolve_program(spec)
            except Exception:  # noqa: BLE001 - the runner reports bad source
                return
        else:
            prog = _resolve_program(spec)
        _check_sizes(prog, spec["sizes"], "'sizes'")
        empty = prog.empty_inputs(spec["sizes"])
        if empty:
            raise JobSpecError(
                f"'sizes' gives {prog.name} an input with a zero extent: "
                f"{'; '.join(empty)}"
            )

    def _compiled(self, spec: dict) -> tuple:
        """``(prog, cp, branching-tree hash)`` for a normalised spec.

        Memoized per daemon on :meth:`_program_key`, so a program compiles
        once however many jobs name it.  The lock is held across the compile,
        so concurrent first submissions of one program compile it once.
        ``REPRO_NO_CACHE`` compiles on every call.
        """
        # imported per call, so a wrapper installed on the module attribute
        # sees every compile
        from repro.compiler import compile_program
        from repro.tuning.persist import branching_tree_hash

        def build() -> tuple:
            perf.inc("service.compile.miss")
            prog = _resolve_program(spec)
            cp = compile_program(prog, spec["mode"], fusion=spec["fusion"])
            return prog, cp, branching_tree_hash(cp)

        if not perf.caching_enabled():
            return build()
        key = self._program_key(spec)
        with self._compile_lock:
            hit = self._compiled_memo.get(key)
            if hit is None:
                hit = self._compiled_memo[key] = build()
                if len(self._compiled_memo) > COMPILE_MEMO_MAX:
                    self._compiled_memo.popitem(last=False)
            else:
                perf.inc("service.compile.hit")
                self._compiled_memo.move_to_end(key)
        return hit

    def _execute(self, job: Job) -> int:
        """Run one job; returns the number of proposals evaluated (0 when
        the artifact came from the store)."""
        spec = job.spec
        prog, shared, tree = self._compiled(spec)
        # the simulate memo dies with the job, as when each job compiled:
        # kept on the shared program it would grow with every tune.  The
        # evaluator memo is shared on purpose: it is bounded, and a run job
        # for the same (program, sizes, engine) only executes the closures
        # an earlier job compiled
        cp = dataclasses.replace(shared, _sim_memo={}, _shape_memo={})
        if spec["kind"] == "online":
            # never cached: a submission may tune its shape class, and
            # its thresholds depend on the table, not on the spec alone
            job.emit("started", online=True)
            payload, evaluated = self._execute_online(job, prog, cp, tree)
            job.result = payload
            return evaluated
        key, fp = artifact_key(spec, tree)
        job.key, job.fingerprint = key, fp
        job.emit("started", key=key)
        payload = self.store.load(key, fp)
        if payload is not None:
            job.cached = True
            job.emit("cached", key=key)
            return 0
        if spec["kind"] == "tune":
            payload, evaluated = self._execute_tune(job, cp)
        elif spec["kind"] == "compile":
            payload, evaluated = self._execute_compile(cp, tree)
        else:
            payload, evaluated = self._execute_run(job, prog, cp)
        self.store.store(key, fp, payload)
        ckpt = self.spool.ckpt_path(job.id)
        if os.path.exists(ckpt):
            os.unlink(ckpt)  # the artifact is durable; the checkpoint isn't needed
        return evaluated

    def _execute_tune(self, job: Job, cp) -> tuple[dict, int]:
        from repro.tuning import Autotuner
        from repro.tuning import persist

        spec = job.spec
        for ds in spec["datasets"]:
            _check_sizes(cp.prog, ds, "each dataset")
        device = _device(spec["device"])
        ckpt = self.spool.ckpt_path(job.id)
        tuner = Autotuner(cp, spec["datasets"], device,
                          seed=spec["seed"], noise=spec["noise"])
        if os.path.exists(ckpt):
            try:
                doc = persist.load_checkpoint(
                    ckpt, cp, device=device.name, datasets=spec["datasets"]
                )
                tuner.preload_measurements(doc["measurements"], doc["quarantined"])
                job.emit(
                    "resumed", checkpointed=doc["proposals_done"],
                    measurements=sum(len(m) for m in doc["measurements"]),
                )
            except persist.TuningFileError as exc:
                self._log(f"job {job.id}: discarding stale checkpoint ({exc})")
                os.unlink(ckpt)
        total = spec["proposals"]
        every = max(1, total // 20)
        last_emit = 0

        def progress(proposals: int, best_cost: float) -> None:
            nonlocal last_emit
            if job.cancel_requested:
                raise JobCancelled(job.id)
            if proposals - last_emit >= every or proposals >= total:
                last_emit = proposals
                job.emit("progress", proposals=proposals, total=total,
                         best_cost=_json_cost(best_cost))

        res = tuner.tune(
            max_proposals=total,
            technique=spec["technique"],
            batch_size=spec["batch_size"],
            checkpoint_path=ckpt,
            checkpoint_every=spec["checkpoint_every"],
            progress=progress,
        )
        # the artifact embeds the exact documents `repro tune --output`
        # writes, so daemon and CLI artifacts are byte-identical
        payload = {
            "kind": "tune",
            "thresholds": persist.thresholds_doc(
                cp, res.best_thresholds, device=device.name,
                datasets=spec["datasets"],
            ),
            "telemetry": persist.telemetry_doc(res, cp, device=device.name),
        }
        return payload, res.proposals

    def _execute_compile(self, cp, tree: str) -> tuple[dict, int]:
        from repro.codegen.opencl import generate_opencl

        code = generate_opencl(cp)
        source = code.full_source()
        payload = {
            "kind": "compile",
            "program": cp.prog.name,
            "mode": cp.mode,
            "branching_tree": tree,
            "thresholds": sorted(cp.thresholds()),
            "num_kernels": code.num_kernels,
            "loc": code.loc,
            "source_sha256": hashlib.sha256(source.encode("utf-8")).hexdigest(),
        }
        return payload, 0

    def _execute_run(self, job: Job, prog, cp) -> tuple[dict, int]:
        from repro.cli import _random_inputs

        spec = job.spec
        _check_sizes(prog, spec["sizes"], "'sizes'")
        inputs = _random_inputs(prog, spec["sizes"], spec["seed"])
        outs = cp.run(inputs, thresholds=spec["thresholds"] or None,
                      engine=spec["engine"], sizes=spec["sizes"])
        payload = {
            "kind": "run",
            "program": prog.name,
            "mode": spec["mode"],
            "engine": spec["engine"],
            "sizes": dict(spec["sizes"]),
            "seed": spec["seed"],
            "outputs": _output_digests(outs),
        }
        return payload, 0

    # -- online threshold dispatch -------------------------------------------

    def _online_tuner(self, cp, tree: str, device):
        """The shared online tuner for one (program, mode, fusion, device,
        branching tree) identity; created lazily, resumed from the spool's
        persisted table when one survives a restart."""
        from repro.tuning.online import OnlineTuner
        from repro.tuning.persist import TuningFileError

        ident = f"{cp.prog.name}|{cp.mode}|{cp.fusion}|{device.name}|{tree}"
        key = hashlib.sha256(ident.encode("utf-8")).hexdigest()[:16]
        with self._online_lock:
            tuner = self._online.get(key)
            if tuner is None:
                path = self.spool.online_path(key)
                tuner = OnlineTuner(cp, device, table_path=path)
                if os.path.exists(path):
                    try:
                        restored = tuner.load(path)
                        self._log(f"online table {key}: resumed "
                                  f"{restored} class(es)")
                    except TuningFileError as exc:
                        self._log(f"online table {key}: "
                                  f"discarding stale table ({exc})")
                self._online[key] = tuner
            return tuner

    def _execute_online(self, job: Job, prog, cp, tree: str) -> tuple[dict, int]:
        """Run with online threshold dispatch; a dispatch that tunes its
        class counts as one evaluated proposal, a table lookup as zero."""
        from repro.cli import _random_inputs

        spec = job.spec
        _check_sizes(prog, spec["sizes"], "'sizes'")
        device = _device(spec["device"])
        tuner = self._online_tuner(cp, tree, device)
        decision = tuner.dispatch(spec["sizes"])
        classes = len(tuner.classes())
        job.emit(
            "dispatch", shape=decision.shape, explored=decision.explored,
            thresholds=decision.thresholds, classes=classes,
        )
        inputs = _random_inputs(prog, spec["sizes"], spec["seed"])
        outs = cp.run(inputs, thresholds=decision.thresholds or None,
                      engine=spec["engine"], sizes=spec["sizes"])
        payload = {
            "kind": "online",
            "program": prog.name,
            "mode": spec["mode"],
            "engine": spec["engine"],
            "device": spec["device"],
            "sizes": dict(spec["sizes"]),
            "seed": spec["seed"],
            "shape": decision.shape,
            "explored": decision.explored,
            "thresholds": dict(decision.thresholds),
            "classes": classes,
            "outputs": _output_digests(outs),
        }
        return payload, 1 if decision.explored else 0
