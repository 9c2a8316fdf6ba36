"""Service daemon end-to-end: jobs, caching, cancellation, recovery, chaos.

Most tests drive a real daemon in-process over a Unix socket through
:class:`ServiceClient` — the full wire path minus process isolation.  The
chaos test at the end uses subprocesses: a fault plan ``kill -9``'s the
daemon mid-job (exit 137), a restart recovers the spool and resumes the
job from its checkpoint, and the artifact must be byte-identical to a
fault-free daemon's.
"""

import gc
import io
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro import perf
from repro.service import ServiceClient, ServiceDaemon, ServiceError
from repro.service.jobs import Job

TUNE = {"kind": "tune", "program": "matmul", "datasets": [{"n": 16, "m": 16}],
        "proposals": 40, "batch_size": 4}
RUN = {"kind": "run", "program": "matmul", "sizes": {"n": 4, "m": 8}}


@pytest.fixture
def tmp():
    # unix socket paths are length-limited (~108 bytes); pytest's tmp_path
    # can exceed that, so use a short-lived short directory instead
    d = tempfile.mkdtemp(prefix="repro-svc-")
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.fixture
def no_gc_pause():
    """For tests that give the in-process daemon a fraction of a second to
    answer: a full collection of the garbage earlier tests leave behind
    stalls every thread for 0.1-0.9 s in a tier-1 run, so collect before
    the test and not during it."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.fixture
def compiles(monkeypatch):
    """The names of the programs ``compile_program`` compiles, in order."""
    import repro.compiler as compiler

    calls = []
    real = compiler.compile_program

    def counting(prog, *args, **kwargs):
        calls.append(prog.name)
        return real(prog, *args, **kwargs)

    monkeypatch.setattr(compiler, "compile_program", counting)
    return calls


def start(tmp, name="spool", runners=2, **kw):
    daemon = ServiceDaemon(
        os.path.join(tmp, name),
        socket_path=os.path.join(tmp, name + ".sock"),
        runners=runners,
        **kw,
    )
    daemon.start()
    return daemon, ServiceClient(socket_path=daemon.socket_path)


class TestJobs:
    def test_tune_job_round_trip(self, tmp):
        daemon, client = start(tmp)
        try:
            reply = client.submit(TUNE, tenant="t1")
            assert reply["ok"] and reply["state"] == "queued"
            res = client.result(reply["job"], wait=30)
            assert res["state"] == "done" and not res["cached"]
            art = res["artifact"]
            assert art["kind"] == "tune"
            assert art["thresholds"]["program"] == "matmul"
            assert set(art["thresholds"]["thresholds"]) == {"t0", "t1", "t2", "t3"}
            assert art["telemetry"]["proposals"] == 40
        finally:
            daemon.stop()

    def test_duplicate_is_cache_hit_with_zero_evaluations(self, tmp):
        daemon, client = start(tmp)
        try:
            first = client.submit(TUNE, tenant="t1")
            res1 = client.result(first["job"], wait=30)
            hits = perf.counters().get("service.cache.hit", 0)
            # same job, different tenant and checkpoint interval: the
            # fingerprint ignores result-neutral knobs, so still a hit
            dup = dict(TUNE, checkpoint_every=3)
            second = client.submit(dup, tenant="t2")
            res2 = client.result(second["job"], wait=30)
            assert res2["cached"]
            assert res2["artifact"] == res1["artifact"]
            done = [e for e in client.events(second["job"])
                    if e["event"] == "done"][0]
            assert done["proposals_evaluated"] == 0
            # at least the duplicate's execute-path load hit (result
            # fetches re-read through the store and hit as well)
            assert perf.counters().get("service.cache.hit", 0) >= hits + 1
            assert client.ping()["counters"]["service.cache.hit"] >= hits + 1
        finally:
            daemon.stop()

    def test_run_and_compile_jobs(self, tmp):
        daemon, client = start(tmp)
        try:
            run_job = {"kind": "run", "program": "matmul",
                       "sizes": {"n": 4, "m": 8}, "engine": "scalar"}
            res = client.result(client.submit(run_job)["job"], wait=30)
            assert res["state"] == "done"
            assert res["artifact"]["kind"] == "run"
            assert len(res["artifact"]["outputs"]) == 1
            assert res["artifact"]["outputs"][0]["sha256"]

            comp = {"kind": "compile", "program": "matmul"}
            res = client.result(client.submit(comp)["job"], wait=30)
            assert res["artifact"]["kind"] == "compile"
            assert res["artifact"]["num_kernels"] > 0
            assert res["artifact"]["source_sha256"]
        finally:
            daemon.stop()

    def test_online_jobs_observe_and_resume_across_restart(self, tmp):
        """Identical online submissions are never cache hits: the first
        tunes the shape class, the rest read the shared table — and a
        daemon restart resumes the table from ``<spool>/online/``."""
        job = {"kind": "online", "program": "matmul",
               "sizes": {"n": 4, "m": 8}, "engine": "scalar"}
        daemon, client = start(tmp)
        try:
            arts = []
            for _ in range(3):
                res = client.result(client.submit(job)["job"], wait=30)
                assert res["state"] == "done" and not res["cached"]
                arts.append(res["artifact"])
            assert arts[0]["kind"] == "online"
            assert [a["classes"] for a in arts] == [1, 1, 1]
            assert [a["explored"] for a in arts] == [True, False, False]
            assert arts[0]["thresholds"]
            assert all(a["thresholds"] == arts[0]["thresholds"] for a in arts)
            # the executed outputs are bit-identical to a plain run job
            # forced down the same decided path
            explicit = dict(job, kind="run", thresholds=arts[-1]["thresholds"])
            res = client.result(client.submit(explicit)["job"], wait=30)
            assert res["artifact"]["outputs"] == arts[-1]["outputs"]
        finally:
            daemon.stop()
        logs: list[str] = []
        daemon2, client2 = start(tmp, log=logs.append)  # same spool: warm
        try:
            res = client2.result(client2.submit(job)["job"], wait=30)
            assert res["artifact"]["classes"] == 1
            assert not res["artifact"]["explored"]
            other = dict(job, sizes={"n": 64, "m": 2})
            res = client2.result(client2.submit(other)["job"], wait=30)
            assert res["artifact"]["classes"] == 2
            assert res["artifact"]["explored"]
        finally:
            daemon2.stop()
        assert any("resumed 1 class(es)" in line for line in logs)

    def test_malformed_online_table_is_discarded(self, tmp):
        """A hand-edited table is logged and dropped, not fatal: the job
        tunes its class afresh and succeeds."""
        job = {"kind": "online", "program": "matmul",
               "sizes": {"n": 4, "m": 8}, "engine": "scalar"}
        daemon, client = start(tmp)
        try:
            res = client.result(client.submit(job)["job"], wait=30)
            assert res["state"] == "done"
        finally:
            daemon.stop()
        online = os.path.join(tmp, "spool", "online")
        (name,) = os.listdir(online)
        path = os.path.join(online, name)
        with open(path) as fh:
            doc = json.load(fh)
        for th in doc["classes"].values():
            th["t0"] = "x"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        logs: list[str] = []
        daemon2, client2 = start(tmp, log=logs.append)
        try:
            res = client2.result(client2.submit(job)["job"], wait=30)
            assert res["state"] == "done"
            assert res["artifact"]["explored"]
            assert res["artifact"]["classes"] == 1
        finally:
            daemon2.stop()
        assert any("discarding stale table" in line for line in logs)

    def test_event_stream_parses_in_sequence_order(self, tmp):
        daemon, client = start(tmp)
        try:
            events = list(client.submit_stream(TUNE))
            assert events[0]["ok"]  # admission reply first
            evs = events[1:]
            assert [e["seq"] for e in evs] == list(range(len(evs)))
            names = [e["event"] for e in evs]
            assert names[0] == "queued" and names[-1] == "done"
            assert "progress" in names
            prog = [e for e in evs if e["event"] == "progress"]
            assert all(e["total"] == 40 for e in prog)
            assert prog[-1]["proposals"] == 40
        finally:
            daemon.stop()

    def test_bad_spec_rejected_with_400(self, tmp):
        daemon, client = start(tmp)
        try:
            with pytest.raises(ServiceError) as exc:
                client.submit({"kind": "tune", "program": "matmul"})
            assert exc.value.code == 400  # tune without datasets
            with pytest.raises(ServiceError) as exc:
                client.submit(TUNE, priority="urgent")
            assert exc.value.code == 400  # unknown priority lane
            for field in ("workers", "fusion"):  # neither is a job field
                with pytest.raises(ServiceError) as exc:
                    client.submit(dict(TUNE, **{field: 2}))
                assert exc.value.code == 400
                assert "unknown job field" in str(exc.value)
        finally:
            daemon.stop()

    def test_sizes_no_engine_can_run_rejected_with_400(self, tmp):
        daemon, client = start(tmp)
        path = {"program": "Pathfinder", "sizes": {"numB": 2, "rows": 4, "cols": 0}}
        try:
            for job, names in [
                (dict(kind="run", **path), "walls (cols=0)"),
                (dict(kind="online", **path), "walls (cols=0)"),
                (dict(RUN, sizes={"n": 4, "m": -1}), "m=-1"),
                (dict(TUNE, datasets=[{"n": -16, "m": 16}]), "n=-16"),
            ]:
                with pytest.raises(ServiceError) as exc:
                    client.submit(job)
                assert exc.value.code == 400
                assert names in str(exc.value)
            assert not daemon.jobs  # nothing was admitted
            # a zero loop bound is legal: SRAD with no diffusion iterations
            job = client.submit({"kind": "run", "program": "SRAD", "engine": "vector",
                                 "sizes": {"numB": 1, "H": 4, "W": 4, "numIter": 0}})
            assert client.result(job["job"], wait=30)["state"] == "done"
        finally:
            daemon.stop()

    def test_waits_outlast_the_client_socket_timeout(self, tmp, no_gc_pause):
        # the daemon holds a `result`/`events` reply for up to `wait`
        # seconds; a wait longer than the client's socket timeout must
        # still get the daemon's answer, not "cannot reach daemon"
        daemon, client = start(tmp, runners=1)
        impatient = ServiceClient(socket_path=daemon.socket_path, timeout=0.3)
        job_id = client.submit(dict(TUNE, proposals=200_000, batch_size=1))["job"]
        try:
            with pytest.raises(ServiceError) as exc:
                impatient.result(job_id, wait=1.0)
            assert exc.value.code == 408  # still running
            seen = len(client.events(job_id))
            impatient.events(job_id, from_seq=seen, wait=1.0)  # no timeout
        finally:
            client.cancel(job_id)
            daemon.stop()

    def test_stream_outlasts_the_client_socket_timeout(self, tmp, no_gc_pause):
        # the daemon sends nothing while a streamed job waits in the queue:
        # a wait longer than the client's socket timeout must not cut it
        daemon, client = start(tmp, runners=1)
        impatient = ServiceClient(socket_path=daemon.socket_path, timeout=0.5)
        big = client.submit(dict(TUNE, proposals=200_000, batch_size=1))["job"]
        unblock = threading.Timer(1.5, client.cancel, args=(big,))
        unblock.start()
        try:
            events = list(impatient.submit_stream(
                {"kind": "compile", "program": "matmul"}))
            assert events[-1]["event"] == "done"
            assert client.status(big)["state"] == "canceled"
        finally:
            unblock.cancel()
            client.cancel(big)
            daemon.stop()

    def test_stream_ends_on_the_terminal_event(self, tmp):
        # a runner sets the terminal state, then emits the terminal event;
        # a stream that checked the state in between used to stop without
        # the event, and its client read forever
        daemon = ServiceDaemon(os.path.join(tmp, "spool"),
                               socket_path=os.path.join(tmp, "spool.sock"))
        job = Job("j1", "t", "normal", dict(RUN))
        job.emit("queued")
        job.set_state("done")
        emit = threading.Timer(0.2, job.emit, args=("done",))
        emit.start()
        wr = io.StringIO()
        try:
            daemon._stream_events(job, wr)
        finally:
            emit.join(timeout=5.0)
        assert not emit.is_alive()
        events = [json.loads(line)["event"] for line in wr.getvalue().splitlines()]
        assert events == ["queued", "done"]

    def test_unknown_program_fails_the_job(self, tmp):
        daemon, client = start(tmp)
        try:
            reply = client.submit(dict(TUNE, program="no-such-program"))
            res = client.result(reply["job"], wait=30)
            assert res["state"] == "failed"
            assert "no-such-program" in res["error"]
        finally:
            daemon.stop()


class TestAdmissionControl:
    def test_429_over_the_wire(self, tmp):
        # runners=0: nothing drains, so the bound is hit deterministically
        daemon, client = start(tmp, runners=0, max_depth=2, retry_after_s=3.5)
        try:
            client.submit(TUNE)
            client.submit(dict(TUNE, seed=1))
            with pytest.raises(ServiceError) as exc:
                client.submit(dict(TUNE, seed=2))
            assert exc.value.code == 429
            assert exc.value.retry_after_s == 3.5
            # the rejected job left no trace
            assert len(client.jobs()) == 2
            assert len(os.listdir(daemon.spool.jobs_dir)) == 2
        finally:
            daemon.stop()

    def test_rejected_submission_counts(self, tmp):
        daemon, client = start(tmp, runners=0, max_depth=1)
        try:
            before = perf.counters().get("service.jobs.rejected", 0)
            client.submit(TUNE)
            with pytest.raises(ServiceError):
                client.submit(dict(TUNE, seed=1))
            assert perf.counters().get("service.jobs.rejected", 0) == before + 1
        finally:
            daemon.stop()


    def test_submission_refused_while_draining_leaves_no_record(self, tmp):
        daemon, client = start(tmp, runners=1)
        big = client.submit(dict(TUNE, proposals=200_000, batch_size=1))["job"]
        drain = threading.Thread(target=daemon.stop)
        drain.start()
        try:
            deadline = time.time() + 15
            while not daemon.queue.closed and time.time() < deadline:
                time.sleep(0.01)
            with pytest.raises(ServiceError) as exc:
                client.submit(RUN)
            assert exc.value.code == 503
            assert os.listdir(daemon.spool.jobs_dir) == [big + ".json"]
        finally:
            client.cancel(big)
            drain.join()


class TestCancellation:
    def test_cancel_queued_job(self, tmp):
        daemon, client = start(tmp, runners=0)
        try:
            job_id = client.submit(TUNE)["job"]
            reply = client.cancel(job_id)
            assert reply["state"] == "canceled"
            assert client.status(job_id)["state"] == "canceled"
        finally:
            daemon.stop()

    def test_cancel_running_job_interrupts_at_batch_boundary(self, tmp):
        daemon, client = start(tmp, runners=1)
        try:
            big = dict(TUNE, proposals=200_000, batch_size=1)
            job_id = client.submit(big)["job"]
            # wait until it is actually running
            deadline = time.time() + 15
            while time.time() < deadline:
                if client.status(job_id)["state"] == "running":
                    break
                time.sleep(0.02)
            reply = client.cancel(job_id)
            assert reply.get("cancel_requested") or reply["state"] == "canceled"
            res = client.result(job_id, wait=30)
            assert res["state"] == "canceled"
            # the interrupted search's measurements survive as a checkpoint
            assert os.path.exists(daemon.spool.ckpt_path(job_id))
        finally:
            daemon.stop()


class TestRecovery:
    def test_restart_recovers_queued_jobs(self, tmp):
        daemon, client = start(tmp, runners=0)
        job_id = client.submit(TUNE)["job"]
        daemon.stop()
        # a new daemon on the same spool re-enqueues and completes it
        daemon2, client2 = start(tmp, runners=2)
        try:
            res = client2.result(job_id, wait=30)
            assert res["state"] == "done"
            requeued = [e for e in client2.events(job_id)
                        if e["event"] == "requeued"]
            assert len(requeued) == 1 and "recovered" not in requeued[0]
            # fresh ids continue past recovered ones
            assert client2.submit(dict(TUNE, seed=7))["job"] != job_id
        finally:
            daemon2.stop()

    def test_restart_preserves_terminal_jobs(self, tmp):
        daemon, client = start(tmp)
        job_id = client.submit(TUNE)["job"]
        client.result(job_id, wait=30)
        daemon.stop()
        daemon2, client2 = start(tmp)
        try:
            res = client2.result(job_id, wait=5)
            assert res["state"] == "done"
            assert res["artifact"]["kind"] == "tune"
        finally:
            daemon2.stop()

    def test_late_queued_save_never_overwrites_a_finished_record(
        self, tmp, monkeypatch
    ):
        # a slow admission write must land before a runner starts the job
        # (a daemon killed mid-job must find it on restart), so it can
        # never land over the job's terminal record either
        from repro.service import jobs

        real = jobs.atomic_write_json

        def slow_queued(path, doc, **kw):
            if doc["state"] == "queued":
                time.sleep(0.5)
            real(path, doc, **kw)

        durable_at_start = []
        execute = ServiceDaemon._execute

        def checking(daemon, job):
            durable_at_start.append(
                os.path.exists(daemon.spool.record_path(job.id)))
            return execute(daemon, job)

        monkeypatch.setattr(jobs, "atomic_write_json", slow_queued)
        monkeypatch.setattr(ServiceDaemon, "_execute", checking)
        daemon, client = start(tmp)
        try:
            job_id = client.submit(RUN)["job"]
            assert client.result(job_id, wait=30)["state"] == "done"
        finally:
            daemon.stop()
        assert durable_at_start == [True]
        with open(daemon.spool.record_path(job_id)) as fh:
            assert json.load(fh)["state"] == "done"

    def test_restart_under_other_fusion_mode_misses_the_store(
        self, tmp, configure
    ):
        # matmul's branching tree is the same under ilp and off, so only
        # the fusion mode recorded in the spec tells the two artifacts apart
        configure(fusion="ilp")
        daemon, client = start(tmp)
        try:
            first = client.submit(TUNE)["job"]
            assert client.result(first, wait=30)["state"] == "done"
        finally:
            daemon.stop()
        configure(fusion="off")
        daemon2, client2 = start(tmp)
        try:
            res = client2.result(client2.submit(TUNE)["job"], wait=30)
            assert res["state"] == "done" and not res["cached"]
            assert res["artifact"]["thresholds"]["fusion"] == "off"
            # the job tuned before the restart is still served, under the
            # mode it was admitted with
            old = client2.result(first, wait=5)
            assert old["artifact"]["thresholds"]["fusion"] == "ilp"
        finally:
            daemon2.stop()


class TestJobOrder:
    """Job ids sort by their number: ``j2`` comes before ``j10``."""

    IDS = [f"j{i}" for i in range(1, 13)]

    def test_spool_loads_records_in_id_order(self, tmp):
        from repro.service.jobs import Job, Spool, normalize_spec

        spool = Spool(os.path.join(tmp, "spool"))
        spec = normalize_spec(RUN, {"fusion": "ilp"})
        for job_id in reversed(self.IDS):
            spool.save(Job(job_id, "t1", "normal", spec))
        # the order a restarted daemon re-enqueues unfinished jobs in
        assert [job.id for job in spool.load_all()] == self.IDS

    def test_jobs_op_lists_in_submission_order(self, tmp):
        daemon, client = start(tmp, runners=0)
        try:
            submitted = [client.submit(dict(RUN, seed=i))["job"] for i in range(12)]
            assert submitted == self.IDS
            assert [job["id"] for job in client.jobs()] == self.IDS
        finally:
            daemon.stop()


class TestCompileOncePerDaemon:
    def test_jobs_and_fetches_share_one_compile(self, tmp, compiles):
        daemon, client = start(tmp)
        try:
            ids = [client.submit(TUNE, tenant="t1")["job"],
                   client.submit(dict(TUNE, checkpoint_every=3),
                                 tenant="t2")["job"],
                   client.submit(RUN)["job"]]
            for job_id in ids:
                assert client.result(job_id, wait=30)["state"] == "done"
            assert compiles == ["matmul"]
            counters = client.ping()["counters"]
            assert counters["service.compile.hit"] >= 2
        finally:
            daemon.stop()
        daemon2, client2 = start(tmp)  # same spool: the record has the key
        try:
            assert client2.result(ids[0], wait=5)["artifact"]["kind"] == "tune"
            assert compiles == ["matmul"]
        finally:
            daemon2.stop()

    def test_no_cache_compiles_every_job(self, tmp, compiles, configure):
        configure(cache=False)
        daemon, client = start(tmp)
        try:
            for seed in (0, 1):
                job_id = client.submit(dict(RUN, seed=seed))["job"]
                assert client.result(job_id, wait=30)["state"] == "done"
            assert compiles == ["matmul", "matmul"]
        finally:
            daemon.stop()

    def test_sources_sharing_a_name_compile_separately(self, tmp, compiles):
        rowsums = "def f(xss: [n][m]f32) = map (\\xs -> reduce (+) 0.0 xs) xss"
        doubled = "def f(xss: [n][m]f32) = map (\\xs -> map (\\x -> x * 2.0) xs) xss"
        daemon, client = start(tmp)
        try:
            arts = []
            for src in (rowsums, doubled):
                job_id = client.submit({"kind": "compile", "source": src})["job"]
                arts.append(client.result(job_id, wait=30)["artifact"])
            assert compiles == ["f", "f"]
            assert arts[0]["program"] == arts[1]["program"] == "f"
            assert arts[0]["source_sha256"] != arts[1]["source_sha256"]
        finally:
            daemon.stop()

    def test_record_without_fingerprint_still_fetches(self, tmp):
        daemon, client = start(tmp)
        try:
            job_id = client.submit(TUNE)["job"]
            art = client.result(job_id, wait=30)["artifact"]
        finally:
            daemon.stop()
        path = daemon.spool.record_path(job_id)
        with open(path) as fh:
            doc = json.load(fh)
        assert doc.pop("fingerprint")  # as written before records carried it
        with open(path, "w") as fh:
            json.dump(doc, fh)
        daemon2, client2 = start(tmp)
        try:
            assert client2.result(job_id, wait=5)["artifact"] == art
        finally:
            daemon2.stop()

    def test_runners_sharing_a_program_match_one_runner(self, tmp):
        # twin jobs (two seeds each) execute side by side on the one
        # compiled program both runners share
        jobs = [dict(TUNE, proposals=200, seed=s) for s in (0, 1)]
        jobs += [dict(RUN, engine=e, seed=s) for e in ("vector", "codegen")
                 for s in (0, 1)]

        def fetch_all(name, runners):
            daemon, client = start(tmp, name=name, runners=runners)
            try:
                ids = [client.submit(j, tenant=f"t{i % 2}")["job"]
                       for i, j in enumerate(jobs)]
                return [json.dumps(client.result(i, wait=60)["artifact"],
                                   sort_keys=True) for i in ids]
            finally:
                daemon.stop()

        assert fetch_all("shared", 2) == fetch_all("alone", 1)

    def test_two_durable_writes_per_job(self, tmp, monkeypatch):
        from repro.service.jobs import Spool

        saves = []
        real = Spool.save

        def counting(spool, job):
            saves.append((job.id, job.state))
            real(spool, job)

        monkeypatch.setattr(Spool, "save", counting)
        daemon, client = start(tmp)
        try:
            job_id = client.submit(TUNE)["job"]
            assert client.result(job_id, wait=30)["state"] == "done"
        finally:
            daemon.stop()
        assert len(saves) == 2 and saves[-1] == (job_id, "done")


class TestChaosBitIdentity:
    """Retried launch fault + daemon kill -9 + restart == fault-free, byte
    for byte."""

    SUBMIT = ["submit", "matmul", "--dataset", "n=64,m=256",
              "--dataset", "n=4,m=65536", "--proposals", "60",
              "--batch-size", "4"]

    @staticmethod
    def _serve(spool, sock, logf, faults=None):
        cmd = [sys.executable, "-m", "repro", "serve",
               "--socket", sock, "--spool", spool]
        if faults:
            cmd += ["--faults", faults]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.Popen(cmd, env=env, stdout=open(logf, "a"),
                                stderr=subprocess.STDOUT)
        client = ServiceClient(socket_path=sock, timeout=5)
        deadline = time.time() + 30
        while time.time() < deadline:
            try:
                client.ping()
                return proc, client, env
            except (ServiceError, OSError):
                if proc.poll() is not None:
                    raise AssertionError(open(logf).read())
                time.sleep(0.1)
        proc.kill()
        raise AssertionError("daemon did not come up:\n" + open(logf).read())

    def _cli(self, env, *argv):
        out = subprocess.run([sys.executable, "-m", "repro", *argv],
                             env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stdout + out.stderr
        return out

    def test_killed_daemon_resumes_bit_identically(self, tmp):
        base_sock = os.path.join(tmp, "base.sock")
        proc, _c, env = self._serve(os.path.join(tmp, "base-spool"),
                                    base_sock, os.path.join(tmp, "base.log"))
        self._cli(env, *self.SUBMIT, "--socket", base_sock, "--wait", "120")
        self._cli(env, "fetch", "j1", "--socket", base_sock,
                  "--output", os.path.join(tmp, "base.json"))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0  # clean drain

        plan = json.dumps({"rules": [
            {"site": "sim.kernel", "kind": "launch", "p": 0.5, "max_fires": 1},
            {"site": "tuner.batch", "kind": "process_kill", "at": [6]},
        ]})
        chaos_sock = os.path.join(tmp, "chaos.sock")
        chaos_spool = os.path.join(tmp, "chaos-spool")
        chaos_log = os.path.join(tmp, "chaos.log")
        proc, _c, env = self._serve(chaos_spool, chaos_sock, chaos_log,
                                    faults=plan)
        self._cli(env, *self.SUBMIT, "--socket", chaos_sock)
        assert proc.wait(timeout=120) == 137  # the injected kill fired

        proc, _c, env = self._serve(chaos_spool, chaos_sock, chaos_log)
        self._cli(env, "fetch", "j1", "--socket", chaos_sock,
                  "--output", os.path.join(tmp, "chaos.json"))
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
        assert "recovered job j1" in open(chaos_log).read()

        base = open(os.path.join(tmp, "base.json")).read()
        chaos = open(os.path.join(tmp, "chaos.json")).read()
        assert base == chaos
