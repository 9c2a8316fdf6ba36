"""Service health, load shedding, and guard-breaker durability.

In-process daemons cover the ``health`` wire op, the overload-shedding
admission path (503 for normal priority; an admitted job keeps its
engine), and the drain-path breaker flush.  The subprocess test at the end is the acceptance scenario: a
daemon whose codegen launches fail persistently completes jobs
bit-identically via demotion, ``repro health`` reports the tripped
breaker, and the state survives ``kill -9`` + restart.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from repro.exec import compile_cache, guard
from repro.exec.codegen import _CODE_CACHE
from repro.service import ServiceClient, ServiceDaemon, ServiceError

RUN = {"kind": "run", "program": "matmul", "sizes": {"n": 4, "m": 4},
       "engine": "codegen", "seed": 0}


@pytest.fixture
def tmp():
    d = tempfile.mkdtemp(prefix="repro-svc-")
    yield d
    shutil.rmtree(d, ignore_errors=True)


@pytest.fixture(autouse=True)
def _isolated_guard(tmp_path, configure):
    configure(codegen_cache=str(tmp_path / "kcache"))
    _CODE_CACHE.clear()
    guard.reset()
    yield
    guard.reset()


def start(tmp, name="spool", runners=2, **kw):
    daemon = ServiceDaemon(
        os.path.join(tmp, name),
        socket_path=os.path.join(tmp, name + ".sock"),
        runners=runners,
        **kw,
    )
    daemon.start()
    return daemon, ServiceClient(socket_path=daemon.socket_path)


class TestHealthOp:
    def test_health_document_shape(self, tmp):
        daemon, client = start(tmp, shed_watermark_s=5.0)
        try:
            doc = client.health()
            assert doc["ok"]
            assert "wait_ewma_s" in doc["queue"]
            assert doc["admission"]["watermark_s"] == 5.0
            assert doc["admission"]["shedding"] is False
            assert doc["admission"]["max_depth"] == daemon.queue.max_depth
            g = doc["guard"]
            assert g["active"] is True
            assert g["breakers"] == [] and g["demotions"] == 0
            assert isinstance(doc["counters"], dict)
        finally:
            daemon.stop()

    def test_health_reports_tripped_breaker(self, tmp, configure):
        configure(guard_trip=1)

        def boom(env, n):
            raise RuntimeError("bad tier")

        launch = guard.wrap_kernel(
            "svc-key", [("codegen", boom), ("scalar", lambda env, n: (1.0,))]
        )
        launch({}, 1)
        daemon, client = start(tmp)
        try:
            g = client.health()["guard"]
            assert g["demotions"] >= 1
            (br,) = g["breakers"]
            assert br["key"] == "svc-key" and br["state"] == "open"
            assert g["counters"].get("exec.guard.tripped", 0) >= 1
        finally:
            daemon.stop()


class TestShedding:
    def test_normal_priority_shed_with_503(self, tmp):
        daemon, client = start(tmp, runners=0, shed_watermark_s=0.5,
                               retry_after_s=2.0)
        try:
            daemon.queue.wait_ewma = lambda: 10.0  # sustained overload
            with pytest.raises(ServiceError) as ei:
                client.submit(RUN, tenant="t1", priority="normal")
            assert ei.value.code == 503
            assert ei.value.retry_after_s == 2.0
            assert "overloaded" in str(ei.value)
            assert client.health()["admission"]["shedding"] is True
        finally:
            daemon.stop()

    def test_high_priority_admitted_with_engine_kept(self, tmp):
        """Shedding refuses normal priority; what it admits runs on the
        engine it asked for, so it keys and stores the same artifact."""
        daemon, client = start(tmp, runners=0, shed_watermark_s=0.5)
        try:
            daemon.queue.wait_ewma = lambda: 10.0
            reply = client.submit(RUN, tenant="t1", priority="high")
            assert reply["ok"] and reply["state"] == "queued"
            assert "engine_demoted" not in reply and "engine" not in reply
            job = daemon.jobs[reply["job"]]
            assert job.spec["engine"] == "codegen"
            (queued,) = job.events
            assert queued["event"] == "queued" and "engine" not in queued
        finally:
            daemon.stop()

    def test_recovery_hysteresis(self, tmp):
        daemon, client = start(tmp, runners=0, shed_watermark_s=1.0)
        try:
            wait = {"v": 10.0}
            daemon.queue.wait_ewma = lambda: wait["v"]
            assert daemon._shedding() is True
            wait["v"] = 0.8  # below watermark but above half of it
            assert daemon._shedding() is True  # still shedding
            wait["v"] = 0.4  # below half: recovered
            assert daemon._shedding() is False
            reply = client.submit(RUN, tenant="t1", priority="normal")
            assert reply["ok"] and "engine_demoted" not in reply
        finally:
            daemon.stop()

    def test_watermark_zero_disables_shedding(self, tmp):
        daemon, client = start(tmp, runners=0, shed_watermark_s=0.0)
        try:
            daemon.queue.wait_ewma = lambda: 100.0
            reply = client.submit(RUN, tenant="t1", priority="normal")
            assert reply["ok"]
        finally:
            daemon.stop()


class TestDrainFlush:
    def test_stop_flushes_untransitioned_breaker_state(self, tmp, configure):
        # a sub-threshold failure count has no eager persist — only the
        # drain-path flush writes it (satellite: shutdown must not lose
        # an in-flight probe outcome)
        configure(guard_trip=5)
        daemon, _client = start(tmp)

        def boom(env, n):
            raise RuntimeError("one failure")

        launch = guard.wrap_kernel(
            "drain-key", [("codegen", boom), ("scalar", lambda env, n: (1.0,))]
        )
        launch({}, 1)
        assert not os.path.exists(compile_cache.breaker_path())
        daemon.stop()
        doc = json.loads(open(compile_cache.breaker_path()).read())
        assert doc["kind"] == "guard-breakers"
        assert doc["breakers"][0]["key"] == "drain-key"
        assert doc["breakers"][0]["fails"] == 1


class TestBreakerKillRestart:
    """Acceptance: tripped-breaker state survives daemon kill -9 + restart."""

    SUBMIT = ["submit", "Heston", "--kind", "run", "--engine", "codegen",
              "--size", "numQuotes=32", "--size", "numCand=8",
              "--size", "numInt=16"]

    @staticmethod
    def _serve(spool, sock, logf, env, faults=None):
        cmd = [sys.executable, "-m", "repro", "serve",
               "--socket", sock, "--spool", spool]
        if faults:
            cmd += ["--faults", faults]
        proc = subprocess.Popen(cmd, env=env, stdout=open(logf, "a"),
                                stderr=subprocess.STDOUT)
        client = ServiceClient(socket_path=sock, timeout=5)
        deadline = time.time() + 30
        while time.time() < deadline:
            try:
                client.ping()
                return proc, client
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

    def test_tripped_breaker_survives_kill9(self, tmp):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        env["REPRO_CODEGEN_CACHE"] = os.path.join(tmp, "kcache")
        env["REPRO_GUARD_TRIP"] = "1"
        sock = os.path.join(tmp, "g.sock")
        spool = os.path.join(tmp, "g-spool")
        logf = os.path.join(tmp, "g.log")
        plan = json.dumps({"rules": [
            {"site": "exec.launch.codegen", "kind": "launch", "p": 1.0},
        ]})
        proc, _c = self._serve(spool, sock, logf, env, faults=plan)
        out = self._cli(env, *self.SUBMIT, "--socket", sock, "--wait", "120")
        assert "done" in out.stdout  # demotion healed every launch
        health = json.loads(self._cli(
            env, "health", "--json", "--socket", sock
        ).stdout)
        tripped = health["guard"]["breakers"]
        assert tripped and all(b["state"] == "open" for b in tripped)

        proc.send_signal(signal.SIGKILL)  # no drain, no flush
        proc.wait(timeout=30)
        try:
            os.unlink(sock)
        except OSError:
            pass

        proc, _c = self._serve(spool, sock, logf, env)  # faults gone
        try:
            health = json.loads(self._cli(
                env, "health", "--json", "--socket", sock
            ).stdout)
            resumed = health["guard"]["breakers"]
            assert {b["key"] for b in resumed} == {b["key"] for b in tripped}
            assert all(b["state"] == "open" for b in resumed)
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
