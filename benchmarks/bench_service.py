"""Service daemon: multi-tenant artifact-store hit rate and chaos identity.

A real ``repro serve`` daemon (subprocess, Unix socket) takes a
three-tenant workload: two *unique* tune jobs (cold — the daemon must run
the full search) followed by eight *duplicates* submitted by the other
tenants with result-neutral knob variations (``checkpoint_every``
differs, which the content fingerprint ignores).  Every duplicate must come back as an
artifact-store hit with **zero** proposal evaluations, and the warm
(duplicate) job latency must beat the cold latency by at least
``FLOOR``x.

Latency is submit-to-terminal-event over the streamed event channel for
both phases — the fair comparison, since downloading the finished
artifact afterwards (``repro fetch``) costs the same whether the job was
cached or tuned.

The chaos leg then replays unique job A against a daemon whose fault
plan fails one simulated kernel launch (healed by the tuner's retry)
*and* ``kill -9``'s the daemon itself mid-search (exit 137); a restarted daemon recovers the job from its
spool checkpoint, and the fetched artifact must be **byte-identical** to
the fault-free daemon's.

Results land in ``BENCH_service.json`` at the repo root (a smoke
run's in the git-ignored ``BENCH_service.smoke.json``).  Runnable
standalone (``python benchmarks/bench_service.py [--smoke]``) or under
pytest; ``REPRO_BENCH_SMOKE=1`` shrinks the searches for CI and drops
the speedup floor to ``FLOOR_SMOKE``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.service import ServiceClient, ServiceError  # noqa: E402

OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_service.json"
)
#: where a smoke run writes: git-ignored, so a smoke run never replaces
#: the committed full-mode artifact
SMOKE_OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_service.smoke.json"
)

FLOOR = 50.0  # warm-over-cold speedup floor (full run)
FLOOR_SMOKE = 10.0
TENANTS = ("alice", "bob", "carol")

# one transient launch failure the tuner must retry, then the daemon kill
# on an early batch (invocation 6), after the first checkpoints exist but
# long before the search finishes
CHAOS_PLAN = {"rules": [
    {"site": "sim.kernel", "kind": "launch", "p": 0.5, "max_fires": 1},
    {"site": "tuner.batch", "kind": "process_kill", "at": [6]},
]}


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _out_path() -> str:
    return SMOKE_OUT_PATH if _smoke() else OUT_PATH


def _floor() -> float:
    return FLOOR_SMOKE if _smoke() else FLOOR


def _unique_jobs() -> list[dict]:
    # many expensive datasets and moderately many proposals: cold cost
    # scales with proposals * datasets, while the warm (cache-hit) path
    # only pays the artifact integrity check, which scales with the
    # proposal count alone — so width, not length, buys the margin
    proposals = 600 if _smoke() else 12000
    datasets = [{"n": 4, "m": 65536}, {"n": 8, "m": 32768},
                {"n": 16, "m": 16384}, {"n": 32, "m": 8192},
                {"n": 64, "m": 4096}, {"n": 128, "m": 2048},
                {"n": 256, "m": 1024}, {"n": 512, "m": 512}]
    base = {"kind": "tune", "program": "matmul", "datasets": datasets,
            "proposals": proposals, "batch_size": 8}
    return [dict(base, seed=0), dict(base, seed=1)]


# -- daemon management --------------------------------------------------------


def _serve(spool: str, sock: str, log_path: str,
           faults: dict | None = None) -> tuple[subprocess.Popen, ServiceClient]:
    cmd = [sys.executable, "-m", "repro", "serve",
           "--socket", sock, "--spool", spool]
    if faults is not None:
        cmd += ["--faults", json.dumps(faults)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.Popen(cmd, env=env, stdout=open(log_path, "a"),
                            stderr=subprocess.STDOUT)
    client = ServiceClient(socket_path=sock, timeout=10)
    deadline = time.time() + 30
    while time.time() < deadline:
        try:
            client.ping()
            return proc, client
        except (ServiceError, OSError):
            if proc.poll() is not None:
                raise AssertionError(
                    "daemon died during startup:\n" + open(log_path).read()
                )
            time.sleep(0.05)
    proc.kill()
    raise AssertionError("daemon did not come up:\n" + open(log_path).read())


def _timed_submit(client: ServiceClient, job: dict, tenant: str) -> dict:
    """Submit over the streaming channel; seconds to the terminal event."""
    t0 = time.perf_counter()
    events = list(client.submit_stream(job, tenant=tenant))
    elapsed = time.perf_counter() - t0
    assert events and events[0].get("ok"), f"admission failed: {events[:1]}"
    done = events[-1]
    assert done.get("event") == "done", f"job did not finish: {done}"
    return {
        "tenant": tenant,
        "job": events[0]["job"],
        "seconds": elapsed,
        "cached": bool(done.get("cached")),
        "proposals_evaluated": done.get("proposals_evaluated"),
    }


# -- the chaos leg ------------------------------------------------------------


def _fetch_artifact(client: ServiceClient, job_id: str, wait: float) -> str:
    res = client.result(job_id, wait=wait)
    assert res["state"] == "done", res
    return json.dumps(res["artifact"], indent=2, sort_keys=True)


def _chaos_leg(tmp: str, job: dict, baseline: str) -> dict:
    """Fail a launch and kill the daemon mid-job; a restart must reproduce
    ``baseline`` (the fault-free artifact text) byte for byte."""
    sock = os.path.join(tmp, "chaos.sock")
    spool = os.path.join(tmp, "chaos-spool")
    log = os.path.join(tmp, "chaos.log")

    proc, client = _serve(spool, sock, log, faults=CHAOS_PLAN)
    reply = client.submit(job, tenant=TENANTS[0])
    exit_code = proc.wait(timeout=300)
    assert exit_code == 137, (
        f"expected the injected kill (137), daemon exited {exit_code}:\n"
        + open(log).read()
    )

    proc, client = _serve(spool, sock, log)
    try:
        recovered = _fetch_artifact(client, reply["job"], wait=300)
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    assert "recovered job" in open(log).read()
    assert recovered == baseline, (
        "chaos-recovered artifact differs from the fault-free baseline"
    )
    return {"daemon_exit": exit_code, "bit_identical": True,
            "artifact_bytes": len(baseline)}


# -- the benchmark ------------------------------------------------------------


def run() -> dict:
    tmp = tempfile.mkdtemp(prefix="repro-bench-svc-")
    sock = os.path.join(tmp, "bench.sock")
    log = os.path.join(tmp, "bench.log")
    uniques = _unique_jobs()

    proc, client = _serve(os.path.join(tmp, "spool"), sock, log)
    try:
        cold = [_timed_submit(client, job, TENANTS[0]) for job in uniques]
        for row in cold:
            assert not row["cached"], f"cold job served from cache: {row}"

        # eight duplicates from the other two tenants; `checkpoint_every`
        # varies, which the fingerprint ignores, so every one must hit
        warm = []
        for i in range(8):
            dup = dict(uniques[i % 2], checkpoint_every=5 + i % 3)
            warm.append(_timed_submit(client, dup, TENANTS[1 + i % 2]))
        for row in warm:
            assert row["cached"], f"duplicate missed the store: {row}"
            assert row["proposals_evaluated"] == 0, row

        counters = client.ping()["counters"]
        baseline = _fetch_artifact(client, cold[0]["job"], wait=30)
    finally:
        proc.terminate()
        proc.wait(timeout=30)

    chaos = _chaos_leg(tmp, uniques[0], baseline)

    cold_s = sum(r["seconds"] for r in cold) / len(cold)
    warm_times = sorted(r["seconds"] for r in warm)
    warm_s = warm_times[len(warm_times) // 2]
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    doc = {
        "benchmark": "service",
        "tenants": list(TENANTS),
        "cold_jobs": cold,
        "warm_jobs": warm,
        "cold_seconds_mean": cold_s,
        "warm_seconds_median": warm_s,
        "speedup": speedup,
        "floor": _floor(),
        "cache_hits": counters.get("service.cache.hit", 0),
        "chaos": chaos,
        "smoke": _smoke(),
    }
    with open(_out_path(), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # acceptance floors, enforced here so CI and standalone runs both trip
    assert speedup >= _floor(), (
        f"warm jobs only {speedup:.1f}x faster than cold "
        f"(floor {_floor()}x)"
    )
    assert doc["cache_hits"] >= len(warm), doc["cache_hits"]
    return doc


def test_service_cache_speedup():
    run()


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    doc = run()
    print(
        f"cold {doc['cold_seconds_mean']*1e3:8.1f} ms mean "
        f"({doc['cold_jobs'][0]['proposals_evaluated']} proposals)   "
        f"warm {doc['warm_seconds_median']*1e3:8.1f} ms median "
        f"({len(doc['warm_jobs'])} duplicates, all cached)   "
        f"{doc['speedup']:7.1f}x (floor {doc['floor']}x)"
    )
    print(
        f"chaos: daemon exit {doc['chaos']['daemon_exit']}, recovered "
        f"artifact bit-identical ({doc['chaos']['artifact_bytes']} bytes) "
        f"-> {os.path.abspath(_out_path())}"
    )


if __name__ == "__main__":
    main()
