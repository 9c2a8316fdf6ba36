"""The four workloads.  Each runs whole passes of a fixed, seed-shuffled
plan until the run's time is up, so every run of a workload measures
the same request mix; ``README.md`` says why each one exists.

A workload function takes a :class:`Run`, sets up (timed several times),
drives its closed loop, then checks every output outside the timed
region and fills ``run.e2e`` / ``run.layer``.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time

from perfbench import gate
from perfbench.stats import SpeedLog
from perfbench.spans import (
    ENGINES,
    LAYER_UNITS,
    Tracer,
    install_program_layers,
    layer_metrics,
)

#: exec-warm and cli-cold inputs: one warm call takes milliseconds to tens
#: of milliseconds while the scalar reference stays well under a second
EXEC_SIZES = {
    "matmul": dict(n=32, m=48),
    "LocVolCalib": dict(numS=4, numT=8, numX=16, numY=16),
    "Heston": dict(numQuotes=16, numCand=16, numInt=16),
    "OptionPricing": dict(numMC=64, numDates=5, numUnd=3, numDim=15, numBits=30),
    "Backprop": dict(numIn=256, numHidden=32),
    "LavaMD": dict(numBoxes=8, perBox=8, numNbr=8),
    "NW": dict(nb=4, B=16, numWaves=7),
    "NN": dict(numB=32, numP=128),
    "SRAD": dict(numB=2, H=32, W=32, numIter=2),
    "Pathfinder": dict(numB=4, rows=16, cols=128),
}

#: serve-mix run-job inputs: small, because every fresh run spec needs its
#: own scalar reference in the check phase
SERVE_SIZES = {
    "Heston": dict(numQuotes=8, numCand=8, numInt=8),
    "SRAD": dict(numB=1, H=16, W=16, numIter=1),
    "LocVolCalib": dict(numS=2, numT=4, numX=8, numY=8),
    "matmul": dict(n=16, m=16),
}

#: modules a CLI request imports before it does any work
STARTUP_IMPORTS = "repro.cli, repro.compiler"

#: a request that takes longer than this counts as failed
DEADLINE_S = 60.0

SETUP_REPS = 3

#: minimum spacing of calibration points in a single-client loop
CALIBRATION_EVERY_S = 0.2



class Run:
    """One benchmark run: its arguments, directories and measurements."""

    def __init__(self, root: str, workdir: str, seed: int, seconds: float,
                 trace: bool, env: dict[str, str]):
        self.root = root
        self.dir = workdir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.env = env
        self.rng = random.Random(seed)
        self.tracer = Tracer() if trace else None
        #: (label, latency s, traced, end time) of every successful request
        self.latencies: list[tuple[str, float, bool, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.errors: list[str] = []
        #: observations reported but not gated
        self.notes: list[str] = []
        #: wall seconds of the timed region, raw and at the reference speed
        self.elapsed = 0.0
        self.elapsed_ref = 0.0
        self.setup_s = 0.0
        self.startup: list[tuple[float, float]] = []
        self.e2e: dict[str, float] = {}
        self.layer: dict[str, float] = {}
        #: boundaries a traced run of this workload must see called
        self.expect: tuple[str, ...] = ()
        self.speed = SpeedLog()
        self._last_calibration = 0.0
        self._lock = threading.Lock()

    def path(self, *parts: str) -> str:
        """A file path in the run directory (parent directories made)."""
        p = os.path.join(self.dir, *parts)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        return p

    def mkdir(self, name: str) -> str:
        p = os.path.join(self.dir, name)
        os.makedirs(p, exist_ok=True)
        return p

    def child(self, argv: list[str], timeout: float) -> subprocess.CompletedProcess:
        return subprocess.run(argv, env=self.env, cwd=self.root, timeout=timeout,
                              capture_output=True, text=True)

    # -- set-up --------------------------------------------------------------

    def probe_startup(self) -> None:
        """Start a fresh interpreter that imports what a CLI request
        imports; records (interpreter start, import) seconds."""
        code = ("import time; t = time.perf_counter(); "
                f"import {STARTUP_IMPORTS}; "
                "print(t, time.perf_counter() - t)")
        t0 = time.perf_counter()
        proc = self.child([sys.executable, "-c", code], timeout=DEADLINE_S)
        if proc.returncode != 0:
            raise RuntimeError(f"startup probe failed: {proc.stderr.strip()}")
        t_start, import_s = map(float, proc.stdout.split()[-2:])
        self.startup.append((t_start - t0, import_s))

    def measure_setup(self, setup, probe: bool = True) -> None:
        """``setup_s``: median of ``SETUP_REPS`` set-ups, each a fresh
        interpreter start (``probe``) plus ``setup(rep)`` from cold state,
        at the reference speed; the last repetition's state serves the
        timed loop."""
        times = []
        self.calibrate()
        for rep in range(SETUP_REPS):
            t0 = time.perf_counter()
            if probe:
                self.probe_startup()
            setup(rep)
            t1 = time.perf_counter()
            self.calibrate()
            times.append(self.speed.scale(t0, t1))
        self.setup_s = statistics.median(times)

    # -- host speed ----------------------------------------------------------------

    def pin(self) -> None:
        """Run this process and the children it starts on one CPU, so the
        calibration slice shares the CPU the requests run on (one client
        only: the requests never overlap)."""
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    def calibrate(self) -> None:
        """Add a calibration point; call only while the program is idle."""
        self.speed.calibrate()
        self._last_calibration = time.perf_counter()

    def maybe_calibrate(self) -> None:
        if time.perf_counter() - self._last_calibration >= CALIBRATION_EVERY_S:
            self.calibrate()

    def reference_latencies(self, traced: bool = False) -> list[float]:
        """Request latencies at the reference speed."""
        return [lat * self.speed.factor_at(end - lat / 2)
                for _, lat, tr, end in self.latencies if tr == traced]

    # -- the closed loop ---------------------------------------------------------

    def request(self, label: str, fn, traced: bool, rid: str) -> None:
        """One request: ``fn(traced)`` returns its latency in seconds; an
        exception (or a failure it reports by raising) is counted."""
        tracer = self.tracer if traced else None
        idx = None
        if tracer is not None:
            tracer.set_request(rid)
            idx = tracer.begin("request", {"label": label})
        try:
            latency = fn(traced)
        except Exception as exc:  # counted, never retried
            with self._lock:
                self.attempted += 1
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return
        finally:
            if idx is not None:
                tracer.end(idx)
                tracer.set_request(None)
        end = time.perf_counter()
        with self._lock:
            self.attempted += 1
            self.latencies.append((label, latency, traced, end))

    def loop(self, plan: list, do) -> None:
        """Whole passes over ``plan`` until ``seconds`` have elapsed.  In
        a traced run odd passes are traced and the pass count is even,
        so traced and untraced requests have the same mix."""
        self.calibrate()
        t0 = time.perf_counter()
        passes = 0
        while True:
            traced = self.trace and passes % 2 == 1
            if traced:
                install_program_layers(self.tracer)
            try:
                for i, item in enumerate(plan):
                    label = ".".join(map(str, item))
                    self.request(label, lambda tr, it=item: do(it, tr), traced,
                                 f"p{passes}.r{i}")
                    self.maybe_calibrate()
            finally:
                if traced:
                    self.tracer.unwrap()
            passes += 1
            done = time.perf_counter() - t0 >= self.seconds
            if done and (not self.trace or passes % 2 == 0):
                break
        t1 = time.perf_counter()
        self.calibrate()
        self.elapsed, self.elapsed_ref = t1 - t0, self.speed.scale(t0, t1)

    # -- per-layer results --------------------------------------------------------

    def traced_requests(self) -> int:
        return sum(1 for _, _, traced, _ in self.latencies if traced)

    def finish_layers(self, extra: dict[str, float]) -> None:
        """Per-layer metrics from the spans plus workload-specific values."""
        spans = self.tracer.spans
        self.layer = layer_metrics(spans, self.traced_requests())
        if self.startup:
            self.layer["startup.python_ms"] = statistics.median(
                p for p, _ in self.startup) * 1e3
            self.layer["startup.import_ms"] = statistics.median(
                i for _, i in self.startup) * 1e3
        self.layer.update(extra)
        speed = self.speed.median_factor()
        for name, unit in LAYER_UNITS.items():
            if unit == "ms":
                self.layer[name] *= speed
        self.layer["host.calibration_ms"] = statistics.median(self.speed.slices) * 1e3
        untraced = self.reference_latencies(traced=False)
        traced = self.reference_latencies(traced=True)
        if untraced and traced:
            self.layer["trace.overhead_pct"] = 100.0 * (
                statistics.fmean(traced) / statistics.fmean(untraced) - 1.0)
        names = {s[0] for s in spans}
        missing = [b for b in self.expect
                   if not any(n == b or n.startswith(b + ".") for n in names)]
        if missing:
            raise RuntimeError(f"traced run recorded no call at: {', '.join(missing)}")


def _counter_delta(before: dict, after: dict) -> dict[str, float]:
    return {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _resim_mismatches(run: Run, choices) -> int:
    """Re-simulate each distinct tuner choice on a fresh compile without
    caches; count (and note) costs that differ from what the tuner
    reported."""
    seen = set()
    bad = 0
    for name, mode, datasets, device, thresholds, cost in choices:
        key = (name, mode, json.dumps(datasets, sort_keys=True), device.name,
               json.dumps(thresholds, sort_keys=True), cost)
        if key in seen:
            continue
        seen.add(key)
        again = gate.resimulate(name, mode, datasets, device, thresholds)
        if again != cost:
            bad += 1
            run.notes.append(f"resim mismatch: {name} on {device.name} {thresholds}: "
                             f"tuner reported {cost!r}, re-simulated {again!r}")
    return bad


# ------------------------------------------------------------------ exec-warm


def exec_warm(run: Run) -> None:
    from repro import perf
    from repro.cli import _random_inputs, _resolve_program
    from repro.compiler import compile_program
    from repro.exec import compile_cache
    from repro.gpu import K40

    run.pin()

    progs: dict = {}

    def setup(rep: int) -> None:
        perf.clear_caches()
        compile_cache.set_dir(run.mkdir(f"cache{rep}"))
        progs.clear()
        for name, sizes in EXEC_SIZES.items():
            prog = _resolve_program(name)
            cp = compile_program(prog, "incremental")
            inputs = _random_inputs(prog, sizes, run.seed)
            for engine in ENGINES:
                for _ in range(2):
                    cp.run(inputs, engine=engine, sizes=sizes)
            progs[name] = (cp, inputs, sizes)

    run.measure_setup(setup)
    plan = [(name, e) for name in EXEC_SIZES for e in ENGINES]
    run.rng.shuffle(plan)
    seen: dict[tuple, set] = {}

    def do(item, _traced) -> float:
        name, engine = item
        cp, inputs, sizes = progs[name]
        t0 = time.perf_counter()
        outs = cp.run(inputs, engine=engine, sizes=sizes)
        latency = time.perf_counter() - t0
        seen.setdefault(item, set()).add(gate.digest_key(gate.digest(outs)))
        return latency

    before = perf.counters()
    run.loop(plan, do)
    counters = _counter_delta(before, perf.counters())
    run.e2e["peak_rss_mb"] = _peak_rss_mb()

    refs = {name: gate.reference(name, sizes, run.seed)
            for name, sizes in EXEC_SIZES.items()}
    for item in plan:
        got = seen.get(item, set())
        if got != {refs[item[0]]}:
            run.errors.append(f"exec-warm {item}: outputs {len(got)} digest(s), "
                              f"none or not all equal to the scalar reference")
    run.e2e["sim_cost_ms"] = sum(
        cp.simulate(sizes, K40).time for cp, _, sizes in progs.values()) * 1e3
    run.e2e["code_nodes"] = sum(cp.code_size() for cp, _, _ in progs.values())
    if run.trace:
        run.expect = ("exec.vector", "exec.codegen")
        n = max(1, run.attempted)
        run.finish_layers({
            "exec.compile_cache.hits": counters.get("exec.codegen.cache_hits", 0) / n,
            "exec.compile_cache.misses": counters.get("exec.codegen.cache_misses", 0) / n,
            "exec.kernel_compiles": counters.get("exec.codegen.compile", 0) / n,
        })


# ------------------------------------------------------------------- cli-cold


def cli_cold(run: Run) -> None:
    from repro import perf
    from repro.cli import _random_inputs, _resolve_program
    from repro.compiler import compile_program
    from repro.exec import compile_cache
    from repro.gpu import K40

    run.pin()

    cache = {}

    def setup(rep: int) -> None:
        perf.clear_caches()
        cache["dir"] = run.mkdir(f"cache{rep}")
        compile_cache.set_dir(cache["dir"])
        for name, sizes in EXEC_SIZES.items():
            prog = _resolve_program(name)
            cp = compile_program(prog, "incremental")
            cp.run(_random_inputs(prog, sizes, run.seed), engine="codegen", sizes=sizes)

    run.measure_setup(setup)
    run.env["REPRO_CODEGEN_CACHE"] = cache["dir"]
    script = os.path.join(run.root, "perfbench", "cli_request.py")
    plan = [(name, kind) for name in EXEC_SIZES for kind in ("run", "tune")]
    run.rng.shuffle(plan)
    results: list[tuple[tuple, dict, bool]] = []
    outputs = itertools.count()

    def do(item, traced) -> float:
        name, kind = item
        req = {"program": name, "kind": kind, "seed": run.seed,
               "sizes": EXEC_SIZES[name], "trace": traced,
               "output": run.path("tune", f"{name}-{next(outputs)}.tuning")}
        t0 = time.perf_counter()
        proc = run.child([sys.executable, script, json.dumps(req)], timeout=DEADLINE_S)
        latency = time.perf_counter() - t0
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise RuntimeError(f"exit {proc.returncode}: {tail[0]}")
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["request"] = req
        run.startup.append((doc["t_start"] - t0, doc["import_s"]))
        if traced:
            run.tracer.adopt(doc.pop("spans"))
        results.append((item, doc, traced))
        return latency

    run.loop(plan, do)
    run.e2e["peak_rss_mb"] = max(_peak_rss_mb(), _peak_rss_mb(children=True))

    refs = {name: gate.reference(name, sizes, run.seed)
            for name, sizes in EXEC_SIZES.items()}
    verified = set()
    choices = []
    costs: dict[str, list[float]] = {}
    nodes: dict[str, int] = {}
    for (name, kind), doc, _ in results:
        nodes[name] = doc["code_nodes"]
        if kind == "run":
            if gate.digest_key(doc["outputs"]) != refs[name]:
                run.errors.append(f"cli-cold run {name}: outputs differ from the "
                                  f"scalar reference")
                continue
        else:
            try:
                loaded = gate.load_artifact(doc["request"]["output"], name, K40.name)
            except Exception as exc:
                run.errors.append(f"cli-cold tune {name}: artifact does not load: {exc}")
                continue
            if loaded != doc["thresholds"]:
                run.errors.append(f"cli-cold tune {name}: artifact thresholds differ")
                continue
            choices.append((name, "incremental", doc["datasets"], K40,
                            doc["thresholds"], doc["best_cost"]))
            costs.setdefault(name, []).append(doc["best_cost"])
        verified.add((name, kind))
    for item in plan:
        if item not in verified:
            run.errors.append(f"cli-cold {item}: no verified output")
    run.e2e["sim_cost_ms"] = sum(statistics.fmean(c) for c in costs.values()) * 1e3
    run.e2e["code_nodes"] = sum(nodes.values())
    mismatches = _resim_mismatches(run, choices)
    if run.trace:
        run.expect = ("compile", "compile.normalize", "compile.fuse",
                      "compile.simplify", "compile.flatten", "compile.validate",
                      "exec.codegen", "exec.cache_load", "tune", "tune.persist",
                      "gpu.simulate")
        traced = [doc for _, doc, tr in results if tr]
        n = max(1, len(traced))
        total: dict[str, float] = {}
        for doc in traced:
            for k, v in doc["counters"].items():
                total[k] = total.get(k, 0) + v
        runs = [doc for doc in traced if "second_run_s" in doc]
        run.finish_layers({
            "exec.first_run_ms": statistics.median(
                d["first_run_s"] for d in runs) * 1e3 if runs else 0.0,
            "exec.cold_extra_ms": statistics.median(
                d["first_run_s"] - d["second_run_s"] for d in runs) * 1e3
            if runs else 0.0,
            "exec.compile_cache.hits": total.get("exec.codegen.cache_hits", 0) / n,
            "exec.compile_cache.misses": total.get("exec.codegen.cache_misses", 0) / n,
            "exec.kernel_compiles": total.get("exec.codegen.compile", 0) / n,
            "exec.guard.demotions": total.get("exec.guard.demotions", 0),
            "gpu.kernel_cache_hit_ratio": _ratio(total.get("kernel_cache.hits", 0),
                                                 total.get("kernel_cache.misses", 0)),
            "gpu.resim_mismatches": mismatches,
        })


# -------------------------------------------------------------------- figures


def figures(run: Run) -> None:
    from repro import perf
    from repro.bench import runner
    from repro.gpu.device import K40, VEGA64

    run.pin()

    devices = {d.name: d for d in (K40, VEGA64)}
    run.measure_setup(lambda _rep: perf.clear_caches())
    plan = [(fig, name, dev) for dev in devices
            for fig, name in [("fig2", "matmul"), ("fig7", "LocVolCalib")]
            + [("fig8", b) for b in runner.BULK_BENCHMARKS]]
    run.rng.shuffle(plan)
    rows_by_item: dict[tuple, list] = {}
    choices: list[tuple] = []
    compiled: dict[tuple, object] = {}

    # the gate needs the tuner's choices and the compiled programs; these
    # two patches only record what the pipeline returns
    orig_tune, orig_compile = runner.exhaustive_tune, runner.compile_program_cached

    def tune(cp, datasets, device, *args, **kwargs):
        res = orig_tune(cp, datasets, device, *args, **kwargs)
        choices.append((cp.prog.name, cp.mode, [dict(d) for d in datasets], device,
                        dict(res.best_thresholds), res.best_cost))
        return res

    def compile_cached(prog, mode="incremental", **kwargs):
        cp = orig_compile(prog, mode, **kwargs)
        compiled.setdefault((prog.name, mode, tuple(sorted(kwargs.items()))), cp)
        return cp

    def do(item, _traced) -> float:
        fig, name, dev = item
        device = devices[dev]
        perf.clear_caches()  # every request starts cold, like `repro figures`
        t0 = time.perf_counter()
        if fig == "fig2":
            rows = runner.fig2_rows(device)
        elif fig == "fig7":
            rows = runner.fig7_rows((device,))
        else:
            rows = runner.fig8_rows((device,), (name,))
        latency = time.perf_counter() - t0
        rows_by_item.setdefault(item, []).append(rows)
        return latency

    before = perf.counters()
    runner.exhaustive_tune, runner.compile_program_cached = tune, compile_cached
    try:
        run.loop(plan, do)
    finally:
        runner.exhaustive_tune, runner.compile_program_cached = orig_tune, orig_compile
    counters = _counter_delta(before, perf.counters())
    run.e2e["peak_rss_mb"] = _peak_rss_mb()

    want_rows = {"fig2": 11, "fig7": 3, "fig8": 2}
    for item in plan:
        passes = rows_by_item.get(item)
        if not passes:
            run.errors.append(f"figures {item}: no rows")
            continue
        for rows in passes:
            if len(rows) != want_rows[item[0]]:
                run.errors.append(f"figures {item}: {len(rows)} rows")
            if item[0] == "fig7":
                run.errors.extend(gate.fig7_mismatches(rows))
    run.e2e["sim_cost_ms"] = sum(
        row.tuned for passes in rows_by_item.values() for row in passes[0]) * 1e3
    run.e2e["code_nodes"] = sum(cp.code_size() for cp in compiled.values())
    mismatches = _resim_mismatches(run, choices)
    if run.trace:
        run.expect = ("compile", "compile.normalize", "compile.fuse",
                      "compile.simplify", "compile.flatten", "compile.validate",
                      "tune", "gpu.simulate")
        run.finish_layers({
            "gpu.kernel_cache_hit_ratio": _ratio(counters.get("kernel_cache.hits", 0),
                                                 counters.get("kernel_cache.misses", 0)),
            "gpu.resim_mismatches": mismatches,
        })


# ------------------------------------------------------------------ serve-mix


class Daemon:
    """A ``repro serve`` child on a Unix socket inside the run directory;
    ``spans`` starts it through the tracing wrapper instead."""

    def __init__(self, run: Run, spool: str, spans: str | None = None):
        from repro.service import ServiceClient

        # relative to the checkout root, where both processes run: short
        # enough for AF_UNIX however deep the checkout is
        sock = os.path.relpath(spool + ".sock", run.root)
        args = ["serve", "--socket", sock, "--spool", spool, "--runners", "2"]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, os.path.join(run.root, "perfbench", "serve.py"),
                    spans, *args]
        self.log = open(spool + ".log", "ab")
        self.proc = subprocess.Popen(argv, env=run.env, cwd=run.root,
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.client = ServiceClient(socket_path=sock, timeout=DEADLINE_S)

    def wait_ready(self) -> None:
        from repro.service import ServiceError

        deadline = time.perf_counter() + DEADLINE_S
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                self.client.ping()
                return
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=DEADLINE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _serve_spec(name: str, kind: str, seed: int) -> dict:
    from repro.bench.datasets import training_datasets

    if kind == "run":
        # the engine is explicit: a job's default is the scalar oracle
        return {"kind": "run", "program": name, "sizes": SERVE_SIZES[name],
                "seed": seed, "engine": "codegen"}
    return {"kind": "tune", "program": name, "device": "K40", "proposals": 300,
            "seed": seed, "datasets": [dict(d) for d in training_datasets(name)]}


class ServeClients:
    """Two tenants, one closed-loop client thread each, on one daemon."""

    def __init__(self, run: Run):
        self.run = run
        self.daemon: Daemon | None = None
        #: (spec, artifact json) of every fetched result
        self.fetched: list[tuple[dict, str]] = []
        self.stats = {"rejected": 0, "done": 0, "cached": 0}
        #: (client, program, kind) -> the spec that client repeats
        self.base: dict[tuple, dict] = {}

    def plan(self) -> list[tuple]:
        """One pass: every (program, kind) once fresh and three times
        repeated, so one job in four writes the store."""
        plan = [(name, kind, fresh) for name in SERVE_SIZES for kind in ("run", "tune")
                for fresh in (True, False, False, False)]
        self.run.rng.shuffle(plan)
        return plan

    def submit(self, client: int, spec: dict, traced: bool) -> float:
        """Streamed submit -> terminal event -> ``result``; seconds."""
        from repro.service import ServiceError

        client_ = self.daemon.client
        tracer = self.run.tracer if traced else None
        if tracer is not None:
            t0 = time.perf_counter()
            client_.ping()
            tracer.record("service.wire", t0, time.perf_counter())
        marks: dict[str, float] = {}
        job = terminal = None
        cached = False
        t0 = time.perf_counter()
        try:
            for doc in client_.submit_stream(spec, tenant=f"tenant{client}"):
                now = time.perf_counter()
                if "event" not in doc:
                    job, marks["admit"] = doc["job"], now
                elif doc["event"] == "started":
                    marks["started"] = now
                elif doc["event"] in ("done", "failed", "canceled"):
                    terminal, cached, marks["end"] = doc["event"], doc.get("cached"), now
        except ServiceError as exc:
            if exc.code in (429, 503):
                with self.run._lock:
                    self.stats["rejected"] += 1
            raise
        if terminal != "done":
            raise RuntimeError(f"job {job} ended {terminal}")
        tf = time.perf_counter()
        res = client_.result(job)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.record("service.admit", t0, marks["admit"])
            tracer.record("service.queue", marks["admit"], marks["started"])
            tracer.record("service.execute", marks["started"], marks["end"])
            tracer.record("service.fetch", tf, t1)
        with self.run._lock:
            self.stats["done"] += 1
            self.stats["cached"] += bool(cached)
            self.fetched.append((spec, json.dumps(res.get("artifact"), sort_keys=True)))
        return t1 - t0

    def prime(self) -> None:
        """Submit each client's base specs so the store holds them."""
        for client in (0, 1):
            for name in SERVE_SIZES:
                for kind in ("run", "tune"):
                    spec = _serve_spec(name, kind, 10**9 + client)
                    self.base[(client, name, kind)] = spec
                    self.submit(client, spec, False)

    def phase(self, seconds: float, traced: bool) -> None:
        """Both clients in whole passes for ``seconds``.

        The clients walk the same plan and meet after every request, so
        each request runs beside its twin from the other tenant whatever
        the seed.  While they wait the daemon is idle: that is where the
        host speed is calibrated, and at the end of a pass both learn
        whether to stop."""
        errors: list[BaseException] = []
        stop = []
        plan = self.plan()
        self.run.calibrate()
        t0 = time.perf_counter()
        ends = [t0]
        pass_end = [False]

        def meet() -> None:
            if pass_end[0]:
                self.run.calibrate()
                ends.append(time.perf_counter())
                if ends[-1] - t0 >= seconds:
                    stop.append(True)
            else:
                self.run.maybe_calibrate()

        barrier = threading.Barrier(2, action=meet)

        def client_loop(client: int) -> None:
            passes = 0
            try:
                while not stop:
                    for i, (name, kind, fresh) in enumerate(plan):
                        seed = self.run.seed * 10**6 + client * 10**5 + passes * 100 + i
                        spec = (_serve_spec(name, kind, seed) if fresh
                                else self.base[(client, name, kind)])
                        self.run.request(f"{name}.{kind}.{fresh}",
                                         lambda tr, sp=spec: self.submit(client, sp, tr),
                                         traced, f"c{client}.p{passes}.r{i}")
                        pass_end[0] = i + 1 == len(plan)
                        barrier.wait(timeout=4 * DEADLINE_S)
                    passes += 1
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=client_loop, args=(c,), daemon=True)
                   for c in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        self.run.elapsed += ends[-1] - t0
        self.run.elapsed_ref += self.run.speed.scale(t0, ends[-1])


def serve_mix(run: Run) -> None:
    from repro.gpu import K40

    clients = ServeClients(run)
    daemons: list[Daemon] = []

    def start(spool: str, spans: str | None = None) -> None:
        daemons.append(Daemon(run, spool, spans))
        clients.daemon = daemons[-1]
        daemons[-1].wait_ready()

    def setup(rep: int) -> None:
        if daemons:
            daemons[-1].stop()
        start(run.mkdir(f"spool{rep}"))
        clients.prime()

    spans_path = run.path("daemon-spans.json")
    try:
        run.measure_setup(setup, probe=False)
        for _ in range(SETUP_REPS if run.trace else 0):
            run.probe_startup()  # startup.* layer numbers, not part of setup_s
        clients.stats.update(rejected=0, done=0, cached=0)
        if run.trace:
            # untraced half, then the same spool under the tracing daemon
            clients.phase(run.seconds / 2, False)
            daemons[-1].stop()
            start(os.path.join(run.dir, f"spool{SETUP_REPS - 1}"), spans_path)
            clients.phase(run.seconds / 2, True)
        else:
            clients.phase(run.seconds, False)
    finally:
        for d in daemons:
            d.stop()
    run.e2e["peak_rss_mb"] = max(_peak_rss_mb(), _peak_rss_mb(children=True))

    refs: dict[tuple, str] = {}
    first: dict[str, str] = {}
    choices = []
    costs: dict[str, list[float]] = {}
    for spec, text in clients.fetched:
        key = json.dumps(spec, sort_keys=True)
        name = spec["program"]
        if key in first:  # a repeat: it must match the first fetch
            if first[key] != text:
                run.errors.append(f"serve-mix {name}: a repeated spec fetched a "
                                  f"different artifact")
            continue
        first[key] = text
        art = json.loads(text)
        if spec["kind"] == "run":
            rk = (name, spec["seed"])
            if rk not in refs:
                refs[rk] = gate.reference(name, spec["sizes"], spec["seed"])
            if gate.digest_key(art["outputs"]) != refs[rk]:
                run.errors.append(f"serve-mix run {name} seed {spec['seed']}: "
                                  f"outputs differ from the scalar reference")
            continue
        path = run.path("fetched", f"{len(choices)}.tuning")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(art["thresholds"], fh)
        try:
            loaded = gate.load_artifact(path, name, K40.name)
        except Exception as exc:
            run.errors.append(f"serve-mix tune {name}: artifact does not load: {exc}")
            continue
        cost = art["telemetry"]["best_cost"]
        choices.append((name, "incremental", spec["datasets"], K40, loaded, cost))
        costs.setdefault(name, []).append(cost)
    done = {label for label, *_ in run.latencies}
    for name, kind, fresh in itertools.product(SERVE_SIZES, ("run", "tune"), (True, False)):
        if f"{name}.{kind}.{fresh}" not in done:
            run.errors.append(f"serve-mix {name} {kind} fresh={fresh}: no request completed")
    run.e2e["sim_cost_ms"] = sum(statistics.fmean(c) for c in costs.values()) * 1e3
    run.e2e["code_nodes"] = _code_nodes(SERVE_SIZES)
    mismatches = _resim_mismatches(run, choices)
    if run.trace:
        run.expect = ("service.wire", "service.admit", "service.queue",
                      "service.execute", "service.fetch", "service.compile",
                      "service.store", "service.spool")
        with open(spans_path, encoding="utf-8") as fh:
            run.tracer.adopt(json.load(fh)["spans"])
        run.finish_layers({
            "service.store_hit_ratio": clients.stats["cached"] / max(1, clients.stats["done"]),
            "service.rejected": clients.stats["rejected"],
            "gpu.resim_mismatches": mismatches,
        })


def _code_nodes(names) -> int:
    from repro.cli import _resolve_program
    from repro.compiler import compile_program

    return sum(compile_program(_resolve_program(n), "incremental").code_size()
               for n in names)


def _peak_rss_mb(children: bool = False) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


WORKLOADS = {
    "exec-warm": exec_warm,
    "cli-cold": cli_cold,
    "figures": figures,
    "serve-mix": serve_mix,
}
