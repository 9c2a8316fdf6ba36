"""Spans recorded around calls into the repro layers, from the outside.

The benchmark does not rely on instrumentation inside the program: it
replaces a layer's public function (a module or class attribute) with a
wrapper that records a span, and puts the original back afterwards.  A
span is ``[name, start, end, parent, request, attrs]``; ``parent`` is
the index of the enclosing span in the same thread (or ``None``) and
``request`` the id of the benchmark request that caused it.  Spans stay
in memory until :meth:`Tracer.dump` writes them at exit.

A wrapper that is re-entered in one thread (a pass calling itself)
records only the outermost call, so a layer's time never exceeds the
wall time it covered.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time

#: the ten built-in programs, keyed by ``Program.name`` -> display name
PROGRAMS = {
    "matmul": "matmul",
    "locvolcalib": "LocVolCalib",
    "heston": "Heston",
    "optionpricing": "OptionPricing",
    "backprop": "Backprop",
    "lavamd": "LavaMD",
    "nw": "NW",
    "nn": "NN",
    "srad": "SRAD",
    "pathfinder": "Pathfinder",
}

ENGINES = ("vector", "codegen")


class Tracer:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request: str | None) -> None:
        """Tag the spans this thread records next with ``request``."""
        self._local.request = request

    def begin(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        row = [name, time.perf_counter(), None, parent,
               getattr(self._local, "request", None), attrs or {}]
        with self._lock:
            self.spans.append(row)
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller (a phase of a
        request observed from the client side)."""
        stack = self._stack()
        row = [name, start, end, stack[-1] if stack else None,
               getattr(self._local, "request", None), {}]
        with self._lock:
            self.spans.append(row)

    def adopt(self, rows: list[list]) -> None:
        """Append spans recorded by another process; their roots become
        children of this thread's open span and take its request id."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = getattr(self._local, "request", None)
        with self._lock:
            offset = len(self.spans)
            for name, start, end, par, req, attrs in rows:
                self.spans.append([name, start, end,
                                   parent if par is None else par + offset,
                                   req or request, attrs])

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name, on_call=None, on_result=None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a string or a function of the call's arguments;
        ``on_call(args, kwargs)`` may return a finisher whose attrs are
        merged when the call returns, ``on_result(value)`` attrs taken
        from the returned value.
        """
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            active = getattr(tracer._local, "active", None)
            if active is None:
                active = tracer._local.active = set()
            if label in active:
                return orig(*args, **kwargs)
            active.add(label)
            finish = on_call(args, kwargs) if on_call else None
            idx = tracer.begin(label)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
                active.discard(label)
                if finish is not None:
                    tracer.spans[idx][5].update(finish())
            if on_result is not None:
                tracer.spans[idx][5].update(on_result(out))
            return out

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def unwrap(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent",
                                                "request", "attrs"],
                       "spans": self.spans}, fh)


# -- the layer boundaries ------------------------------------------------------


def _exec_label(cp, *args, **kwargs) -> str:
    engine = kwargs.get("engine") or (args[2] if len(args) > 2 else None)
    return f"exec.{engine}.{cp.prog.name}"


def _counter_delta(*names: str):
    """An ``on_call`` hook: the growth of perf counters over the call."""
    def on_call(_args, _kwargs):
        from repro import perf

        before = perf.counters()

        def finish() -> dict:
            after = perf.counters()
            return {n: after.get(n, 0) - before.get(n, 0) for n in names}
        return finish
    return on_call


def _tune_result(res) -> dict:
    return {"configs": res.proposals, "simulations": res.simulations}


def install_program_layers(tracer: Tracer) -> None:
    """Wrap the compiler, execute, tuning and GPU-model entry points.

    The pass names are the module globals ``compile_program`` looks up on
    every call, so wrapping them times each pass of every compile.
    """
    import repro.bench.runner as runner
    import repro.compiler as compiler
    import repro.exec.compile_cache as compile_cache
    import repro.tuning.persist as persist
    from repro.gpu.cost import Simulator
    from repro.tuning.tuner import Autotuner

    tracer.wrap(compiler, "compile_program", "compile")
    for attr, label in (("normalize", "normalize"), ("ilp_fuse", "fuse"),
                        ("fuse", "fuse"), ("simplify", "simplify"),
                        ("validate", "validate")):
        tracer.wrap(compiler, attr, f"compile.{label}")
    tracer.wrap(compiler.Flattener, "flatten", "compile.flatten")
    tracer.wrap(compiler.CompiledProgram, "run", _exec_label,
                on_call=_counter_delta("exec.scalar_fallbacks",
                                       "exec.guard.demotions"))
    tracer.wrap(compile_cache, "load", "exec.cache_load")
    tracer.wrap(Autotuner, "tune", "tune", on_result=_tune_result)
    tracer.wrap(runner, "exhaustive_tune", "tune", on_result=_tune_result)
    tracer.wrap(persist, "save_thresholds", "tune.persist")
    tracer.wrap(Simulator, "simulate", "gpu.simulate")


def install_daemon_layers(tracer: Tracer) -> None:
    """Wrap what the service daemon does per job besides executing it."""
    import repro.compiler as compiler
    from repro.service.jobs import Spool
    from repro.service.store import ArtifactStore

    tracer.wrap(compiler, "compile_program", "service.compile")
    tracer.wrap(ArtifactStore, "load", "service.store")
    tracer.wrap(ArtifactStore, "store", "service.store")
    tracer.wrap(Spool, "save", "service.spool")


# -- per-layer metrics -----------------------------------------------------------

#: every per-layer metric and its unit, in report order
LAYER_UNITS: dict[str, str] = {
    "startup.python_ms": "ms",
    "startup.import_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.calls": "count",
    "compiler.normalize_ms": "ms",
    "compiler.fuse_ms": "ms",
    "compiler.simplify_ms": "ms",
    "compiler.flatten_ms": "ms",
    "compiler.validate_ms": "ms",
    **{f"exec.{e}.{p}_ms": "ms" for e in ENGINES for p in PROGRAMS.values()},
    "exec.guard.demotions": "count",
    "exec.vector.scalar_fallbacks": "count",
    "exec.first_run_ms": "ms",
    "exec.cold_extra_ms": "ms",
    "exec.compile_cache.hits": "count",
    "exec.compile_cache.misses": "count",
    "exec.compile_cache.load_ms": "ms",
    "exec.kernel_compiles": "count",
    "tuning.self_ms": "ms",
    "tuning.configs": "count",
    "tuning.simulations": "count",
    "tuning.dedup_ratio": "ratio",
    "tuning.persist_ms": "ms",
    "gpu.simulate_ms": "ms",
    "gpu.simulate_calls": "count",
    "gpu.kernel_cache_hit_ratio": "ratio",
    "gpu.resim_mismatches": "count",
    "service.wire_ms": "ms",
    "service.admit_ms": "ms",
    "service.queue_ms": "ms",
    "service.execute_ms": "ms",
    "service.fetch_ms": "ms",
    "service.store_hit_ratio": "ratio",
    "service.rejected": "count",
    "service.compile_ms": "ms",
    "service.store_ms": "ms",
    "service.spool_ms": "ms",
    "trace.overhead_pct": "%",
    "host.calibration_ms": "ms",
}

#: span name -> per-request total-time metric
_TOTAL_MS = {
    "compile": "compiler.compile_ms",
    "compile.normalize": "compiler.normalize_ms",
    "compile.fuse": "compiler.fuse_ms",
    "compile.simplify": "compiler.simplify_ms",
    "compile.flatten": "compiler.flatten_ms",
    "compile.validate": "compiler.validate_ms",
    "exec.cache_load": "exec.compile_cache.load_ms",
    "tune.persist": "tuning.persist_ms",
    "gpu.simulate": "gpu.simulate_ms",
    "service.compile": "service.compile_ms",
    "service.store": "service.store_ms",
    "service.spool": "service.spool_ms",
}

#: client-observed request phase -> per-request median metric
_PHASE_MS = {
    "service.wire": "service.wire_ms",
    "service.admit": "service.admit_ms",
    "service.queue": "service.queue_ms",
    "service.execute": "service.execute_ms",
    "service.fetch": "service.fetch_ms",
}


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer numbers from the spans of ``requests`` traced requests.

    Layer times are milliseconds per request (so they add up towards the
    request latency), execute times the median per call, request phases
    the median per request, work counts per request.
    """
    n = max(1, requests)
    out = {name: 0.0 for name in LAYER_UNITS}
    selfs = self_times(spans)
    per_call: dict[str, list[float]] = {}
    phases: dict[str, list[float]] = {}
    configs = sims = 0
    vector_calls = 0
    for s, self_s in zip(spans, selfs):
        name, dur, attrs = s[0], s[2] - s[1], s[5]
        if name in _TOTAL_MS:
            out[_TOTAL_MS[name]] += dur * 1e3 / n
        if name == "compile":
            out["compiler.calls"] += 1 / n
        elif name == "gpu.simulate":
            out["gpu.simulate_calls"] += 1 / n
        elif name == "tune":
            out["tuning.self_ms"] += self_s * 1e3 / n
            configs += attrs.get("configs", 0)
            sims += attrs.get("simulations", 0)
        elif name in _PHASE_MS:
            phases.setdefault(name, []).append(dur)
        elif name.startswith("exec.") and name.count(".") == 2:
            _, engine, prog = name.split(".")
            key = f"exec.{engine}.{PROGRAMS.get(prog, prog)}_ms"
            per_call.setdefault(key, []).append(dur)
            out["exec.guard.demotions"] += attrs.get("exec.guard.demotions", 0)
            if engine == "vector":
                vector_calls += 1
                out["exec.vector.scalar_fallbacks"] += attrs.get(
                    "exec.scalar_fallbacks", 0)
    for key, durs in per_call.items():
        if key in out:
            out[key] = statistics.median(durs) * 1e3
    for name, durs in phases.items():
        out[_PHASE_MS[name]] = statistics.median(durs) * 1e3
    if vector_calls:
        out["exec.vector.scalar_fallbacks"] /= vector_calls
    out["tuning.configs"] = configs / n
    out["tuning.simulations"] = sims / n
    out["tuning.dedup_ratio"] = sims / configs if configs else 0.0
    return out
