"""Vectorizing executor: end-to-end speedup over the scalar interpreter.

Runs the LocVolCalib differential workload — every forced code-version
path of every flattening mode, executed on one LocVolCalib-scale dataset —
twice: once through the scalar tree-walking oracle and once through the
vectorizing executor (``src/repro/exec/``), and checks that

* every path's results are bit-identical across the two engines
  (soundness — the same property ``repro check`` enforces), and
* the vector engine is at least 10x faster end-to-end (the acceptance
  floor; in practice the gap is far larger and grows with the dataset).

Results land in ``BENCH_exec_engine.json`` at the repo root (a smoke
run's in the git-ignored ``BENCH_exec_engine.smoke.json``), shaped like
``BENCH_eval_engine.json``.  Runnable standalone
(``python benchmarks/bench_exec_engine.py [--smoke]``) or under pytest;
``REPRO_BENCH_SMOKE=1`` selects a tiny dataset with a 2x floor (the CI
smoke configuration).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from repro import perf
from repro.bench.programs.locvolcalib import locvolcalib_inputs, locvolcalib_program
from repro.check.differential import enumerate_forced_paths
from repro.compiler import compile_program_cached

OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_exec_engine.json")
#: where a smoke run writes: git-ignored, so a smoke run never replaces
#: the committed full-mode artifact
SMOKE_OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_exec_engine.smoke.json"
)

SEED = 0
MODES = ("moderate", "incremental", "full")
#: LocVolCalib-scale (same shape as the paper's datasets, scaled so the
#: scalar oracle finishes in tens of seconds rather than hours)
SIZES_FULL = dict(numS=8, numT=16, numX=16, numY=32)
SIZES_SMOKE = dict(numS=4, numT=4, numX=8, numY=8)
FLOOR_FULL = 10.0
FLOOR_SMOKE = 2.0


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _out_path() -> str:
    return SMOKE_OUT_PATH if _smoke() else OUT_PATH


def _run_workload(engine: str, sizes: dict[str, int]):
    """Execute every forced path of every mode under ``engine``.

    Returns (per-path results, wall seconds, perf counters).  Compilation
    of the three code versions is shared between engines via the compile
    cache, so the measurement isolates execution.
    """
    perf.reset()
    prog = locvolcalib_program()
    inputs = locvolcalib_inputs(sizes, seed=SEED)
    results = []
    t0 = time.perf_counter()
    for mode in MODES:
        cp = compile_program_cached(prog, mode)
        paths, truncated = enumerate_forced_paths(cp.branching_trees(), max_paths=64)
        assert not truncated
        for th in paths:
            outs = cp.run(inputs, thresholds=th, engine=engine)
            results.append(tuple(np.asarray(o) for o in outs))
    elapsed = time.perf_counter() - t0
    return results, elapsed, perf.snapshot()


def run(sizes: dict[str, int] | None = None) -> dict:
    if sizes is None:
        sizes = SIZES_SMOKE if _smoke() else SIZES_FULL
    scalar_res, scalar_s, scalar_perf = _run_workload("scalar", sizes)
    vector_res, vector_s, vector_perf = _run_workload("vector", sizes)

    assert len(scalar_res) == len(vector_res)
    for i, (ref, got) in enumerate(zip(scalar_res, vector_res)):
        for r, g in zip(ref, got):
            assert r.shape == g.shape and r.dtype == g.dtype, f"path {i}: shape/dtype"
            assert r.tobytes() == g.tobytes(), f"path {i}: results diverge"

    speedup = scalar_s / vector_s if vector_s > 0 else float("inf")
    doc = {
        "benchmark": "exec_engine",
        "program": "locvolcalib",
        "workload": "forced-path differential sweep",
        "modes": list(MODES),
        "paths": len(scalar_res),
        "sizes": sizes,
        "seed": SEED,
        "smoke": _smoke(),
        "before": {
            "engine": "scalar",
            "seconds": scalar_s,
            "counters": scalar_perf["counters"],
        },
        "after": {
            "engine": "vector",
            "seconds": vector_s,
            "counters": vector_perf["counters"],
        },
        "speedup": speedup,
    }
    with open(_out_path(), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def test_exec_engine_speedup():
    doc = run()
    floor = FLOOR_SMOKE if _smoke() else FLOOR_FULL
    assert doc["speedup"] >= floor, (
        f"vector engine only {doc['speedup']:.1f}x faster than the scalar "
        f"oracle (floor {floor}x)"
    )


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    doc = run()
    floor = FLOOR_SMOKE if _smoke() else FLOOR_FULL
    dest = os.path.abspath(_out_path())
    print(
        f"exec engine: scalar {doc['before']['seconds']:.3f}s, "
        f"vector {doc['after']['seconds']:.3f}s over {doc['paths']} forced "
        f"paths, speedup {doc['speedup']:.1f}x {dest}"
    )
    assert doc["speedup"] >= floor


if __name__ == "__main__":
    main()
