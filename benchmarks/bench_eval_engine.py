"""Memoized + parallel evaluation engine: end-to-end speedup measurement.

Runs the same 300-proposal LocVolCalib tuning job twice — once with every
cache layer disabled (``REPRO_NO_CACHE=1``; the pre-memoization evaluation
path) and once with the full engine (kernel-cost cache, signature engine,
duplicate-path cache, simulation memo, compile cache) — and checks that

* both runs find bit-identical results (soundness), and
* the cached run is at least 3x faster (the acceptance floor; in practice
  the speedup is far larger).

Results land in ``BENCH_eval_engine.json`` at the repo root.  Runnable
standalone (``python benchmarks/bench_eval_engine.py``) or under pytest.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace

from repro import config, perf
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.compiler import compile_program_cached
from repro.gpu import K40
from repro.tuning import Autotuner

OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_eval_engine.json")

MAX_PROPOSALS = 300
SEED = 0
DATASETS = [locvolcalib_sizes(n) for n in ("small", "medium", "large")]


def _tune_once(cached: bool):
    """One cold-start compile+tune run; returns (result, wall seconds, perf)."""
    perf.clear_caches()
    perf.reset()
    with config.use(replace(config.current(), cache=cached)):
        t0 = time.perf_counter()
        compiled = compile_program_cached(locvolcalib_program(), "incremental")
        tuner = Autotuner(compiled, DATASETS, K40, seed=SEED, cache=cached)
        result = tuner.tune(max_proposals=MAX_PROPOSALS, technique="bandit")
        elapsed = time.perf_counter() - t0
    return result, elapsed, perf.snapshot()


def run() -> dict:
    before, before_s, before_perf = _tune_once(cached=False)
    after, after_s, after_perf = _tune_once(cached=True)

    assert after.best_thresholds == before.best_thresholds, (
        "caching changed the tuning outcome: "
        f"{after.best_thresholds} != {before.best_thresholds}"
    )
    assert after.best_cost == before.best_cost, (
        f"caching changed the best cost: {after.best_cost} != {before.best_cost}"
    )
    assert [c for _, c in after.full_history] == [
        c for _, c in before.full_history
    ], "caching changed per-proposal costs"

    speedup = before_s / after_s if after_s > 0 else float("inf")
    doc = {
        "benchmark": "eval_engine",
        "program": "locvolcalib",
        "device": "K40",
        "max_proposals": MAX_PROPOSALS,
        "seed": SEED,
        "before": {
            "seconds": before_s,
            "best_cost": before.best_cost,
            "proposals": before.proposals,
            "simulations": before.simulations,
            "counters": before_perf["counters"],
        },
        "after": {
            "seconds": after_s,
            "best_cost": after.best_cost,
            "proposals": after.proposals,
            "simulations": after.simulations,
            "cache_hits": after.cache_hits,
            "counters": after_perf["counters"],
        },
        "speedup": speedup,
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def test_eval_engine_speedup():
    doc = run()
    assert doc["speedup"] >= 3.0, (
        f"memoized engine only {doc['speedup']:.1f}x faster than cache-disabled"
    )


def main() -> None:
    doc = run()
    print(
        f"eval engine: no-cache {doc['before']['seconds']:.3f}s, "
        f"cached {doc['after']['seconds']:.3f}s, "
        f"speedup {doc['speedup']:.1f}x "
        f"(written to {os.path.abspath(OUT_PATH)})"
    )
    assert doc["speedup"] >= 3.0


if __name__ == "__main__":
    main()
