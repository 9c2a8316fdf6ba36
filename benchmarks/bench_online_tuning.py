"""Online adaptive threshold tuning under simulated production traffic.

Three traffic mixes over Fig. 8 / Fig. 2 workloads, each a deterministic
stream of (program, dataset) items dispatched through the online tuner
(``docs/online-tuning.md``), starting cold from the paper's 2^15
defaults:

* **skewed** — 90% of items hit each program's worst-under-defaults
  shape (matmul k=25 e=0, NW D1, NN D1), the tail its other datasets.
  The headline floor: the online stream's total simulated cost must be
  at least ``SKEWED_FLOOR``x cheaper than running every item with
  untuned defaults.
* **bursty** — runs of one dataset back to back (a tenant submitting a
  batch), interleaved burst by burst.
* **shifting** — the dataset distribution flips mid-stream (NW/NN D1 ->
  D2), exercising per-shape-class learning: the new shapes get their own
  bandit state instead of perturbing the converged classes.

For every mix the steady-state check compares the *exploited* items
(dispatched from a converged table entry, zero bandit work) against the
offline-exhaustive optimum — the per-item minimum over all forced
branching-tree paths, a bound at least as strict as any single
exhaustively-tuned global assignment: their cost ratio must stay within
``CONVERGED_RATIO_CEIL``, with at least ``EXPLOITED_FRACTION_FLOOR`` of
the stream exploited.  A coverage sweep additionally streams every
Fig. 8 benchmark (D1/D2 alternating) and records its convergence curve.

Results land in ``BENCH_online_tuning.json`` at the repo root (a smoke
run's in the git-ignored ``BENCH_online_tuning.smoke.json``), including
per-class convergence-curve telemetry and the ``online.*`` counters.
Runnable standalone (``python benchmarks/bench_online_tuning.py
[--smoke]``) or under pytest; ``REPRO_BENCH_SMOKE=1`` selects shorter
streams and a three-benchmark coverage subset (the CI smoke
configuration) — the floors are enforced in both configurations.
"""

from __future__ import annotations

import json
import os
import random
import sys

from repro import perf
from repro.bench.datasets import FIG2_SWEEP, table1_sizes
from repro.bench.programs.matmul import matmul_program
from repro.bench.runner import BULK_BENCHMARKS
from repro.check.differential import enumerate_forced_paths
from repro.compiler import compile_program
from repro.gpu import K40
from repro.tuning.online import OnlineTuner

OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_online_tuning.json"
)
#: where a smoke run writes: git-ignored, so a smoke run never replaces
#: the committed full-mode artifact
SMOKE_OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_online_tuning.smoke.json"
)

SKEWED_FLOOR = 5.0
CONVERGED_RATIO_CEIL = 1.10
EXPLOITED_FRACTION_FLOOR = 0.5
SMOKE_COVERAGE = ("NW", "NN", "Backprop")
SEED = 20190216  # PPoPP'19


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _out_path() -> str:
    return SMOKE_OUT_PATH if _smoke() else OUT_PATH


class _Workload:
    """One compiled program, its forced-path optimum, and a tuner."""

    def __init__(self, name: str, prog):
        self.name = name
        self.cp = compile_program(prog, "incremental")
        self.paths, truncated = enumerate_forced_paths(
            self.cp.branching_trees(), max_paths=256
        )
        assert not truncated, f"{name}: forced-path enumeration truncated"
        self.tuner: OnlineTuner | None = None

    def reset(self) -> None:
        self.tuner = OnlineTuner(self.cp, K40)

    def default_cost(self, sizes: dict) -> float:
        return float(self.cp.simulate(sizes, K40).time)

    def best_cost(self, sizes: dict) -> float:
        """Offline-exhaustive optimum for this dataset: the cheapest
        forced branching-tree path (no global assignment can beat it)."""
        return min(
            float(self.cp.simulate(sizes, K40, thresholds=p or None).time)
            for p in self.paths
        )

    def step(self, sizes: dict) -> tuple:
        decision = self.tuner.dispatch(sizes)
        if decision.explored:
            cost = float(decision.cost)
        else:
            cost = float(
                self.cp.simulate(
                    sizes, K40, thresholds=decision.thresholds or None
                ).time
            )
        return decision, cost


def _table1_workloads() -> dict[str, _Workload]:
    out = {
        "matmul": _Workload("matmul", matmul_program()),
        "NW": _Workload("NW", BULK_BENCHMARKS["NW"].program()),
        "NN": _Workload("NN", BULK_BENCHMARKS["NN"].program()),
    }
    return out


def _datasets() -> dict[str, tuple[str, dict]]:
    """Item key -> (workload name, sizes).  matmul uses the Fig. 2 k=25
    sweep (each exponent is a distinct shape class); NW/NN use Table 1."""
    sweep = dict(FIG2_SWEEP[25])
    return {
        "matmul-e0": ("matmul", dict(sweep[0])),
        "matmul-e7": ("matmul", dict(sweep[7])),
        "NW-D1": ("NW", table1_sizes("NW", "D1")),
        "NW-D2": ("NW", table1_sizes("NW", "D2")),
        "NN-D1": ("NN", table1_sizes("NN", "D1")),
        "NN-D2": ("NN", table1_sizes("NN", "D2")),
    }


def _skewed_stream(n: int, rng: random.Random) -> list[str]:
    # 90% worst-under-defaults shapes, 10% tail; NW-D1 weighted heaviest
    # because it also dominates the mix's absolute simulated cost
    pool = (["NW-D1"] * 45 + ["matmul-e0"] * 25 + ["NN-D1"] * 20
            + ["matmul-e7"] * 4 + ["NW-D2"] * 3 + ["NN-D2"] * 3)
    return [rng.choice(pool) for _ in range(n)]


def _bursty_stream(n: int, rng: random.Random, burst: int = 10) -> list[str]:
    keys = ["NN-D1", "matmul-e0", "NW-D1", "matmul-e7", "NW-D2", "NN-D2"]
    stream: list[str] = []
    while len(stream) < n:
        stream.extend([rng.choice(keys)] * burst)
    return stream[:n]


def _shifting_stream(n: int, rng: random.Random) -> list[str]:
    first = ["NW-D1"] * 9 + ["NN-D1"]
    second = ["NW-D2"] * 9 + ["NN-D2"]
    return [
        rng.choice(first if i < n // 2 else second) for i in range(n)
    ]


def _play_mix(
    name: str,
    stream: list[str],
    workloads: dict[str, _Workload],
    datasets: dict[str, tuple[str, dict]],
) -> dict:
    """Dispatch one stream cold and account every item three ways:
    online (what the tuner chose), untuned defaults, offline optimum."""
    for wl in workloads.values():
        wl.reset()
    total_online = total_default = total_best = 0.0
    exploited_online = exploited_best = 0.0
    exploited_items = 0
    for key in stream:
        wl_name, sizes = datasets[key]
        wl = workloads[wl_name]
        decision, cost = wl.step(sizes)
        total_online += cost
        total_default += wl.default_cost(sizes)
        best = wl.best_cost(sizes)
        total_best += best
        if not decision.explored:
            exploited_items += 1
            exploited_online += cost
            exploited_best += best
    curves = {
        wl_name: wl.tuner.classes_doc()
        for wl_name, wl in workloads.items()
        if wl.tuner.total_observations()
    }
    return {
        "mix": name,
        "items": len(stream),
        "total_online": total_online,
        "total_default": total_default,
        "total_best": total_best,
        "speedup_vs_default": total_default / total_online,
        "exploited_items": exploited_items,
        "exploited_fraction": exploited_items / len(stream),
        "converged_ratio": (
            exploited_online / exploited_best if exploited_best else None
        ),
        "convergence": curves,
    }


def _coverage_rows() -> list[dict]:
    """Every Fig. 8 benchmark under a D1/D2-alternating stream: does the
    online tuner converge, and what does it win over defaults?"""
    names = SMOKE_COVERAGE if _smoke() else tuple(BULK_BENCHMARKS)
    rows = []
    for name in names:
        wl = _Workload(name, BULK_BENCHMARKS[name].program())
        wl.reset()
        length = wl.tuner.explore_budget * 2 + 12
        total_online = total_default = 0.0
        for i in range(length):
            sizes = table1_sizes(name, "D1" if i % 2 == 0 else "D2")
            _decision, cost = wl.step(sizes)
            total_online += cost
            total_default += wl.default_cost(sizes)
        rows.append({
            "benchmark": name,
            "arms": len(wl.tuner.arms),
            "items": length,
            "observations": wl.tuner.total_observations(),
            "converged_classes": len(wl.tuner.converged_classes()),
            "classes": len(wl.tuner.classes_doc()),
            "speedup_vs_default": total_default / total_online,
        })
    return rows


def run() -> dict:
    perf.reset()
    # smoke still needs enough steady-state items to amortise the fixed
    # exploration overhead past the skewed floor
    n = 160 if _smoke() else 240
    rng = random.Random(SEED)
    workloads = _table1_workloads()
    datasets = _datasets()
    mixes = [
        _play_mix("skewed", _skewed_stream(n, rng), workloads, datasets),
        _play_mix("bursty", _bursty_stream(n, rng), workloads, datasets),
        _play_mix("shifting", _shifting_stream(n, rng), workloads, datasets),
    ]
    doc = {
        "benchmark": "online_tuning",
        "device": "K40",
        "smoke": _smoke(),
        "seed": SEED,
        "stream_items": n,
        "before": {"thresholds": "untuned 2^15 defaults"},
        "after": {"thresholds": "online per-shape-class tables"},
        "floors": {
            "skewed_speedup_vs_default": SKEWED_FLOOR,
            "converged_ratio_ceil": CONVERGED_RATIO_CEIL,
            "exploited_fraction_floor": EXPLOITED_FRACTION_FLOOR,
        },
        "mixes": mixes,
        "coverage": _coverage_rows(),
        "counters": {
            k: v for k, v in sorted(perf.snapshot()["counters"].items())
            if k.startswith(("online.", "exec.dispatch"))
        },
    }
    with open(_out_path(), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def _assert_floors(doc: dict) -> None:
    by_name = {m["mix"]: m for m in doc["mixes"]}
    skewed = by_name["skewed"]
    assert skewed["speedup_vs_default"] >= SKEWED_FLOOR, (
        f"online tuning only {skewed['speedup_vs_default']:.2f}x over "
        f"untuned defaults on the skewed mix (floor {SKEWED_FLOOR}x)"
    )
    for mix in doc["mixes"]:
        assert mix["exploited_fraction"] >= EXPLOITED_FRACTION_FLOOR, (
            f"{mix['mix']}: only {mix['exploited_fraction']:.0%} of the "
            f"stream was exploited (floor {EXPLOITED_FRACTION_FLOOR:.0%})"
        )
        assert mix["converged_ratio"] is not None
        assert mix["converged_ratio"] <= CONVERGED_RATIO_CEIL, (
            f"{mix['mix']}: converged online cost is "
            f"{mix['converged_ratio']:.3f}x the offline-exhaustive optimum "
            f"(ceiling {CONVERGED_RATIO_CEIL}x)"
        )


def test_online_tuning_bench():
    doc = run()
    _assert_floors(doc)


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    doc = run()
    for mix in doc["mixes"]:
        print(
            f"mix {mix['mix']:9} {mix['items']:4} items  "
            f"{mix['speedup_vs_default']:6.2f}x vs defaults  "
            f"exploited {mix['exploited_fraction']:.0%}  "
            f"converged ratio {mix['converged_ratio']:.3f}"
        )
    for row in doc["coverage"]:
        print(
            f"coverage {row['benchmark']:14} arms={row['arms']:3} "
            f"converged {row['converged_classes']}/{row['classes']} classes  "
            f"{row['speedup_vs_default']:6.2f}x vs defaults"
        )
    _assert_floors(doc)
    print(f"floors ok -> {os.path.abspath(_out_path())}")


if __name__ == "__main__":
    main()
