"""Online threshold tuning under simulated production traffic.

Three traffic mixes over Fig. 8 / Fig. 2 workloads, each a deterministic
stream of (program, dataset) items dispatched through the online tuner
(``docs/online-tuning.md``), starting from an empty table:

* **skewed** — 90% of items hit each program's worst-under-defaults
  shape (matmul k=25 e=0, NW D1, NN D1), the tail its other datasets.
  The headline floor: the online stream's total simulated cost must be
  at least ``SKEWED_FLOOR``x cheaper than running every item with
  untuned defaults.
* **bursty** — runs of one dataset back to back (a tenant submitting a
  batch), interleaved burst by burst.
* **shifting** — the dataset distribution flips mid-stream (NW/NN D1 ->
  D2): the new shapes are tuned as their own classes.

Every item is charged the simulated cost of the thresholds it ran on: a
class's first item runs the winner of the class's tune, every later item
the class's table entry.  The *pessimistic* accounting instead charges a
class's first item every configuration its tune simulated, as if the
item had run on each in turn.

For every mix the steady-state check compares the *exploited* items
(served from the table, no tune) against the offline-exhaustive optimum
— the per-item minimum over all forced branching-tree paths, a bound at
least as strict as any single exhaustively-tuned global assignment:
their cost ratio must stay within ``CONVERGED_RATIO_CEIL``, with at
least ``EXPLOITED_FRACTION_FLOOR`` of the stream exploited.  Three more
sections are reported:

* **coverage** — every Fig. 8 benchmark under a D1/D2-alternating stream
  of the committed length, with the tuner's simulations beside the
  observations the UCB-bandit online tuner spent on the same stream
  (``BANDIT_COVERAGE``, from its last committed artifact);
* **optimality** — for every bulk benchmark's D1/D2 and the matmul
  (Fig. 2) and LocVolCalib (§5.2) datasets on both devices, whether the
  tuned class's cost equals the minimum over the forced paths;
* **jittered** — one stream per bulk benchmark whose items are D1 or D2
  with every size scaled by an independent factor in [0.8, 1.2], so
  items of one class differ; its online/best ratio shows what freezing
  one path per class costs.

Results land in ``BENCH_online_tuning.json`` at the repo root (a smoke
run's in the git-ignored ``BENCH_online_tuning.smoke.json``).  Runnable
standalone (``python benchmarks/bench_online_tuning.py [--smoke]``) or
under pytest; ``REPRO_BENCH_SMOKE=1`` selects shorter mixes and a
three-benchmark subset for the other sections (the CI smoke
configuration) — the floors are enforced in both configurations.
"""

from __future__ import annotations

import json
import os
import random
import sys

from repro import perf
from repro.bench.datasets import FIG2_SWEEP, LOCVOLCALIB_DATASETS, table1_sizes
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program
from repro.bench.runner import BULK_BENCHMARKS
from repro.check.differential import enumerate_forced_paths
from repro.compiler import compile_program
from repro.gpu import K40, VEGA64
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
JITTER_ITEMS = 300

#: the UCB-bandit online tuner on each coverage stream, from the last
#: artifact it wrote: stream length (kept, so the rows compare), the
#: observations it simulated, and its speedup over untuned defaults
BANDIT_COVERAGE = {
    "Heston": (48, 38, 0.7716025789516184),
    "OptionPricing": (84, 74, 0.7937380638108033),
    "Backprop": (36, 26, 0.7500000000000004),
    "LavaMD": (66, 56, 0.7411588631899418),
    "NW": (42, 12, 4.5753296237940155),
    "NN": (36, 17, 2.30498247987754),
    "SRAD": (108, 98, 0.6059375417183394),
    "Pathfinder": (42, 22, 0.692246671709769),
}
#: the bandit's total simulated cost per full-mode mix (240 items)
BANDIT_MIX_TOTAL = {
    "skewed": 0.9335714194058679,
    "bursty": 0.4921744060926262,
    "shifting": 1.1147825823194415,
}


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _out_path() -> str:
    return SMOKE_OUT_PATH if _smoke() else OUT_PATH


class _Workload:
    """One compiled program, its forced-path optimum, and a tuner."""

    def __init__(self, name: str, prog, device=K40):
        self.name = name
        self.device = device
        self.cp = compile_program(prog, "incremental")
        self.paths, truncated = enumerate_forced_paths(
            self.cp.branching_trees(), max_paths=256
        )
        assert not truncated, f"{name}: forced-path enumeration truncated"
        self.tuner: OnlineTuner | None = None

    def reset(self) -> None:
        self.tuner = OnlineTuner(self.cp, self.device)

    def cost(self, sizes: dict, thresholds: dict | None = None) -> float:
        return float(
            self.cp.simulate(sizes, self.device, thresholds=thresholds or None).time
        )

    def best_cost(self, sizes: dict) -> float:
        """Offline-exhaustive optimum for this dataset: the cheapest
        forced branching-tree path (no global assignment can beat it)."""
        return min(self.cost(sizes, p) for p in self.paths)

    def step(self, sizes: dict) -> tuple:
        """Dispatch one item; returns the decision, the simulated cost of
        the thresholds it ran on, and its pessimistic charge."""
        decision = self.tuner.dispatch(sizes)
        cost = self.cost(sizes, decision.thresholds)
        pessimistic = cost
        if decision.explored:
            pessimistic = sum(c for _cfg, c in decision.result.full_history)
        return decision, cost, pessimistic


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
    """Dispatch one stream from empty tables and account every item
    against the untuned defaults and the offline optimum."""
    for wl in workloads.values():
        wl.reset()
    total_online = total_pessimistic = total_default = total_best = 0.0
    exploited_online = exploited_best = 0.0
    exploited_items = 0
    for key in stream:
        wl_name, sizes = datasets[key]
        wl = workloads[wl_name]
        decision, cost, pessimistic = wl.step(sizes)
        total_online += cost
        total_pessimistic += pessimistic
        total_default += wl.cost(sizes)
        best = wl.best_cost(sizes)
        total_best += best
        if not decision.explored:
            exploited_items += 1
            exploited_online += cost
            exploited_best += best
    row = {
        "mix": name,
        "items": len(stream),
        "total_online": total_online,
        "total_pessimistic": total_pessimistic,
        "total_default": total_default,
        "total_best": total_best,
        "speedup_vs_default": total_default / total_online,
        "pessimistic_speedup_vs_default": total_default / total_pessimistic,
        "exploited_items": exploited_items,
        "exploited_fraction": exploited_items / len(stream),
        "converged_ratio": (
            exploited_online / exploited_best if exploited_best else None
        ),
        "simulations": {
            wl_name: wl.tuner.simulations for wl_name, wl in workloads.items()
        },
        "classes": {
            wl_name: wl.tuner.classes()
            for wl_name, wl in workloads.items() if wl.tuner.classes()
        },
    }
    if not _smoke():
        row["bandit_total_online"] = BANDIT_MIX_TOTAL[name]
    return row


def _names() -> tuple[str, ...]:
    return SMOKE_COVERAGE if _smoke() else tuple(BULK_BENCHMARKS)


def _coverage_rows() -> list[dict]:
    """Every Fig. 8 benchmark under a D1/D2-alternating stream: what does
    the online tuner win over defaults, and what does it simulate?"""
    rows = []
    for name in _names():
        wl = _Workload(name, BULK_BENCHMARKS[name].program())
        wl.reset()
        length, bandit_obs, bandit_speedup = BANDIT_COVERAGE[name]
        total_online = total_pessimistic = total_default = 0.0
        for i in range(length):
            sizes = table1_sizes(name, "D1" if i % 2 == 0 else "D2")
            _decision, cost, pessimistic = wl.step(sizes)
            total_online += cost
            total_pessimistic += pessimistic
            total_default += wl.cost(sizes)
        rows.append({
            "benchmark": name,
            "paths": len(wl.paths),
            "items": length,
            "classes": len(wl.tuner.classes()),
            "simulations": wl.tuner.simulations,
            "bandit_observations": bandit_obs,
            "total_online": total_online,
            "total_default": total_default,
            "bandit_total_online": total_default / bandit_speedup,
            "speedup_vs_default": total_default / total_online,
            "pessimistic_speedup_vs_default": total_default / total_pessimistic,
        })
    return rows


def _optimality_rows() -> list[dict]:
    """Does each dataset's tuned class cost the forced-path minimum?"""
    cases: list[tuple[str, object, list[dict]]] = [
        (name, BULK_BENCHMARKS[name].program,
         [table1_sizes(name, d) for d in ("D1", "D2")])
        for name in _names()
    ]
    if not _smoke():
        cases.append(("matmul", matmul_program, [
            dict(sizes) for k in sorted(FIG2_SWEEP) for _e, sizes in FIG2_SWEEP[k]
        ]))
        cases.append(("LocVolCalib", locvolcalib_program, [
            locvolcalib_sizes(d) for d in LOCVOLCALIB_DATASETS
        ]))
    rows = []
    for name, program, datasets in cases:
        for device in (K40, VEGA64):
            wl = _Workload(name, program(), device)
            matched = 0
            for sizes in datasets:
                wl.reset()  # each dataset is its class's first item
                _decision, cost, _ = wl.step(sizes)
                matched += cost == wl.best_cost(sizes)
            rows.append({
                "benchmark": name,
                "device": device.name,
                "datasets": len(datasets),
                "optimal": matched,
            })
    return rows


def _jittered_rows() -> list[dict]:
    """Items of one class that differ: D1 or D2, every size scaled by an
    independent factor in [0.8, 1.2]."""
    items = 60 if _smoke() else JITTER_ITEMS
    rng = random.Random(SEED)
    rows = []
    for name in _names():
        wl = _Workload(name, BULK_BENCHMARKS[name].program())
        wl.reset()
        total_online = total_best = total_default = 0.0
        worst = 1.0
        for _ in range(items):
            base = table1_sizes(name, rng.choice(("D1", "D2")))
            sizes = {
                k: max(1, round(v * rng.uniform(0.8, 1.2)))
                for k, v in base.items()
            }
            _decision, cost, _ = wl.step(sizes)
            best = wl.best_cost(sizes)
            total_online += cost
            total_best += best
            total_default += wl.cost(sizes)
            worst = max(worst, cost / best)
        rows.append({
            "benchmark": name,
            "items": items,
            "classes": len(wl.tuner.classes()),
            "simulations": wl.tuner.simulations,
            "online_vs_best": total_online / total_best,
            "worst_item_vs_best": worst,
            "speedup_vs_default": total_default / total_online,
        })
    return rows


def run() -> dict:
    perf.reset()
    # smoke still needs enough steady-state items past the first item of
    # each class for the exploited-fraction floor
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
        "optimality": _optimality_rows(),
        "jittered": _jittered_rows(),
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
            f"{mix['speedup_vs_default']:6.2f}x vs defaults "
            f"({mix['pessimistic_speedup_vs_default']:.2f}x pessimistic)  "
            f"exploited {mix['exploited_fraction']:.0%}  "
            f"converged ratio {mix['converged_ratio']:.3f}"
        )
    for row in doc["coverage"]:
        print(
            f"coverage {row['benchmark']:14} paths={row['paths']:3} "
            f"classes={row['classes']}  "
            f"simulations {row['simulations']:3} "
            f"(bandit observed {row['bandit_observations']:3})  "
            f"{row['speedup_vs_default']:6.2f}x vs defaults "
            f"({row['pessimistic_speedup_vs_default']:.2f}x pessimistic)"
        )
    for row in doc["optimality"]:
        print(
            f"optimality {row['benchmark']:14} {row['device']:7} "
            f"{row['optimal']}/{row['datasets']} datasets at the "
            f"forced-path minimum"
        )
    for row in doc["jittered"]:
        print(
            f"jittered {row['benchmark']:14} {row['items']} items "
            f"{row['classes']:2} classes  online/best "
            f"{row['online_vs_best']:.3f} (worst item "
            f"{row['worst_item_vs_best']:.2f})"
        )
    _assert_floors(doc)
    print(f"floors ok -> {os.path.abspath(_out_path())}")


if __name__ == "__main__":
    main()
