"""ILP fusion vs the greedy pass: kernel launches and simulated cost.

Two workloads, both compiled under all three fusion modes
(``off`` / ``greedy`` / ``ilp``, see ``docs/fusion.md``):

* the Fig. 8 bulk suite — for every benchmark, the kernel-launch count,
  simulated run time (K40 cost model), AST size and branching-tree path
  count per fusion mode.  The ILP pass must never launch more kernels
  than the greedy pass (it uses greedy's result as its incumbent, so
  this is an enforced invariant, not a tendency).
* a fusion-rich synthetic suite — fan-out, shared-producer and
  partial-consumption shapes the greedy pass cannot fuse (it requires a
  unique, exactly-matching consumer) but the ILP formulation can.  The
  acceptance floor is a 1.15x geometric-mean simulated-cost improvement
  of ILP over greedy across this suite.

Results land in ``BENCH_fusion.json`` at the repo root (a smoke
run's in the git-ignored ``BENCH_fusion.smoke.json``).  Runnable
standalone (``python benchmarks/bench_fusion.py [--smoke]``) or under
pytest; ``REPRO_BENCH_SMOKE=1`` selects smaller synthetic sizes and a
three-benchmark bulk subset (the CI smoke configuration).
"""

from __future__ import annotations

import json
import math
import os
import sys

from repro import perf
from repro.bench.datasets import training_datasets
from repro.bench.runner import BULK_BENCHMARKS
from repro.check.differential import enumerate_forced_paths
from repro.compiler import compile_program
from repro.gpu import K40
from repro.ir import builder as B
from repro.ir import source as S
from repro.ir.traverse import reset_fresh_names

OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_fusion.json")
#: where a smoke run writes: git-ignored, so a smoke run never replaces
#: the committed full-mode artifact
SMOKE_OUT_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_fusion.smoke.json"
)

FUSIONS = ("off", "greedy", "ilp")
SMOKE_BULK = ("Heston", "Backprop", "NN")
GEOMEAN_FLOOR = 1.15


def _smoke() -> bool:
    return bool(os.environ.get("REPRO_BENCH_SMOKE"))


def _out_path() -> str:
    return SMOKE_OUT_PATH if _smoke() else OUT_PATH


# -- fusion-rich synthetic suite ------------------------------------------------
#
# Each program is a shape the greedy pass gives up on: a producer with
# more than one consumer, a consumer that mixes the produced array with
# another one, or both.  The ILP pass fuses them by duplicating the
# producer body into each consumer (charged in the objective, so it only
# happens when cheaper than materialising).


def _arr(n: str):
    return B.ArrayType((n,), B.F32)


def _fanout_reduce():
    """One map feeding two reductions: 3 kernels greedy, 2 ILP."""

    def body(xs):
        return B.let_(
            B.map_(B.lam(lambda x: x * x + B.f32(1.0)), xs),
            lambda t: B.reduce_(B.op2("+"), [B.f32(0.0)], t)
            + B.reduce_(B.op2("max"), [B.f32(-1e30)], t),
        )

    return B.Program("fanout_reduce", [("xs", _arr("n"))], body(S.Var("xs")))


def _shared_map():
    """A producer shared by two maps that are then combined: 4 kernels
    unfused; greedy cannot touch it (two uses), ILP collapses it to 1."""

    def body(xs):
        return B.let_(
            B.map_(B.lam(lambda x: x * B.f32(1.5)), xs),
            lambda t: B.map_(
                B.op2("+"),
                B.map_(B.lam(lambda a: a * a), t),
                B.map_(B.lam(lambda b: b + B.f32(2.0)), t),
            ),
        )

    return B.Program("shared_map", [("xs", _arr("n"))], body(S.Var("xs")))


def _partial_zip():
    """A produced array zipped with a program input: not an exact
    consumer (extra argument), so greedy skips it; ILP fuses with a
    passthrough parameter."""

    def body(xs, ys):
        return B.let_(
            B.map_(B.lam(lambda x: x * x), xs),
            lambda t: B.reduce_(
                B.op2("+"), [B.f32(0.0)], B.map_(B.op2("*"), t, ys)
            ),
        )

    return B.Program(
        "partial_zip",
        [("xs", _arr("n")), ("ys", _arr("n"))],
        body(S.Var("xs"), S.Var("ys")),
    )


def _chain_fanout():
    """A two-map chain whose tail feeds two reductions: greedy fuses the
    chain head but stops at the fan-out; ILP takes the whole tree down
    to 2 kernels."""

    def body(xs):
        return B.let_(
            B.map_(B.lam(lambda x: x + B.f32(0.5)), xs),
            lambda a: B.let_(
                B.map_(B.lam(lambda y: y * y), a),
                lambda t: B.reduce_(B.op2("+"), [B.f32(0.0)], t)
                * B.reduce_(B.op2("max"), [B.f32(-1e30)], t),
            ),
        )

    return B.Program("chain_fanout", [("xs", _arr("n"))], body(S.Var("xs")))


def _triple_fanout():
    """One producer, three reduction consumers."""

    def body(xs):
        return B.let_(
            B.map_(B.lam(lambda x: x * x + x), xs),
            lambda t: B.reduce_(B.op2("+"), [B.f32(0.0)], t)
            + B.reduce_(B.op2("max"), [B.f32(-1e30)], t)
            + B.reduce_(B.op2("min"), [B.f32(1e30)], t),
        )

    return B.Program("triple_fanout", [("xs", _arr("n"))], body(S.Var("xs")))


FUSION_RICH = (
    _fanout_reduce,
    _shared_map,
    _partial_zip,
    _chain_fanout,
    _triple_fanout,
)


def _compile_stats(prog, fusion: str, sizes: dict[str, int], **kwargs) -> dict:
    """Compile under one fusion mode and sweep every forced path.

    ``kernels`` / ``sim_ms`` are the best (fewest launches / fastest)
    over all forced branching-tree paths — the configuration the
    autotuner converges to — so the comparison measures what each fusion
    mode makes *reachable*, not what untuned default thresholds happen
    to pick.
    """
    reset_fresh_names()
    cp = compile_program(prog, "incremental", fusion=fusion, **kwargs)
    paths, truncated = enumerate_forced_paths(cp.branching_trees(), max_paths=4096)
    assert not truncated
    kernels = None
    sim_s = None
    for th in paths:
        rep = cp.simulate(sizes, K40, thresholds=th, cache=False)
        if kernels is None or rep.num_kernels < kernels:
            kernels = rep.num_kernels
        if sim_s is None or rep.time < sim_s:
            sim_s = rep.time
    return {
        "kernels": kernels,
        "sim_ms": sim_s * 1e3,
        "ast_nodes": cp.code_size(),
        "forced_paths": len(paths),
    }


def run() -> dict:
    perf.reset()
    bulk_names = SMOKE_BULK if _smoke() else tuple(BULK_BENCHMARKS)
    n_rich = 1 << 10 if _smoke() else 1 << 18

    bulk = []
    for name in bulk_names:
        spec = BULK_BENCHMARKS[name]
        prog = spec.program()
        sizes = dict(training_datasets(name)[0])
        row: dict = {"benchmark": name, "sizes": sizes}
        for fusion in FUSIONS:
            row[fusion] = _compile_stats(prog, fusion, sizes)
        assert row["ilp"]["kernels"] <= row["greedy"]["kernels"], (
            f"{name}: ILP fusion launched {row['ilp']['kernels']} kernels "
            f"vs greedy's {row['greedy']['kernels']}"
        )
        bulk.append(row)

    rich = []
    speedups = []
    for mk in FUSION_RICH:
        prog = mk()
        sizes = {"n": n_rich}
        row = {"benchmark": prog.name, "sizes": sizes}
        for fusion in FUSIONS:
            row[fusion] = _compile_stats(prog, fusion, sizes)
        assert row["ilp"]["kernels"] <= row["greedy"]["kernels"], (
            f"{prog.name}: ILP fusion launched {row['ilp']['kernels']} "
            f"kernels vs greedy's {row['greedy']['kernels']}"
        )
        row["speedup_vs_greedy"] = row["greedy"]["sim_ms"] / row["ilp"]["sim_ms"]
        speedups.append(row["speedup_vs_greedy"])
        rich.append(row)
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))

    doc = {
        "benchmark": "fusion",
        "device": "K40",
        "smoke": _smoke(),
        "bulk": bulk,
        "fusion_rich": rich,
        "before": {"fusion": "greedy"},
        "after": {"fusion": "ilp"},
        "geomean_speedup_fusion_rich": geomean,
        "counters": {
            k: v for k, v in sorted(perf.snapshot()["counters"].items())
            if k.startswith("fusion.")
        },
    }
    with open(_out_path(), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def test_fusion_bench():
    doc = run()
    assert doc["geomean_speedup_fusion_rich"] >= GEOMEAN_FLOOR, (
        f"ILP fusion only {doc['geomean_speedup_fusion_rich']:.3f}x over "
        f"greedy on the fusion-rich suite (floor {GEOMEAN_FLOOR}x)"
    )


def main() -> None:
    if "--smoke" in sys.argv[1:]:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    doc = run()
    dest = os.path.abspath(_out_path())
    for row in doc["bulk"]:
        print(
            f"bulk {row['benchmark']:14} kernels "
            f"off={row['off']['kernels']:3} "
            f"greedy={row['greedy']['kernels']:3} "
            f"ilp={row['ilp']['kernels']:3}  sim "
            f"greedy={row['greedy']['sim_ms']:9.4f}ms "
            f"ilp={row['ilp']['sim_ms']:9.4f}ms"
        )
    for row in doc["fusion_rich"]:
        print(
            f"rich {row['benchmark']:15} kernels "
            f"off={row['off']['kernels']} greedy={row['greedy']['kernels']} "
            f"ilp={row['ilp']['kernels']}  "
            f"{row['speedup_vs_greedy']:5.2f}x vs greedy"
        )
    print(
        f"fusion-rich geomean: {doc['geomean_speedup_fusion_rich']:.2f}x "
        f"(floor {GEOMEAN_FLOOR}x) {dest}"
    )
    assert doc["geomean_speedup_fusion_rich"] >= GEOMEAN_FLOOR


if __name__ == "__main__":
    main()
