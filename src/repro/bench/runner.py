"""Experiment pipelines: one function per paper figure/table.

* :func:`fig2_rows` — matmul runtime sweep (Fig. 2), thresholds trained on
  the k=20 datasets and applied unchanged to k=25 as in the paper.
* :func:`fig7_rows` — LocVolCalib speedups over moderate flattening on both
  devices, including the FinPar hand-written references.
* :func:`fig8_rows` — the eight bulk benchmarks × D1/D2 × devices
  (Table 1), bars IF / AIF / reference, baseline MF.
* :func:`fullflat_rows` — the §5.3 full-flattening ablation.
* :func:`code_expansion_rows` — the §5.1 compile-time / code-size claims.

Tuning uses the tree-aware exhaustive tuner on *tuning* datasets distinct
from the evaluation datasets (as §5.1 requires); the stochastic tuner is
exercised separately in the autotuner benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.bench import references as refs
from repro.bench.baselines import vendor_matmul_time
from repro.bench.datasets import table1_sizes
from repro.bench.programs.backprop import backprop_program
from repro.bench.programs.heston import heston_program
from repro.bench.programs.lavamd import lavamd_program
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.bench.programs.nn import nn_program
from repro.bench.programs.nw import nw_program
from repro.bench.programs.optionpricing import optionpricing_program
from repro.bench.programs.pathfinder import pathfinder_program
from repro.bench.programs.srad import srad_program
from repro.compiler import compile_program_cached
from repro.gpu.device import K40, VEGA64, DeviceSpec
from repro.tuning import exhaustive_tune

__all__ = [
    "fig2_rows",
    "fig7_rows",
    "fig8_rows",
    "fullflat_rows",
    "code_expansion_rows",
    "BULK_BENCHMARKS",
    "BenchSpec",
]


# ------------------------------------------------------------------- figure 2


@dataclass
class Fig2Row:
    e: int
    n: int
    m: int
    moderate: float
    incremental: float
    tuned: float
    vendor: float


def fig2_rows(
    device: DeviceSpec = K40, k_eval: int = 25, k_train: int = 20
) -> list[Fig2Row]:
    prog = matmul_program()
    mf = compile_program_cached(prog, "moderate")
    cp = compile_program_cached(prog, "incremental")
    train = [matmul_sizes(e, k_train) for e in range(k_train // 2 + 1)]
    th = exhaustive_tune(cp, train, device).best_thresholds
    rows = []
    for e in range(k_eval // 2 + 1):
        if e > 10:
            break
        sizes = matmul_sizes(e, k_eval)
        rows.append(
            Fig2Row(
                e=e,
                n=sizes["n"],
                m=sizes["m"],
                moderate=mf.simulate(sizes, device).time,
                incremental=cp.simulate(sizes, device).time,
                tuned=cp.simulate(sizes, device, thresholds=th).time,
                vendor=vendor_matmul_time(sizes["n"], sizes["m"], device),
            )
        )
    return rows


# ------------------------------------------------------------------- figure 7


@dataclass
class Fig7Row:
    device: str
    dataset: str
    moderate: float
    incremental: float
    tuned: float
    finpar_out: float
    finpar_all: float

    def speedups(self) -> dict[str, float]:
        base = self.moderate
        return {
            "IF": base / self.incremental,
            "AIF": base / self.tuned,
            "FinPar-Out": base / self.finpar_out,
            "FinPar-All": base / self.finpar_all,
        }


def fig7_rows(devices: tuple[DeviceSpec, ...] = (K40, VEGA64)) -> list[Fig7Row]:
    prog = locvolcalib_program()
    mf = compile_program_cached(prog, "moderate")
    cp = compile_program_cached(prog, "incremental")
    rows = []
    for device in devices:
        datasets = [locvolcalib_sizes(n) for n in ("small", "medium", "large")]
        th = exhaustive_tune(cp, datasets, device).best_thresholds
        for name in ("small", "medium", "large"):
            sizes = locvolcalib_sizes(name)
            rows.append(
                Fig7Row(
                    device=device.name,
                    dataset=name,
                    moderate=mf.simulate(sizes, device).time,
                    incremental=cp.simulate(sizes, device).time,
                    tuned=cp.simulate(sizes, device, thresholds=th).time,
                    finpar_out=refs.finpar_out_time(sizes, device),
                    finpar_all=refs.finpar_all_time(sizes, device),
                )
            )
    return rows


# ------------------------------------------------------------------- figure 8


@dataclass
class BenchSpec:
    """One bulk benchmark: program, MF compile flags, reference model."""

    name: str
    program: Callable
    #: (compiled_mf, compiled_if, sizes, device) -> seconds, or None
    reference: Callable | None
    mf_kwargs: dict = field(default_factory=dict)
    #: which datasets have a runnable reference (paper: batch-extended
    #: benchmarks have references only where the added batch factor is 1)
    reference_datasets: tuple[str, ...] = ("D1", "D2")
    #: tuning datasets are distinct from the evaluation datasets (§5.1);
    #: produced by shrinking the evaluation sizes
    tune_scale: float = 0.75
    #: size variables that must not be scaled when deriving tuning datasets
    fixed_sizes: tuple[str, ...] = ()
    #: hand-chosen tuning datasets ("based on application specific
    #: knowledge", §5.1); overrides the scaled derivation when given
    tune_sizes: tuple[dict, ...] | None = None


def _scaled_sizes(sizes: dict[str, int], scale: float, fixed: tuple[str, ...]):
    out = {}
    for k_, v_ in sizes.items():
        if k_ in fixed or v_ <= 4:
            out[k_] = v_
        else:
            out[k_] = max(1, int(v_ * scale))
    return out


BULK_BENCHMARKS: dict[str, BenchSpec] = {
    "Heston": BenchSpec(
        "Heston",
        heston_program,
        None,  # the original is sequential OCaml; no GPU reference (§5.3)
        fixed_sizes=("numCand", "numInt"),
    ),
    "OptionPricing": BenchSpec(
        "OptionPricing",
        optionpricing_program,
        lambda mf, cp, s, d: refs.optionpricing_reference_time(cp, s, d),
        fixed_sizes=("numUnd", "numBits"),
    ),
    "Backprop": BenchSpec(
        "Backprop",
        backprop_program,
        lambda mf, cp, s, d: refs.backprop_reference_time(s, d),
        mf_kwargs=dict(do_fuse=False),  # §5.3: fusion prevented for MF
        fixed_sizes=("numHidden",),
    ),
    "LavaMD": BenchSpec(
        "LavaMD",
        lavamd_program,
        lambda mf, cp, s, d: refs.lavamd_reference_time(mf, s, d),
        fixed_sizes=("perBox", "numNbr"),
    ),
    "NW": BenchSpec(
        "NW",
        nw_program,
        lambda mf, cp, s, d: refs.nw_reference_time(s, d),
        fixed_sizes=("B",),
    ),
    "NN": BenchSpec(
        "NN",
        nn_program,
        lambda mf, cp, s, d: refs.nn_reference_time(s, d),
        reference_datasets=("D1",),
        # workload shapes are bimodal (one huge batch vs many tiny ones);
        # the tuning sets keep each mode's inner extent representative
        tune_sizes=(dict(numB=1, numP=700000), dict(numB=3000, numP=128)),
    ),
    "SRAD": BenchSpec(
        "SRAD",
        srad_program,
        lambda mf, cp, s, d: refs.srad_reference_time(cp, s, d),
        reference_datasets=("D1",),
        fixed_sizes=("numIter",),
    ),
    "Pathfinder": BenchSpec(
        "Pathfinder",
        pathfinder_program,
        lambda mf, cp, s, d: refs.pathfinder_reference_time(s, d),
        reference_datasets=("D1",),
        fixed_sizes=("rows",),
    ),
}


@dataclass
class Fig8Row:
    device: str
    benchmark: str
    dataset: str
    description: str
    moderate: float
    incremental: float
    tuned: float
    reference: float | None

    def speedups(self) -> dict[str, float]:
        out = {
            "IF": self.moderate / self.incremental,
            "AIF": self.moderate / self.tuned,
        }
        if self.reference is not None:
            out["Reference"] = self.moderate / self.reference
        return out


def fig8_rows(
    devices: tuple[DeviceSpec, ...] = (K40, VEGA64),
    benchmarks: tuple[str, ...] | None = None,
) -> list[Fig8Row]:
    from repro.bench.datasets import TABLE1

    names = benchmarks or tuple(BULK_BENCHMARKS)
    rows = []
    for name in names:
        spec = BULK_BENCHMARKS[name]
        prog = spec.program()
        mf = compile_program_cached(prog, "moderate", **spec.mf_kwargs)
        cp = compile_program_cached(prog, "incremental")
        eval_sizes = {ds: table1_sizes(name, ds) for ds in ("D1", "D2")}
        if spec.tune_sizes is not None:
            tune_sizes = [dict(s) for s in spec.tune_sizes]
        else:
            tune_sizes = [
                _scaled_sizes(s, spec.tune_scale, spec.fixed_sizes)
                for s in eval_sizes.values()
            ]
        for device in devices:
            th = exhaustive_tune(cp, tune_sizes, device).best_thresholds
            for ds in ("D1", "D2"):
                sizes = eval_sizes[ds]
                ref_time = None
                if spec.reference is not None and ds in spec.reference_datasets:
                    ref_time = spec.reference(mf, cp, sizes, device)
                rows.append(
                    Fig8Row(
                        device=device.name,
                        benchmark=name,
                        dataset=ds,
                        description=TABLE1[name][ds],
                        moderate=mf.simulate(sizes, device).time,
                        incremental=cp.simulate(sizes, device).time,
                        tuned=cp.simulate(sizes, device, thresholds=th).time,
                        reference=ref_time,
                    )
                )
    return rows


# ----------------------------------------------------- §5.3 full flattening


def fullflat_rows(device: DeviceSpec = K40) -> list[tuple[str, str, float]]:
    """Runtime ratio full-flattening / untuned-IF per benchmark/dataset."""
    rows = []
    for name, spec in BULK_BENCHMARKS.items():
        prog = spec.program()
        ff = compile_program_cached(prog, "full")
        cp = compile_program_cached(prog, "incremental")
        for ds in ("D1", "D2"):
            sizes = table1_sizes(name, ds)
            t_ff = ff.simulate(sizes, device).time
            t_if = cp.simulate(sizes, device).time
            rows.append((name, ds, t_ff / t_if))
    return rows


# ---------------------------------------------------- §5.1 code expansion


def code_expansion_rows() -> list[tuple[str, float, float, float, int]]:
    """(benchmark, compile-time ratio, AST-size ratio, generated-LOC ratio,
    IF kernel count) — all ratios are incremental over moderate."""
    from repro.codegen import generate_opencl

    out = []
    progs = {"matmul": matmul_program, "LocVolCalib": locvolcalib_program}
    progs.update({n: s.program for n, s in BULK_BENCHMARKS.items()})
    for name, mk in progs.items():
        prog = mk()
        mf = compile_program_cached(prog, "moderate")
        cp = compile_program_cached(prog, "incremental")
        time_ratio = cp.compile_seconds / max(mf.compile_seconds, 1e-9)
        size_ratio = cp.code_size() / max(mf.code_size(), 1)
        gen_mf = generate_opencl(mf)
        gen_if = generate_opencl(cp)
        loc_ratio = gen_if.loc / max(gen_mf.loc, 1)
        out.append((name, time_ratio, size_ratio, loc_ratio, gen_if.num_kernels))
    return out
