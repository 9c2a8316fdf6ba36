"""Forced-path differential execution.

The paper's premise is that the guarded versions ``e_top``, ``e_middle``
and ``e_flat`` of a multi-versioned program are semantically equivalent —
threshold predicates only *select* among them.  This module checks that
mechanically: it extracts the branching tree of a compiled program,
enumerates every root-to-leaf path (crossing independent trees), pins a
threshold assignment that forces each path (``0`` forces ``Par ≥ t`` true,
``2^62`` forces it false), runs the flattened body under the reference
interpreter for every forced path, and asserts the results are
**bit-identical** to running the source program.  Bit-identity is a fair
bar because the interpreter folds reductions and scans left-to-right on
both sides (see :mod:`repro.interp.evaluator`).

Datasets are deliberately tiny (``CHECK_DATASETS``): path coverage, not
throughput, is the point, and the reference interpreter is O(work).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from repro import config
from repro.bench.programs import MODULES
from repro.check.validate import ValidationError
from repro.compiler import compile_program
from repro.flatten import branching_trees
from repro.flatten.versions import BranchNode
from repro.interp import run_program
from repro.ir.builder import Program
from repro.request import MODES, builtin_name, builtin_program, random_inputs

__all__ = [
    "FORCE_TRUE",
    "FORCE_FALSE",
    "ENGINES",
    "FUSIONS",
    "CHECK_DATASETS",
    "PathOutcome",
    "ModeResult",
    "DatasetResult",
    "ProgramReport",
    "bit_equal",
    "enumerate_forced_paths",
    "differential_check",
    "check_all",
]

#: engines and fusion modes checked by default: both fusion legs are
#: compared against the same unfused source-program reference, so passing
#: both proves ILP fusion bit-identical to ``--fusion off``
ENGINES, FUSIONS = config.ENGINES, config.FUSIONS

#: ``Par ≥ 0`` always holds; ``Par ≥ 2^62`` never does (sizes are moderate).
FORCE_TRUE = 0
FORCE_FALSE = 2**62

#: Small per-benchmark datasets for differential checking.  Two per program,
#: shaped to hit both sides of typical threshold comparisons (wide × shallow
#: and narrow × deep) while keeping interpreter time in milliseconds.
CHECK_DATASETS: dict[str, tuple[dict[str, int], ...]] = {
    "matmul": (dict(n=4, m=8), dict(n=1, m=6)),
    "LocVolCalib": (
        dict(numS=2, numX=3, numY=4, numT=2),
        dict(numS=1, numX=5, numY=2, numT=3),
    ),
    "Heston": (
        dict(numQuotes=4, numCand=3, numInt=5),
        dict(numQuotes=2, numCand=2, numInt=3),
    ),
    "OptionPricing": (
        dict(numMC=4, numDates=2, numUnd=2, numDim=4, numBits=8),
        dict(numMC=2, numDates=3, numUnd=2, numDim=6, numBits=8),
    ),
    "Backprop": (dict(numIn=6, numHidden=4), dict(numIn=3, numHidden=2)),
    "LavaMD": (
        dict(numBoxes=4, perBox=3, numNbr=3),
        dict(numBoxes=5, perBox=2, numNbr=2),
    ),
    "NW": (dict(nb=2, B=4, numWaves=3), dict(nb=3, B=2, numWaves=5)),
    "NN": (dict(numB=2, numP=5), dict(numB=1, numP=7)),
    "SRAD": (
        dict(numB=2, H=4, W=5, numIter=2),
        dict(numB=1, H=3, W=3, numIter=1),
    ),
    "Pathfinder": (dict(numB=2, rows=3, cols=6), dict(numB=1, rows=2, cols=4)),
}


# -- comparison --------------------------------------------------------------


def bit_equal(a, b) -> bool:
    """Exact equality: same shape, same dtype, same bits (NaN-safe)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _describe_mismatch(ref, got, index: int) -> str:
    ra, ga = np.asarray(ref), np.asarray(got)
    if ra.shape != ga.shape:
        return f"result[{index}]: shape {ra.shape} vs {ga.shape}"
    if ra.dtype != ga.dtype:
        return f"result[{index}]: dtype {ra.dtype} vs {ga.dtype}"
    diff = np.abs(ra.astype(np.float64) - ga.astype(np.float64))
    return (
        f"result[{index}]: max abs diff {float(np.max(diff)):.6g} "
        f"over {int(np.sum(ra != ga))} differing element(s)"
    )


# -- forced-path enumeration -------------------------------------------------


def _tree_paths(node: BranchNode) -> list[dict[str, int]]:
    out: list[dict[str, int]] = []
    for branch, val in ((node.if_true, FORCE_TRUE), (node.if_false, FORCE_FALSE)):
        if isinstance(branch, int):
            out.append({node.threshold: val})
        else:
            for sub in _forest_paths(branch):
                d = dict(sub)
                d[node.threshold] = val
                out.append(d)
    return out


def _forest_paths(nodes: Sequence[BranchNode]) -> list[dict[str, int]]:
    per_tree = [_tree_paths(n) for n in nodes]
    out: list[dict[str, int]] = []
    for combo in itertools.product(*per_tree):
        merged: dict[str, int] = {}
        ok = True
        for part in combo:
            for k, v in part.items():
                if merged.get(k, v) != v:
                    ok = False  # same threshold forced both ways: impossible path
                    break
                merged[k] = v
            if not ok:
                break
        if ok:
            out.append(merged)
    return out


def enumerate_forced_paths(
    trees: Sequence[BranchNode], *, max_paths: int | None = None
) -> tuple[list[dict[str, int]], bool]:
    """All threshold assignments forcing each execution path.

    Independent sibling trees (e.g. LocVolCalib's two tridag batches) are
    crossed, so a "path" selects one leaf in *every* tree.  Returns the
    assignments and a truncation flag (``True`` when ``max_paths`` cut the
    enumeration short — never silently).
    """
    if not trees:
        return [{}], False
    paths = _forest_paths(list(trees))
    truncated = max_paths is not None and len(paths) > max_paths
    if truncated:
        paths = paths[:max_paths]
    return paths, truncated


# -- results -----------------------------------------------------------------


@dataclass
class PathOutcome:
    """One forced path that failed (passing paths are only counted)."""

    thresholds: dict[str, int]
    detail: str

    def to_json(self) -> dict:
        return {"thresholds": self.thresholds, "detail": self.detail}


@dataclass
class ModeResult:
    mode: str
    fusion: str = "ilp"
    num_paths: int = 0
    truncated: bool = False
    failures: list[PathOutcome] = field(default_factory=list)
    error: str | None = None  # compile/validator error for this mode

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "fusion": self.fusion,
            "paths": self.num_paths,
            "truncated": self.truncated,
            "failures": [f.to_json() for f in self.failures],
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class DatasetResult:
    sizes: dict[str, int]
    seed: int
    modes: list[ModeResult] = field(default_factory=list)
    error: str | None = None  # source interpreter error

    @property
    def ok(self) -> bool:
        return self.error is None and all(m.ok for m in self.modes)

    def to_json(self) -> dict:
        return {
            "sizes": self.sizes,
            "seed": self.seed,
            "modes": [m.to_json() for m in self.modes],
            "error": self.error,
            "ok": self.ok,
        }


@dataclass
class ProgramReport:
    program: str
    datasets: list[DatasetResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.datasets)

    @property
    def paths_checked(self) -> int:
        return sum(m.num_paths for d in self.datasets for m in d.modes)

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "ok": self.ok,
            "paths_checked": self.paths_checked,
            "datasets": [d.to_json() for d in self.datasets],
        }


# -- the differential check --------------------------------------------------


def differential_check(
    prog: Program,
    datasets: Iterable[Mapping[str, int]],
    *,
    modes: Sequence[str] = MODES,
    seed: int = 0,
    max_paths: int = 4096,
    num_levels: int = 2,
    engines: Sequence[str] = ENGINES,
    fusions: Sequence[str] = FUSIONS,
) -> ProgramReport:
    """Differentially test ``prog`` against its own flattened versions.

    For every dataset, every flattening mode and every fusion mode, every
    forced threshold path of the compiled body is executed with every
    requested engine and compared bit-for-bit against the source program's
    results (run under the scalar oracle).  ``engines`` defaults to all
    three executors — the scalar tree-walker, the vectorizing executor and
    the codegen tier — so every path is the proof obligation for the
    flattening rules *and* both compiled engines; ``fusions`` defaults to
    ``("ilp", "off")``, making every run also a proof that ILP fusion
    preserves bit-identical semantics.
    Compile-time validator failures are reported per (mode, fusion) leg
    rather than raised, so one broken leg does not hide another's results.
    """
    from repro.compiler import FUSION_MODES

    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r} (expected {ENGINES})")
    for fusion in fusions:
        if fusion not in FUSION_MODES:
            raise ValueError(
                f"unknown fusion mode {fusion!r} (expected {FUSION_MODES})"
            )
    report = ProgramReport(program=prog.name)
    compiled: dict[tuple[str, str], object] = {}
    for ds_index, sizes in enumerate(datasets):
        ds = DatasetResult(sizes=dict(sizes), seed=seed + ds_index)
        report.datasets.append(ds)
        try:
            inputs = random_inputs(prog, sizes, ds.seed)
            ref = run_program(prog, inputs, sizes=sizes)
        except Exception as ex:  # noqa: BLE001 - reported, not raised
            ds.error = f"{type(ex).__name__}: {ex}"
            continue
        runners: dict[str, Callable] = {
            "scalar": lambda body, th: run_program(
                prog, inputs, body=body, thresholds=th, sizes=sizes
            )
        }
        exec_engines = [e for e in ("vector", "codegen") if e in engines]
        if exec_engines:
            from repro.exec import new_evaluator, set_thresholds
            from repro.interp.evaluator import program_env

            env, all_sizes = program_env(prog, inputs, sizes)
            gate_failed = False
            for engine in exec_engines:
                xev = new_evaluator(engine, all_sizes, inputs)

                def engine_run(body, th, _xev=xev, _env=env):
                    # one evaluator per (dataset, engine): kernels compile
                    # once, launch once per forced path (thresholds swap
                    # between launches)
                    set_thresholds(_xev, th)
                    return _xev.eval(body, _env)

                runners[engine] = engine_run
                # gate: the engine must agree on the source program too
                try:
                    xref = engine_run(prog.body, None)
                except Exception as ex:  # noqa: BLE001
                    ds.error = (
                        f"[{engine}] source program: {type(ex).__name__}: {ex}"
                    )
                    gate_failed = True
                    break
                if len(xref) != len(ref) or not all(
                    bit_equal(r, v) for r, v in zip(ref, xref)
                ):
                    ds.error = (
                        f"[{engine}] source program diverges from scalar oracle"
                    )
                    gate_failed = True
                    break
            if gate_failed:
                continue
        for mode, fusion in itertools.product(modes, fusions):
            mr = ModeResult(mode=mode, fusion=fusion)
            ds.modes.append(mr)
            try:
                cp = compiled.get((mode, fusion))
                if cp is None:
                    cp = compile_program(
                        prog, mode, num_levels=num_levels, fusion=fusion
                    )
                    cp.check()
                    compiled[(mode, fusion)] = cp
            except (ValidationError, Exception) as ex:  # noqa: BLE001
                mr.error = f"{type(ex).__name__}: {ex}"
                continue
            paths, truncated = enumerate_forced_paths(
                branching_trees(cp.body), max_paths=max_paths
            )
            mr.num_paths = len(paths)
            mr.truncated = truncated
            for th in paths:
                for engine in engines:
                    try:
                        got = runners[engine](cp.body, th)
                    except Exception as ex:  # noqa: BLE001
                        mr.failures.append(
                            PathOutcome(
                                th,
                                f"[{engine}] interpreter error: "
                                f"{type(ex).__name__}: {ex}",
                            )
                        )
                        continue
                    if len(got) != len(ref):
                        mr.failures.append(
                            PathOutcome(th, f"[{engine}] arity {len(got)} vs {len(ref)}")
                        )
                        continue
                    for i, (r, g) in enumerate(zip(ref, got)):
                        if not bit_equal(r, g):
                            mr.failures.append(
                                PathOutcome(
                                    th, f"[{engine}] {_describe_mismatch(r, g, i)}"
                                )
                            )
                            break
    return report


def check_all(
    names: Sequence[str] | None = None,
    *,
    modes: Sequence[str] = MODES,
    seed: int = 0,
    max_paths: int = 4096,
    engines: Sequence[str] = ENGINES,
    fusions: Sequence[str] = FUSIONS,
) -> list[ProgramReport]:
    """Run the differential check over (a subset of) the built-in benchmarks.

    Raises :class:`~repro.request.RequestError` for a name that is not a
    built-in benchmark."""
    reports = []
    for name in names or MODULES:
        prog = builtin_program(name)
        reports.append(
            differential_check(
                prog,
                CHECK_DATASETS[builtin_name(name)],
                modes=modes,
                seed=seed,
                max_paths=max_paths,
                engines=engines,
                fusions=fusions,
            )
        )
    return reports
