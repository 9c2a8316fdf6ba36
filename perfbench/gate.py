"""The output gate: references that are exact by construction.

* Executed outputs are compared by digest — shape, dtype and sha256 of
  the bytes — never by float ``==``.  The reference is the scalar
  tree-walking oracle run on the *source* program.
* Tuning artifacts must load with ``load_thresholds`` against a fresh
  compile.
* Fig. 7 speedups must equal the table in ``EXPERIMENTS.md`` to two
  decimals (copied here so the reference cannot drift with the code).

Nothing that the program does not guarantee is asserted: stochastic
tuners may miss the optimum on some seeds, and "tuned beats untuned"
is false for NN D2 by design.  Re-simulating a tuner's choice is
*reported* (``gpu.resim_mismatches``), not gated: the GPU model keys
its L2-reuse set on bare ``id()`` values, so a freed array's id can be
priced as a cache hit for a new one.
"""

from __future__ import annotations

import hashlib

#: Fig. 7 of EXPERIMENTS.md: (device, dataset) -> speedups over MF
FIG7 = {
    ("K40", "small"): {"IF": 2.09, "AIF": 2.24, "FinPar-Out": 2.30, "FinPar-All": 3.88},
    ("K40", "medium"): {"IF": 1.56, "AIF": 2.07, "FinPar-Out": 3.24, "FinPar-All": 3.08},
    ("K40", "large"): {"IF": 2.01, "AIF": 2.01, "FinPar-Out": 3.02, "FinPar-All": 2.44},
    ("Vega64", "small"): {"IF": 5.15, "AIF": 5.15, "FinPar-Out": 2.80, "FinPar-All": 6.64},
    ("Vega64", "medium"): {"IF": 2.92, "AIF": 3.92, "FinPar-Out": 3.56, "FinPar-All": 6.59},
    ("Vega64", "large"): {"IF": 2.04, "AIF": 2.91, "FinPar-Out": 3.04, "FinPar-All": 6.45},
}


def digest(outputs) -> list[dict]:
    """Shape, dtype and sha256 of each output (the service's format)."""
    import numpy as np

    out = []
    for value in outputs:
        arr = np.ascontiguousarray(np.asarray(value))
        out.append({"shape": list(arr.shape), "dtype": str(arr.dtype),
                    "sha256": hashlib.sha256(arr.tobytes()).hexdigest()})
    return out


def digest_key(d: list[dict]) -> str:
    """A hashable form of a digest list."""
    return "|".join(f"{x['shape']}:{x['dtype']}:{x['sha256']}" for x in d)


def reference(name: str, sizes: dict, seed: int) -> str:
    """Digest key of the scalar oracle's outputs on the source program,
    for the inputs ``repro run``/the daemon generate from ``seed``."""
    from repro.cli import _random_inputs, _resolve_program
    from repro.interp import run_program

    prog = _resolve_program(name)
    inputs = _random_inputs(prog, sizes, seed)
    return digest_key(digest(run_program(prog, inputs, engine="scalar",
                                         sizes=sizes)))


def fig7_mismatches(rows) -> list[str]:
    """Fig. 7 cells that differ from the table at two decimals."""
    bad = []
    for row in rows:
        want = FIG7.get((row.device, row.dataset))
        got = {k: f"{v:.2f}" for k, v in row.speedups().items()}
        ref = {k: f"{v:.2f}" for k, v in (want or {}).items()}
        if got != ref:
            bad.append(f"fig7 {row.device}/{row.dataset}: {got} != {ref}")
    return bad


def resimulate(name: str, mode: str, datasets, device, thresholds) -> float:
    """The summed cost of ``thresholds`` on a fresh compile, no caches."""
    from repro.cli import _resolve_program
    from repro.compiler import compile_program

    cp = compile_program(_resolve_program(name), mode)
    return float(sum(
        cp.simulate(ds, device, thresholds=thresholds, cache=False).time
        for ds in datasets
    ))


def load_artifact(path: str, name: str, device: str) -> dict[str, int]:
    """``load_thresholds`` against a fresh compile (raises when stale)."""
    from repro.cli import _resolve_program
    from repro.compiler import compile_program
    from repro.tuning import load_thresholds

    cp = compile_program(_resolve_program(name), "incremental")
    return load_thresholds(path, cp, device=device)
