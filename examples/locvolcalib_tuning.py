#!/usr/bin/env python3
"""LocVolCalib end to end (paper §5.2, Figs. 6 and 7).

Shows the three generated code versions, autotunes the thresholds per
device, and reproduces the Figure 7 speedup table — including the
performance-portability flip between the two hand-written FinPar codes.

Run:  python examples/locvolcalib_tuning.py
"""

import numpy as np

from repro.bench.programs.locvolcalib import (
    locvolcalib_inputs,
    locvolcalib_program,
    locvolcalib_reference,
    locvolcalib_sizes,
)
from repro.bench.references import finpar_all_time, finpar_out_time
from repro.compiler import compile_program
from repro.gpu import K40, VEGA64
from repro.tuning import Autotuner, exhaustive_tune, path_signature


def main() -> None:
    prog = locvolcalib_program()
    mf = compile_program(prog, "moderate")
    cp = compile_program(prog, "incremental")
    print(
        f"moderate: {mf.code_size()} nodes; incremental: {cp.code_size()} "
        f"nodes, {len(cp.registry)} thresholds\n"
    )

    # correctness on a tiny dataset before any performance work
    tiny = dict(numS=2, numX=3, numY=4, numT=2)
    inputs = locvolcalib_inputs(tiny)
    ref = locvolcalib_reference(inputs)
    got = cp.run(inputs)
    assert all(np.allclose(r, g, rtol=1e-5) for r, g in zip(ref, got))
    print("tiny-dataset correctness: ok\n")

    datasets = [locvolcalib_sizes(nm) for nm in ("small", "medium", "large")]
    for device in (K40, VEGA64):
        # the stochastic tuner (paper default) and the tree-aware
        # exhaustive tuner (the paper's suggested improvement)
        stoch = Autotuner(cp, datasets, device, seed=0).tune(max_proposals=300)
        exact = exhaustive_tune(cp, datasets, device)
        th = exact.best_thresholds
        print(f"== {device.name} ==")
        print(
            f"  stochastic: cost {stoch.best_cost*1e3:8.3f} ms "
            f"(dedup {stoch.dedup_ratio:.0%}); "
            f"exhaustive: cost {exact.best_cost*1e3:8.3f} ms "
            f"({exact.simulations} sims)"
        )
        print(f"  {'dataset':>8} {'MF(ms)':>9} | {'IF':>5} {'AIF':>5} "
              f"{'F-Out':>6} {'F-All':>6}")
        for name in ("small", "medium", "large"):
            sizes = locvolcalib_sizes(name)
            base = mf.simulate(sizes, device).time
            row = {
                "IF": base / cp.simulate(sizes, device).time,
                "AIF": base / cp.simulate(sizes, device, thresholds=th).time,
                "F-Out": base / finpar_out_time(sizes, device),
                "F-All": base / finpar_all_time(sizes, device),
            }
            print(
                f"  {name:>8} {base*1e3:>9.2f} | "
                + " ".join(f"{v:>5.2f}" for v in row.values())
            )
        sig = path_signature(
            cp.body, locvolcalib_sizes("large"), th, device=device
        )
        taken = [t for t, b in sig if b]
        print(f"  large-dataset path: {len(taken)} guards taken of {len(sig)}\n")


if __name__ == "__main__":
    main()
