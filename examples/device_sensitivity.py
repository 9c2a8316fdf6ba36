#!/usr/bin/env python3
"""Hardware sensitivity of version selection (paper §5.1/§5.3).

"We perform auto-tuning separately on the two systems.  As we shall see,
parameters that are optimal for one, are not necessarily optimal for the
other."  This example tunes Heston and LavaMD per device and shows where
the selected execution paths diverge — e.g. Heston's innermost reduce is
sequentialised on the K40 but parallelised on the Vega 64.

Run:  python examples/device_sensitivity.py
"""

from repro.bench.programs.heston import heston_program, heston_sizes
from repro.bench.programs.lavamd import lavamd_program, lavamd_sizes
from repro.compiler import compile_program
from repro.gpu import K40, VEGA64
from repro.tuning import exhaustive_tune, path_signature


def investigate(name, prog, datasets):
    cp = compile_program(prog, "incremental")
    print(f"== {name} ({len(cp.registry)} thresholds) ==")
    paths = {}
    for device in (K40, VEGA64):
        th = exhaustive_tune(cp, datasets, device).best_thresholds
        for sizes in datasets:
            sig = path_signature(cp.body, sizes, th, device=device)
            paths[(device.name, tuple(sorted(sizes.items())))] = sig
        times = [
            cp.simulate(s, device, thresholds=th).time for s in datasets
        ]
        untuned = [cp.simulate(s, device).time for s in datasets]
        print(
            f"  {device.name:>7}: tuned {sum(times)*1e3:9.3f} ms "
            f"(untuned {sum(untuned)*1e3:9.3f} ms)  thresholds={th}"
        )
    k40_paths = [v for (d, _), v in paths.items() if d == "K40"]
    vega_paths = [v for (d, _), v in paths.items() if d == "Vega64"]
    if k40_paths != vega_paths:
        print("  -> the devices select DIFFERENT code versions\n")
    else:
        print("  -> both devices select the same versions here\n")


def main() -> None:
    investigate(
        "Heston",
        heston_program(),
        [heston_sizes("D1"), heston_sizes("D2")],
    )
    investigate(
        "LavaMD",
        lavamd_program(),
        [lavamd_sizes("D1"), lavamd_sizes("D2")],
    )


if __name__ == "__main__":
    main()
