"""Memoization soundness sweep: every bench program, both devices.

The evaluation engine's contract (docs/performance.md) is that caching is
*transparent*: a memoized `simulate` must be bit-identical to a cold,
cache-disabled run — same total time (float addition is non-associative,
so replay order matters), same kernel launch sequence.  This sweep checks
the contract on all Table 1 benchmarks at their paper datasets, plus the
two case-study programs, on both simulated devices.
"""

import pytest

from repro import perf
from repro.bench import BULK_BENCHMARKS
from repro.bench.datasets import table1_sizes
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.compiler import compile_program
from repro.gpu import K40, VEGA64

DEVICES = {"K40": K40, "VEGA64": VEGA64}


def _cases():
    for name, spec in BULK_BENCHMARKS.items():
        datasets = [table1_sizes(name, d) for d in ("D1", "D2")]
        yield name, spec.program, dict(spec.mf_kwargs), datasets
    yield "matmul", matmul_program, {}, [matmul_sizes(e, 20) for e in (2, 6, 10)]
    yield (
        "locvolcalib",
        locvolcalib_program,
        {},
        [locvolcalib_sizes(n) for n in ("small", "medium", "large")],
    )


def _kernel_seq(report):
    return [
        (k.kind, k.level, k.threads, k.groups, k.group_size, k.time)
        for k in report.kernels
    ]


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("devname", list(DEVICES))
def test_memoized_simulate_bit_identical(case, devname, configure):
    name, program, kwargs, datasets = case
    device = DEVICES[devname]
    cp = compile_program(program(), "incremental", **kwargs)
    cfg_default = {t: 2**15 for t in cp.thresholds()}
    cfg_intra = {t: 1 for t in cp.thresholds()}
    for sizes in datasets:
        for cfg in (cfg_default, cfg_intra):
            # cold, with every cache layer disabled
            configure(cache=False)
            cold = cp.simulate(sizes, device, thresholds=cfg)
            configure(cache=True)
            # cache-enabled: first (populating) and second (replaying) run
            perf.clear_caches()
            cp._sim_memo.clear()
            warm1 = cp.simulate(sizes, device, thresholds=cfg)
            warm2 = cp.simulate(sizes, device, thresholds=cfg)
            for warm in (warm1, warm2):
                assert warm.time == cold.time, (name, devname, sizes)
                assert warm.host_time == cold.host_time
                assert warm.alloc_bytes == cold.alloc_bytes
                assert warm.transfer_bytes == cold.transfer_bytes
                assert _kernel_seq(warm) == _kernel_seq(cold)
