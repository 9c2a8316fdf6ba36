"""OptionPricing — Sobol-driven Monte-Carlo option pricing (FinPar [2, 40]).

Parallel structure per the paper: several layers of nested parallelism —
an outer ``map`` over Monte-Carlo iterations, an inner ``map`` over the
``numDim = numDates·numUnd`` Sobol dimensions (each a ``redomap`` over the
30 direction-vector bits), a sequential loop over dates with a ``redomap``
over underlyings, and a final mean ``reduce`` over paths.

Table 1: D1 = 1048576 MC iterations × 5 dates (outer parallelism suffices);
D2 = 500 MC iterations × 367 dates (inner parallelism must be exploited).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    f32,
    iota,
    let_,
    loop_,
    map_,
    max_,
    op2,
    redomap_,
    reduce_,
    size_e,
    to_f32,
    v,
)
from repro.ir.types import F32, I64, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "optionpricing_program",
    "optionpricing_sizes",
    "optionpricing_inputs",
    "optionpricing_reference",
    "NUM_BITS",
    "NUM_UND",
]

NUM_BITS = 30
NUM_UND = 3

#: Table 1 datasets
DATASETS = {
    "D1": dict(numMC=1_048_576, numDates=5),
    "D2": dict(numMC=500, numDates=367),
}


def optionpricing_sizes(name: str) -> dict[str, int]:
    d = DATASETS[name]
    return dict(
        numMC=d["numMC"],
        numDates=d["numDates"],
        numUnd=NUM_UND,
        numDim=d["numDates"] * NUM_UND,
        numBits=NUM_BITS,
    )


def optionpricing_program() -> Program:
    numMC, numDim, numBits = SizeVar("numMC"), SizeVar("numDim"), SizeVar("numBits")
    numDates = SizeVar("numDates")

    dirvs = v("dirvs")  # [numDim][numBits] f32 direction vectors

    def sobol_dim(dv_row, i):
        # quasi-random number for one dimension: combine the direction
        # vector bits selected by the iteration index (gray-code style)
        return redomap_(
            op2("+"),
            lambda b: dv_row[b] * to_f32((i + b + 1) % 2),
            f32(0.0),
            iota(size_e("numBits")),
        )

    def path_payoff(i):
        return let_(
            map_(lambda dv_row: sobol_dim(dv_row, i), dirvs),
            lambda zs: loop_(
                [f32(0.0)],
                v("numDates"),
                lambda t, acc: acc
                + max_(
                    redomap_(
                        op2("+"),
                        lambda u: zs[t * size_e("numUnd") + u] * 0.01 + 1.0,
                        f32(0.0),
                        iota(size_e("numUnd")),
                    )
                    - 3.0,
                    f32(0.0),
                ),
            ),
        )

    body = let_(
        map_(lambda i: path_payoff(i), iota(v("numMC"))),
        lambda payoffs: reduce_(op2("+"), f32(0.0), payoffs),
    )
    return Program(
        "optionpricing",
        [
            ("dirvs", array_of(F32, numDim, numBits)),
            ("numMC", I64),
            ("numDates", I64),
        ],
        body,
    )


def optionpricing_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "dirvs": rng.standard_normal(
            (sizes["numDim"], sizes["numBits"])
        ).astype(np.float32),
        "numMC": sizes["numMC"],
        "numDates": sizes["numDates"],
    }


def optionpricing_reference(inputs: dict, sizes: dict[str, int]) -> np.float32:
    import numpy as np

    dirvs = inputs["dirvs"]
    numMC = int(inputs["numMC"])
    numDates = int(inputs["numDates"])
    numUnd = sizes["numUnd"]
    numBits = dirvs.shape[1]
    total = np.float32(0.0)
    for i in range(numMC):
        bits = np.array(
            [(i + b + 1) % 2 for b in range(numBits)], dtype=np.float32
        )
        zs = np.empty(dirvs.shape[0], dtype=np.float32)
        for d in range(dirvs.shape[0]):
            acc = np.float32(0.0)
            for b in range(numBits):
                acc = np.float32(acc + dirvs[d, b] * bits[b])
            zs[d] = acc
        acc = np.float32(0.0)
        for t in range(numDates):
            s = np.float32(0.0)
            for u in range(numUnd):
                s = np.float32(s + np.float32(zs[t * numUnd + u] * np.float32(0.01) + np.float32(1.0)))
            acc = np.float32(acc + max(np.float32(s - np.float32(3.0)), np.float32(0.0)))
        total = np.float32(total + acc)
    return total
