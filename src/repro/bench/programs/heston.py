"""Heston — calibration of the Hybrid SLV / Hull-White model (LexiFi).

Paper §5.3: "Heston contains three layers of parallelism, an outer map,
which contains a redomap, which contains a reduce."  The outer map ranges
over candidate parameter vectors, the redomap sums squared pricing errors
over the market quotes, and the innermost reduce is the numerical
integration of the characteristic function over quadrature nodes.

Table 1: D1 = 1062 quotes, D2 = 10000 quotes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    exp_,
    f32,
    map_,
    op2,
    redomap_,
    reduce_,
    v,
)
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "heston_program",
    "heston_sizes",
    "heston_inputs",
    "heston_reference",
    "NUM_CAND",
    "NUM_INT",
]

NUM_CAND = 64  # candidate parameter vectors per calibration step
NUM_INT = 128  # quadrature nodes

DATASETS = {"D1": dict(numQuotes=1062), "D2": dict(numQuotes=10000)}


def heston_sizes(name: str) -> dict[str, int]:
    return dict(
        numQuotes=DATASETS[name]["numQuotes"],
        numCand=NUM_CAND,
        numInt=NUM_INT,
    )


def heston_program() -> Program:
    numCand, numQuotes, numInt = (
        SizeVar("numCand"),
        SizeVar("numQuotes"),
        SizeVar("numInt"),
    )
    nodes = v("nodes")  # [numInt][2]: quadrature (node, weight)
    quotes = v("quotes")  # [numQuotes][2]: (strike, market price)

    def price(cand_row, strike):
        # pseudo characteristic-function integration
        return reduce_(
            op2("+"),
            f32(0.0),
            map_(
                lambda node_row: node_row[1]
                * exp_(-(node_row[0] * cand_row[0] + strike * cand_row[1]) * 0.1),
                nodes,
            ),
        )

    def quote_error(cand_row, quote_row):
        err_body = price(cand_row, quote_row[0]) - quote_row[1]
        return err_body * err_body

    body = map_(
        lambda cand_row: redomap_(
            op2("+"),
            lambda quote_row: quote_error(cand_row, quote_row),
            f32(0.0),
            quotes,
        ),
        v("cands"),
    )
    return Program(
        "heston",
        [
            ("cands", array_of(F32, numCand, 5)),
            ("quotes", array_of(F32, numQuotes, 2)),
            ("nodes", array_of(F32, numInt, 2)),
        ],
        body,
    )


def heston_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "cands": rng.uniform(0.1, 1.0, (sizes["numCand"], 5)).astype(np.float32),
        "quotes": rng.uniform(0.5, 2.0, (sizes["numQuotes"], 2)).astype(np.float32),
        "nodes": rng.uniform(0.0, 1.0, (sizes["numInt"], 2)).astype(np.float32),
    }


def heston_reference(inputs: dict) -> np.ndarray:
    import numpy as np

    cands, quotes, nodes = inputs["cands"], inputs["quotes"], inputs["nodes"]
    out = np.zeros(len(cands), dtype=np.float32)
    for c, cand in enumerate(cands):
        acc = np.float32(0.0)
        for strike, market in quotes:
            p = np.float32(0.0)
            for node, w in nodes:
                term = np.float32(
                    w
                    * np.float32(
                        np.exp(
                            np.float32(
                                -np.float32(
                                    node * cand[0] + strike * cand[1]
                                )
                                * np.float32(0.1)
                            )
                        )
                    )
                )
                p = np.float32(p + term)
            err = np.float32(p - market)
            acc = np.float32(acc + err * err)
        out[c] = acc
    return out
