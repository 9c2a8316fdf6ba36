"""Backprop — Rodinia's neural-network training kernel.

One input layer of ``numIn`` units (Table 1: 2^14 / 2^20) feeding
``numHidden = 16`` hidden units, as in Rodinia.  The forward pass computes
each hidden unit as a *separate* ``map`` (products) followed by a
``reduce`` (sum) — the producer/consumer pair the paper's fusion experiment
targets: with fusion they become a ``redomap`` that incremental flattening
multi-versions (rule G9), while for moderate flattening the paper
"explicitly prevented" the fusion (``do_fuse=False`` in our pipeline)
because MF would sequentialise the fused redomap.  The weight-adjustment
phase is the ``numHidden × numIn`` outer-product map nest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    exp_,
    f32,
    let_,
    map_,
    op2,
    reduce_,
    v,
)
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "backprop_program",
    "backprop_sizes",
    "backprop_inputs",
    "backprop_reference",
    "NUM_HIDDEN",
]

NUM_HIDDEN = 16

DATASETS = {"D1": dict(numIn=2**14), "D2": dict(numIn=2**20)}


def backprop_sizes(name: str) -> dict[str, int]:
    return dict(numIn=DATASETS[name]["numIn"], numHidden=NUM_HIDDEN)


def backprop_program() -> Program:
    numIn, numHidden = SizeVar("numIn"), SizeVar("numHidden")
    inputs = v("inputs")  # [numIn]
    weights = v("weights")  # [numHidden][numIn]
    target = v("target")  # [numHidden] teaching signal

    def hidden_unit(w_row):
        # map + reduce, deliberately unfused at the source level
        return let_(
            map_(lambda w_, x_: w_ * x_, w_row, inputs),
            lambda prods: let_(
                reduce_(op2("+"), f32(0.0), prods),
                lambda s: f32(1.0) / (exp_(-s) + 1.0),  # sigmoid
            ),
        )

    body = let_(
        map_(lambda w_row: hidden_unit(w_row), weights),
        lambda hidden: let_(
            # output deltas per hidden unit
            map_(
                lambda h, t: (t - h) * h * (f32(1.0) - h),
                hidden,
                target,
            ),
            lambda deltas: map_(
                lambda w_row, d: map_(lambda w_, x_: w_ + d * x_ * 0.3, w_row, inputs),
                weights,
                deltas,
            ),
        ),
    )
    return Program(
        "backprop",
        [
            ("inputs", array_of(F32, numIn)),
            ("weights", array_of(F32, numHidden, numIn)),
            ("target", array_of(F32, numHidden)),
        ],
        body,
    )


def backprop_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "inputs": rng.standard_normal(sizes["numIn"]).astype(np.float32),
        "weights": (
            rng.standard_normal((sizes["numHidden"], sizes["numIn"])) * 0.01
        ).astype(np.float32),
        "target": rng.uniform(0, 1, sizes["numHidden"]).astype(np.float32),
    }


def backprop_reference(inputs_: dict) -> np.ndarray:
    import numpy as np

    x = inputs_["inputs"]
    w = inputs_["weights"]
    t = inputs_["target"]
    hidden = np.empty(len(w), dtype=np.float32)
    for j in range(len(w)):
        s = np.float32(0.0)
        for i in range(len(x)):
            s = np.float32(s + np.float32(w[j, i] * x[i]))
        hidden[j] = np.float32(
            np.float32(1.0) / np.float32(np.float32(np.exp(np.float32(-s))) + np.float32(1.0))
        )
    deltas = ((t - hidden) * hidden * (np.float32(1.0) - hidden)).astype(np.float32)
    out = np.empty_like(w)
    for j in range(len(w)):
        out[j] = (w[j] + deltas[j] * x * np.float32(0.3)).astype(np.float32)
    return out
