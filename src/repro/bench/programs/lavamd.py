"""LavaMD — Rodinia's particle-potential kernel.

Particles live in boxes; for every particle of every box, forces are
accumulated over the particles of the 27 neighbouring boxes: an outer
``map`` over boxes, a ``map`` over the particles of the box, a sequential
``loop`` over the neighbour list, and an inner ``redomap`` over the
neighbour box's particles.  Table 1: D1 = 10³ boxes (ample outer
parallelism — tiling the inner redomap in local memory wins), D2 = 3³ boxes
(AIF additionally parallelises the inner redomap at workgroup level).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    exp_,
    f32,
    iota,
    loop_,
    map_,
    op2,
    redomap_,
    size_e,
    v,
)
from repro.ir.types import F32, I64, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "lavamd_program",
    "lavamd_sizes",
    "lavamd_inputs",
    "lavamd_reference",
    "PER_BOX",
    "NUM_NBR",
]

PER_BOX = 50
NUM_NBR = 27

DATASETS = {"D1": dict(numBoxes=10**3), "D2": dict(numBoxes=3**3)}


def lavamd_sizes(name: str) -> dict[str, int]:
    return dict(
        numBoxes=DATASETS[name]["numBoxes"], perBox=PER_BOX, numNbr=NUM_NBR
    )


def lavamd_program() -> Program:
    numBoxes, perBox, numNbr = (
        SizeVar("numBoxes"),
        SizeVar("perBox"),
        SizeVar("numNbr"),
    )
    pos = v("pos")  # [numBoxes][perBox][4] (x, y, z, charge)
    nbrs = v("nbrs")  # [numBoxes][numNbr] neighbour box ids (i64)

    def pair_potential(p_row, q_row):
        dx = p_row[0] - q_row[0]
        dy = p_row[1] - q_row[1]
        dz = p_row[2] - q_row[2]
        r2 = dx * dx + dy * dy + dz * dz
        return q_row[3] * exp_(-r2)

    def particle(b, p_row):
        return loop_(
            [f32(0.0)],
            size_e("numNbr"),
            lambda k, acc: acc
            + redomap_(
                op2("+"),
                lambda q_row: pair_potential(p_row, q_row),
                f32(0.0),
                pos[nbrs[b, k]],
            ),
        )

    body = map_(
        lambda b: map_(lambda p_row: particle(b, p_row), pos[b]),
        iota(v("numBoxes")),
    )
    return Program(
        "lavamd",
        [
            ("pos", array_of(F32, numBoxes, perBox, 4)),
            ("nbrs", array_of(I64, numBoxes, numNbr)),
            ("numBoxes", I64),
        ],
        body,
    )


def lavamd_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    nb = sizes["numBoxes"]
    return {
        "pos": rng.uniform(0, 1, (nb, sizes["perBox"], 4)).astype(np.float32),
        "nbrs": rng.integers(0, nb, (nb, sizes["numNbr"])).astype(np.int64),
        "numBoxes": nb,
    }


def lavamd_reference(inputs: dict) -> np.ndarray:
    import numpy as np

    pos = inputs["pos"]
    nbrs = inputs["nbrs"]
    nb, per, _ = pos.shape
    out = np.zeros((nb, per), dtype=np.float32)
    for b in range(nb):
        for p in range(per):
            acc = np.float32(0.0)
            for k in range(nbrs.shape[1]):
                q_box = pos[nbrs[b, k]]
                inner = np.float32(0.0)
                for q in range(per):
                    dx = np.float32(pos[b, p, 0] - q_box[q, 0])
                    dy = np.float32(pos[b, p, 1] - q_box[q, 1])
                    dz = np.float32(pos[b, p, 2] - q_box[q, 2])
                    r2 = np.float32(np.float32(dx * dx + dy * dy) + dz * dz)
                    inner = np.float32(
                        inner + np.float32(q_box[q, 3] * np.float32(np.exp(np.float32(-r2))))
                    )
                acc = np.float32(acc + inner)
            out[b, p] = acc
    return out
