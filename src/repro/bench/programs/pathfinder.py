"""Pathfinder — Rodinia's dynamic-programming grid walk.

For each batch (the paper's added outer ``map``), a sequential ``loop``
over the rows propagates the running cost: each new cell is the minimum of
the three neighbours in the previous row plus the local weight.  Table 1:
D1 = 1 × 100 × 10^5 (one wide instance), D2 = 391 × 100 × 256 (many narrow
instances).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    iota,
    loop_,
    map_,
    max_,
    min_,
    size_e,
    v,
)
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "pathfinder_program",
    "pathfinder_sizes",
    "pathfinder_inputs",
    "pathfinder_reference",
]

DATASETS = {
    "D1": dict(numB=1, rows=100, cols=10**5),
    "D2": dict(numB=391, rows=100, cols=256),
}


def pathfinder_sizes(name: str) -> dict[str, int]:
    return dict(DATASETS[name])


def pathfinder_program() -> Program:
    numB, rows, cols = SizeVar("numB"), SizeVar("rows"), SizeVar("cols")
    walls = v("walls")  # [numB][rows][cols]

    def step(wall_rows, i, cur):
        return map_(
            lambda j: min_(
                min_(cur[max_(j - 1, 0)], cur[j]),
                cur[min_(j + 1, size_e("cols") - 1)],
            )
            + wall_rows[i + 1, j],
            iota(size_e("cols")),
        )

    body = map_(
        lambda wall_rows: loop_(
            [wall_rows[0]],
            size_e("rows") - 1,
            lambda i, cur: step(wall_rows, i, cur),
        ),
        walls,
    )
    return Program(
        "pathfinder",
        [("walls", array_of(F32, numB, rows, cols))],
        body,
    )


def pathfinder_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "walls": rng.uniform(0, 10, (sizes["numB"], sizes["rows"], sizes["cols"]))
        .astype(np.float32)
    }


def pathfinder_reference(inputs: dict) -> np.ndarray:
    import numpy as np

    walls = inputs["walls"]
    numB, rows, cols = walls.shape
    out = np.empty((numB, cols), dtype=np.float32)
    for b in range(numB):
        cur = walls[b, 0].copy()
        for i in range(rows - 1):
            nxt = np.empty(cols, dtype=np.float32)
            for j in range(cols):
                lo = min(
                    min(cur[max(j - 1, 0)], cur[j]), cur[min(j + 1, cols - 1)]
                )
                nxt[j] = np.float32(lo + walls[b, i + 1, j])
            cur = nxt
        out[b] = cur
    return out
