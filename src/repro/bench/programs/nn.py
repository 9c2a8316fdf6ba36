"""NN — Rodinia's nearest-neighbour search.

For each of ``numB`` query batches (the paper adds this outer ``map`` to
expose an extra layer of parallelism), compute Euclidean distances from the
query to ``numP`` points and reduce to the minimum.  Table 1:
D1 = 1 × 855280 points (all parallelism is inner — the batch dimension is
1), D2 = 4096 × 128 points.

The Rodinia reference (see ``repro.bench.references``) computes distances
on the GPU but performs the min-reduction **on the CPU**, which the paper
identifies as the cause of its poor performance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    f32,
    map_,
    op2,
    reduce_,
    sqrt_,
    v,
)
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = ["nn_program", "nn_sizes", "nn_inputs", "nn_reference"]

DATASETS = {
    "D1": dict(numB=1, numP=855280),
    "D2": dict(numB=4096, numP=128),
}


def nn_sizes(name: str) -> dict[str, int]:
    return dict(DATASETS[name])


def nn_program() -> Program:
    numB, numP = SizeVar("numB"), SizeVar("numP")
    points = v("points")  # [numB][numP][2] (lat, lng)
    queries = v("queries")  # [numB][2]

    def batch(pts, q):
        dists = map_(
            lambda pt: sqrt_(
                (pt[0] - q[0]) * (pt[0] - q[0]) + (pt[1] - q[1]) * (pt[1] - q[1])
            ),
            pts,
        )
        from repro.ir.builder import let_

        return let_(dists, lambda ds: reduce_(op2("min"), f32(1e30), ds))

    body = map_(lambda pts, q: batch(pts, q), points, queries)
    return Program(
        "nn",
        [
            ("points", array_of(F32, numB, numP, 2)),
            ("queries", array_of(F32, numB, 2)),
        ],
        body,
    )


def nn_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "points": rng.uniform(0, 90, (sizes["numB"], sizes["numP"], 2)).astype(
            np.float32
        ),
        "queries": rng.uniform(0, 90, (sizes["numB"], 2)).astype(np.float32),
    }


def nn_reference(inputs: dict) -> np.ndarray:
    import numpy as np

    points, queries = inputs["points"], inputs["queries"]
    out = np.empty(len(points), dtype=np.float32)
    for b in range(len(points)):
        q = queries[b]
        best = np.float32(1e30)
        for pt in points[b]:
            d0 = np.float32(pt[0] - q[0])
            d1 = np.float32(pt[1] - q[1])
            d = np.float32(np.sqrt(np.float32(np.float32(d0 * d0) + np.float32(d1 * d1))))
            best = min(best, d)
        out[b] = best
    return out
