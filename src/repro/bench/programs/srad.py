"""SRAD — Rodinia's speckle-reducing anisotropic diffusion.

For each image in the batch (the paper's added outer ``map``), a fixed
number of diffusion iterations: compute the image mean (a ``redomap`` over
all pixels), then update every pixel from its 4-neighbourhood (a stencil
``map`` nest).  Table 1: D1 = 1 × 502 × 458 (one large image),
D2 = 1024 × 16 × 16 (many tiny images).
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
    min_,
    op2,
    redomap_,
    size_e,
    to_f32,
    v,
)
from repro.ir.types import F32, I64, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = ["srad_program", "srad_sizes", "srad_inputs", "srad_reference", "NUM_ITER"]

NUM_ITER = 2

DATASETS = {
    "D1": dict(numB=1, H=502, W=458),
    "D2": dict(numB=1024, H=16, W=16),
}


def srad_sizes(name: str) -> dict[str, int]:
    return dict(DATASETS[name], numIter=NUM_ITER)


def srad_program() -> Program:
    numB, H, W = SizeVar("numB"), SizeVar("H"), SizeVar("W")
    imgs = v("imgs")  # [numB][H][W]

    def iteration(img):
        total = redomap_(
            op2("+"),
            lambda row: redomap_(op2("+"), lambda x: x, f32(0.0), row),
            f32(0.0),
            img,
        )
        return let_(
            total,
            lambda s: let_(
                s / (to_f32(size_e("H")) * to_f32(size_e("W"))),
                lambda mean: map_(
                    lambda i: map_(
                        lambda j: _update(img, i, j, mean),
                        iota(size_e("W")),
                    ),
                    iota(size_e("H")),
                ),
            ),
        )

    body = map_(
        lambda img: loop_([img], v("numIter"), lambda t, cur: iteration(cur)),
        imgs,
    )
    return Program(
        "srad",
        [("imgs", array_of(F32, numB, H, W)), ("numIter", I64)],
        body,
    )


def _update(img, i, j, mean):
    c = img[i, j]
    up = img[max_(i - 1, 0), j]
    dn = img[min_(i + 1, size_e("H") - 1), j]
    lf = img[i, max_(j - 1, 0)]
    rt = img[i, min_(j + 1, size_e("W") - 1)]
    lap = up + dn + lf + rt - c * 4.0
    return c + (lap * 0.1) / (mean + 1.0)


def srad_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "imgs": rng.uniform(0, 1, (sizes["numB"], sizes["H"], sizes["W"])).astype(
            np.float32
        ),
        "numIter": sizes["numIter"],
    }


def srad_reference(inputs: dict) -> np.ndarray:
    import numpy as np

    imgs = inputs["imgs"].copy()
    numIter = int(inputs["numIter"])
    numB, H, W = imgs.shape
    for b in range(numB):
        img = imgs[b]
        for _ in range(numIter):
            s = np.float32(0.0)
            for i in range(H):
                row = np.float32(0.0)
                for j in range(W):
                    row = np.float32(row + img[i, j])
                s = np.float32(s + row)
            mean = np.float32(s / np.float32(np.float32(H) * np.float32(W)))
            new = np.empty_like(img)
            for i in range(H):
                for j in range(W):
                    c = img[i, j]
                    up = img[max(i - 1, 0), j]
                    dn = img[min(i + 1, H - 1), j]
                    lf = img[i, max(j - 1, 0)]
                    rt = img[i, min(j + 1, W - 1)]
                    lap = np.float32(
                        np.float32(np.float32(np.float32(up + dn) + lf) + rt)
                        - np.float32(c * np.float32(4.0))
                    )
                    new[i, j] = np.float32(
                        c
                        + np.float32(np.float32(lap * np.float32(0.1)) / np.float32(mean + np.float32(1.0)))
                    )
            img = new
        imgs[b] = img
    return imgs
