"""LocVolCalib — stochastic volatility calibration (paper §5.2, Figs. 6/7).

Structure (Fig. 6a): an outer ``map`` of degree ``numS`` containing a
sequential ``loop`` of ``numT`` iterations whose body maps ``tridag`` over
``xss : [numX][numY]`` and ``yss : [numY][numX]``.  ``tridag`` is a
composition of three ``scan``s (Fig. 6b) — here linear-recurrence scans
``x' = a·k + b`` representable with the associative operator
``(a1,b1) ⊙ (a2,b2) = (a1·a2, b2·a2 + b1)`` degenerate-cased to a scalar
first-order recurrence per scan, which is what the Thomas-algorithm
substitution phases correspond to.

The paper's datasets (``small``/``medium``/``large``) are reproduced in
:data:`DATASETS`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ir.builder import (
    Program,
    f32,
    lam,
    let_,
    loop_,
    map_,
    scan_,
    v,
)
from repro.ir.types import F32, I64, array_of
from repro.sizes import SizeVar

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "locvolcalib_program",
    "DATASETS",
    "locvolcalib_sizes",
    "locvolcalib_inputs",
    "locvolcalib_reference",
]

#: paper §5.2 datasets
DATASETS = {
    "small": dict(numS=16, numT=256, numX=32, numY=256),
    "medium": dict(numS=128, numT=64, numX=256, numY=32),
    "large": dict(numS=256, numT=64, numX=256, numY=256),
}


def locvolcalib_sizes(name: str) -> dict[str, int]:
    return dict(DATASETS[name])


def _tridag(xs):
    """Three chained scans (Fig. 6b): forward elimination, modification,
    and backward substitution phases of a scan-based tridiagonal solve."""
    op1 = lam(lambda a, b: a * 0.5 + b)
    op2_ = lam(lambda a, b: a * 0.25 + b * 1.5)
    op3 = lam(lambda a, b: a * 0.125 + b)
    return let_(
        scan_(op1, f32(0.0), xs),
        lambda bs: let_(
            scan_(op2_, f32(0.0), bs),
            lambda cs: scan_(op3, f32(0.0), cs),
        ),
    )


def locvolcalib_program() -> Program:
    numS, numX, numY = SizeVar("numS"), SizeVar("numX"), SizeVar("numY")
    body = map_(
        lambda xss0, yss0: loop_(
            [xss0, yss0],
            v("numT"),
            lambda t, xss, yss: (
                map_(lambda xs: _tridag(xs), xss),
                map_(lambda ys: _tridag(ys), yss),
            ),
        ),
        v("xsss0"),
        v("ysss0"),
    )
    return Program(
        "locvolcalib",
        [
            ("xsss0", array_of(F32, numS, numX, numY)),
            ("ysss0", array_of(F32, numS, numY, numX)),
            ("numT", I64),
        ],
        body,
    )


def locvolcalib_inputs(sizes: dict[str, int], seed: int = 0) -> dict:
    import numpy as np

    rng = np.random.default_rng(seed)
    return {
        "xsss0": rng.standard_normal(
            (sizes["numS"], sizes["numX"], sizes["numY"])
        ).astype(np.float32),
        "ysss0": rng.standard_normal(
            (sizes["numS"], sizes["numY"], sizes["numX"])
        ).astype(np.float32),
        "numT": sizes["numT"],
    }


def _np_scan(a_coef: float, b_coef: float, xs: np.ndarray) -> np.ndarray:
    """Inclusive scan of acc' = acc*a + x*b along the last axis."""
    import numpy as np

    out = np.empty_like(xs)
    acc = np.zeros(xs.shape[:-1], dtype=xs.dtype)
    for j in range(xs.shape[-1]):
        acc = (acc * np.float32(a_coef) + xs[..., j] * np.float32(b_coef)).astype(
            xs.dtype
        )
        out[..., j] = acc
    return out


def _np_tridag(xs: np.ndarray) -> np.ndarray:
    bs = _np_scan(0.5, 1.0, xs)
    cs = _np_scan(0.25, 1.5, bs)
    return _np_scan(0.125, 1.0, cs)


def locvolcalib_reference(inputs: dict) -> tuple[np.ndarray, np.ndarray]:
    xsss = inputs["xsss0"].copy()
    ysss = inputs["ysss0"].copy()
    for _ in range(int(inputs["numT"])):
        xsss = _np_tridag(xsss)
        ysss = _np_tridag(ysss)
    return xsss, ysss
