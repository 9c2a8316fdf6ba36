"""Measurement helpers: host-speed calibration and quantile estimates.

The benchmark hosts are shared machines.  The same code runs tens of
percent slower for seconds at a time when neighbours are busy, so raw
wall times from two runs are not comparable.  A run therefore times a
fixed calibration slice — interpreter and NumPy work that uses nothing
from the program — between requests, while the program is idle, and
reports each time at the *reference speed*: the speed at which the
slice takes ``REFERENCE_S``.  A request's time is scaled by the speed
interpolated between the calibration points around it.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: the slice's median duration on the host the benchmark was defined on
#: (2 vCPUs at 2.1 GHz, in a quiet period)
REFERENCE_S = 0.0025

#: slices timed per calibration point (their median is the point)
SLICES = 3


def calibration_slice() -> float:
    """Seconds for a fixed slice of interpreter and NumPy work."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(12000):
        acc = (acc + i * i) % 1000003
        table[i & 511] = acc
    sorted(str(v) for v in table.values())
    a = np.linspace(0.0, 1.0, 2048)
    for _ in range(120):
        a = np.sqrt(a * 1.5 + 0.25)
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration points over a run: (time, reference-speed factor)."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.factors: list[float] = []
        self.slices: list[float] = []

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        samples = [calibration_slice() for _ in range(SLICES)]
        self.slices.extend(samples)
        self.times.append((t0 + time.perf_counter()) / 2)
        self.factors.append(REFERENCE_S / statistics.median(samples))

    def factor_at(self, t: float) -> float:
        """The factor at ``t``, linear between the points around it."""
        i = bisect.bisect_left(self.times, t)
        if i == 0:
            return self.factors[0]
        if i == len(self.times):
            return self.factors[-1]
        t0, t1 = self.times[i - 1], self.times[i]
        w = (t - t0) / (t1 - t0)
        return self.factors[i - 1] * (1 - w) + self.factors[i] * w

    def scale(self, start: float, end: float) -> float:
        """``end - start`` seconds at the reference speed."""
        cuts = [start] + [t for t in self.times if start < t < end] + [end]
        return sum((b - a) * (self.factor_at(a) + self.factor_at(b)) / 2
                   for a, b in zip(cuts, cuts[1:]))

    def median_factor(self) -> float:
        return statistics.median(self.factors)


def hd_quantile(values, p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics with Beta(p(n+1), (1-p)(n+1))
    weights.  Unlike the two-point interpolation of the sample quantile,
    it does not jump when the quantile falls between two request kinds
    whose latencies differ a lot, which a fixed mix of request kinds
    makes likely.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 200001)[1:-1]
    logpdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(logpdf - logpdf.max())
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)])
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, grid, cdf)
    return float(np.diff(edges) @ x)
