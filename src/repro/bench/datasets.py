"""The paper's datasets: Table 1 (bulk validation), §5.2 (LocVolCalib),
and the Fig. 2 matmul sweeps.

Each bulk benchmark gets the two datasets D1/D2 of Table 1, chosen by the
paper "to exhibit different distributions of parallelism"."""

from __future__ import annotations

import importlib
from typing import Callable

from repro.bench.programs import MODULES
from repro.bench.programs.matmul import matmul_sizes

__all__ = [
    "TABLE1",
    "table1_sizes",
    "training_datasets",
    "LOCVOLCALIB_DATASETS",
    "FIG2_SWEEP",
]

#: Table 1 — benchmark -> {D1, D2} -> human-readable description
TABLE1: dict[str, dict[str, str]] = {
    "Heston": {
        "D1": "1062 quotes",
        "D2": "10000 quotes",
    },
    "OptionPricing": {
        "D1": "1048576 MC, 5 dates",
        "D2": "500 MC, 367 dates",
    },
    "Backprop": {
        "D1": "2^14 neurons",
        "D2": "2^20 neurons",
    },
    "LavaMD": {
        "D1": "10^3 boxes, 50 per box",
        "D2": "3^3 boxes, 50 per box",
    },
    "NW": {
        "D1": "2048 edge length",
        "D2": "1024 edge length",
    },
    "NN": {
        "D1": "1 x 855280 points",
        "D2": "4096 x 128 points",
    },
    "SRAD": {
        "D1": "1 x 502 x 458 image",
        "D2": "1024 16 x 16 images",
    },
    "Pathfinder": {
        "D1": "1 x 100 x 10^5 points",
        "D2": "391 x 100 x 256 points",
    },
}

def _sizes_fn(name: str) -> Callable[..., dict[str, int]]:
    """Program ``name``'s ``<module>_sizes``, importing only its module."""
    module = MODULES[name]
    return getattr(
        importlib.import_module(f"repro.bench.programs.{module}"), f"{module}_sizes"
    )


def table1_sizes(benchmark: str, dataset: str) -> dict[str, int]:
    """Concrete size assignment for a Table 1 benchmark/dataset."""
    if benchmark not in TABLE1:
        raise KeyError(benchmark)
    return _sizes_fn(benchmark)(dataset)


def training_datasets(name: str) -> list[dict[str, int]]:
    """Built-in training datasets for any benchmark (case-insensitive).

    Table 1 benchmarks get their D1/D2 pair, matmul a small Fig. 2 sweep,
    LocVolCalib the small+medium §5.2 datasets.  Raises :class:`ValueError`
    for an unknown benchmark — used by ``repro profile``/``repro tune`` and
    the chaos differential (:mod:`repro.check.chaos`).
    """
    low = name.lower()
    for key in TABLE1:
        if key.lower() == low:
            return [table1_sizes(key, d) for d in TABLE1[key]]
    if low == "matmul":
        return [matmul_sizes(e, 20) for e in (2, 6, 10)]
    if low == "locvolcalib":
        return [_sizes_fn("LocVolCalib")(n) for n in ("small", "medium")]
    raise ValueError(
        f"no built-in datasets for {name!r}: pass --dataset n=...,m=..."
    )


#: §5.2 LocVolCalib datasets
LOCVOLCALIB_DATASETS = ("small", "medium", "large")

#: Fig. 2 — (exponent e, workload exponent k); n = 2^e, m = 2^(k-2e)
FIG2_SWEEP = {
    20: [(e, matmul_sizes(e, 20)) for e in range(11)],
    25: [(e, matmul_sizes(e, 25)) for e in range(11)],
}
