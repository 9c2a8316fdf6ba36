"""IR implementations of the paper's benchmark programs.

Each program lives in its own module and imports NumPy only inside its
input generator and NumPy reference, so building a program's IR loads
neither NumPy nor any other program.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.ir.builder import Program

#: built-in program name -> the module under ``repro.bench.programs`` that
#: defines ``<module>_program()``, in ``repro list`` order; the eight
#: Table 1 programs follow ``repro.bench.runner.BULK_BENCHMARKS``
MODULES: dict[str, str] = {
    "matmul": "matmul",
    "LocVolCalib": "locvolcalib",
    "Heston": "heston",
    "OptionPricing": "optionpricing",
    "Backprop": "backprop",
    "LavaMD": "lavamd",
    "NW": "nw",
    "NN": "nn",
    "SRAD": "srad",
    "Pathfinder": "pathfinder",
}


def program_constructor(name: str) -> Callable[[], Program]:
    """The constructor of built-in program ``name``, importing only its
    module (:class:`KeyError` for a name not in :data:`MODULES`)."""
    module = MODULES[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), f"{module}_program")
