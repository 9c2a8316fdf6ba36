"""What a request is before it reaches the compiler.

Every front door — the ``repro`` CLI, the service daemon, the differential
and chaos harnesses — turns a program name, sizes and a seed into a
program and its inputs through this module, so all of them agree on which
names are built-ins, which size assignments a program can run, which
inputs a seed draws, and which modes, devices and search techniques
exist.  A malformed request raises :class:`RequestError`: the CLI reports
it as exit 2, the daemon as ``400``.

Reading a program from a file is not here: only the CLI does that, and
the daemon never opens a path a client names; both parse the source they
get through :func:`source_program`.  Importing this module loads no
other module of the package, so ``import repro.cli`` stays cheap; the
program modules, the parser, NumPy and the device models load on first
use.
"""

from __future__ import annotations

from typing import Mapping

__all__ = [
    "DEVICES",
    "MODES",
    "TECHNIQUES",
    "RequestError",
    "builtin_name",
    "builtin_program",
    "check_sizes",
    "check_runnable",
    "device",
    "random_inputs",
    "source_program",
    "tune_datasets",
]

#: flattening modes (paper §3)
MODES = ("moderate", "incremental", "full")
#: device models a tune or an online dispatch simulates
DEVICES = ("K40", "Vega64")
#: search techniques of a tune job; ``repro tune`` adds ``exhaustive``
TECHNIQUES = ("bandit", "random", "hillclimb")


class RequestError(ValueError):
    """A request no front door can serve: an unknown program, a size
    assignment the program cannot run, ..."""


def builtin_name(name: str) -> str | None:
    """The built-in benchmark ``name`` names, case-insensitively, or None."""
    from repro.bench.programs import MODULES

    low = str(name).lower()
    return next((key for key in MODULES if key.lower() == low), None)


def builtin_program(name: str):
    """The built-in benchmark program ``name`` names (case-insensitive)."""
    from repro.bench.programs import MODULES, program_constructor

    key = builtin_name(name)
    if key is None:
        raise RequestError(
            f"unknown program {name!r}: not a built-in benchmark "
            f"({', '.join(MODULES)})"
        )
    return program_constructor(key)()


def source_program(text: str, origin: str):
    """The program source ``text`` defines; ``origin`` names the source in
    the error (a path, or the request field it came in)."""
    from repro.parser import LexError, ParseError, parse_program

    try:
        return parse_program(text)
    except (LexError, ParseError, ValueError) as exc:
        # ValueError: a node the grammar accepts but cannot build, e.g. a
        # map lambda whose arity does not match its arrays
        raise RequestError(f"{origin} does not parse: {exc}") from None


def check_sizes(prog, sizes: Mapping[str, int], what: str = "--size") -> None:
    """``sizes`` must bind every size variable of ``prog`` (extras are
    allowed: scalar parameters are bound the same way), none negative.
    ``what`` names the sizes in the message, as the request spelled them."""
    missing = sorted(prog.size_vars() - sizes.keys())
    if missing:
        raise RequestError(
            f"{prog.name} needs {what} value(s) for {', '.join(missing)} "
            f"(got: {', '.join(sorted(sizes)) or 'none'})"
        )
    negative = [f"{k}={v}" for k, v in sorted(sizes.items()) if v < 0]
    if negative:
        raise RequestError(f"{what} values must be non-negative: {', '.join(negative)}")


def check_runnable(prog, sizes: Mapping[str, int], what: str = "--size") -> None:
    """:func:`check_sizes`, and a run needs every array input non-empty
    (a zero loop bound is fine)."""
    check_sizes(prog, sizes, what)
    empty = prog.empty_inputs(sizes)
    if empty:
        raise RequestError(
            f"{what} gives {prog.name} an input with a zero extent: "
            f"{'; '.join(empty)}"
        )


def random_inputs(prog, sizes: Mapping[str, int], seed: int) -> dict[str, object]:
    """Deterministic random inputs for ``prog`` under a size assignment.

    Float arrays are standard-normal; integer arrays draw from 0..3 (small
    enough to stay valid for index-like inputs such as LavaMD's neighbour
    lists); scalar parameters are taken from ``sizes``, 1 when unbound.
    """
    import numpy as np

    from repro.ir.types import ArrayType

    rng = np.random.default_rng(seed)
    inputs: dict[str, object] = {}
    for name, t in prog.params:
        if isinstance(t, ArrayType):
            shape = tuple(d.eval(sizes) for d in t.shape)
            if t.elem.is_float:
                inputs[name] = rng.standard_normal(shape).astype(
                    np.float32 if t.elem.nbytes == 4 else np.float64
                )
            else:
                inputs[name] = rng.integers(0, 4, shape).astype(np.int64)
        else:
            inputs[name] = sizes.get(name, 1)
    return inputs


def device(name: str):
    """The device model called ``name`` (one of :data:`DEVICES`)."""
    from repro.gpu import K40, VEGA64

    return {"K40": K40, "Vega64": VEGA64}[name]


def tune_datasets(
    name: str, given: list[dict[str, int]]
) -> list[dict[str, int]]:
    """The datasets a tune or profile request runs on: ``given``, or
    benchmark ``name``'s built-in training datasets when it names none."""
    if given:
        return given
    from repro.bench.datasets import training_datasets

    return training_datasets(name)
