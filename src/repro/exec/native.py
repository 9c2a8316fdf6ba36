"""Optional native (C) lowering for straight-line codegen kernels.

When the codegen engine emits a kernel that is a pure elementwise chain —
batched ``f64`` loads, numeric constants, and IEEE-exact ops — the chain
can be compiled to a tiny shared object and driven through ``ctypes``,
removing NumPy's per-op dispatch and temporaries.  This tier is

* **capability-gated**: it needs a C toolchain (``cc`` on PATH) and is
  only tried when ``REPRO_NATIVE=1`` is set — the Python lowering is the
  default and the two must be bit-identical, so nothing else changes;
* **bit-exact by construction**: the op whitelist is limited to IEEE-754
  double operations NumPy also performs exactly (``+ - * /``, ``neg``,
  ``fabs``, and ``min``/``max`` via the same compare-select the vector
  table uses), compiled with ``-ffp-contract=off`` so the compiler cannot
  fuse multiply-adds into FMAs;
* **guarded at launch**: a kernel only takes the native path when every
  loaded array is a C-contiguous 1-D ``float64`` of the batch width —
  anything else silently runs the generated Python.

Shared objects are cached next to their compile-cache entry
(``<key>.so`` in :func:`repro.exec.compile_cache.cache_dir`), so warm
processes dlopen instead of invoking the compiler.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import subprocess
import tempfile

import numpy as np

from repro import faults, perf
from repro.exec import compile_cache

__all__ = ["enabled", "toolchain", "available", "prepare"]

#: ops lowerable to exact IEEE double C code (matching the NumPy semantics
#: of ``_VBINOPS``/``_VUNOPS`` for float64 operands)
_BINOPS_C = {
    "+": "({a} + {b})",
    "-": "({a} - {b})",
    "*": "({a} * {b})",
    "/": "({a} / {b})",  # f64 operands: _vdiv picks true division
    "min": "(({b} < {a}) ? {b} : {a})",  # np.where(np.less(b, a), b, a)
    "max": "(({b} > {a}) ? {b} : {a})",
    "&&": None,  # bool-typed: not numeric, excluded
}
_UNOPS_C = {
    "neg": "(-{a})",
    "abs": "fabs({a})",
}

_CC_TIMEOUT_S = 60.0

_toolchain_memo: str | None | bool = False  # False = not probed yet


def enabled() -> bool:
    """Native lowering is opt-in: ``REPRO_NATIVE=1``."""
    return os.environ.get("REPRO_NATIVE", "") not in ("", "0")


def toolchain() -> str | None:
    """Path of the C compiler, or ``None`` (probed once per process)."""
    global _toolchain_memo
    if _toolchain_memo is False:
        _toolchain_memo = shutil.which("cc") or shutil.which("gcc")
    return _toolchain_memo


def available() -> bool:
    return enabled() and toolchain() is not None


def eligible(info: dict | None) -> bool:
    """Can this straight-line kernel plan be lowered to C at all?

    ``info`` is the codegen emitter's native plan: ``lines`` of
    ``("load", dst, var)`` / ``("const", dst, index)`` /
    ``("bin", dst, op, a, b)`` / ``("un", dst, op, a)``, plus ``out`` (the
    single batched result name) and ``consts`` (numeric values).
    """
    if not info or info.get("out") is None:
        return False
    loads = [ln for ln in info["lines"] if ln[0] == "load"]
    if not loads:
        return False  # nothing batched to iterate over
    for ln in info["lines"]:
        kind = ln[0]
        if kind == "bin" and _BINOPS_C.get(ln[2]) is None:
            return False
        if kind == "un" and ln[2] not in _UNOPS_C:
            return False
        if kind not in ("load", "const", "bin", "un"):
            return False
    for c in info.get("consts", ()):
        try:
            f = float(c)
        except (TypeError, ValueError):
            return False
        # integer constants must survive the double round-trip exactly
        if isinstance(c, (int, np.integer)) and int(f) != int(c):
            return False
    return True


def _c_source(info: dict) -> str:
    """Render the kernel plan as a self-contained C translation unit."""
    body = []
    nload = 0
    for ln in info["lines"]:
        kind, dst = ln[0], ln[1]
        if kind == "load":
            body.append(f"        double {dst} = ins[{nload}][i];")
            nload += 1
        elif kind == "const":
            body.append(f"        double {dst} = cs[{ln[2]}];")
        elif kind == "bin":
            expr = _BINOPS_C[ln[2]].format(a=ln[3], b=ln[4])
            body.append(f"        double {dst} = {expr};")
        else:  # un
            expr = _UNOPS_C[ln[2]].format(a=ln[3])
            body.append(f"        double {dst} = {expr};")
    body.append(f"        out[i] = {info['out']};")
    lines = "\n".join(body)
    return (
        "#include <math.h>\n"
        "void repro_kernel(long long n, const double *const *ins,\n"
        "                  const double *cs, double *out) {\n"
        "    for (long long i = 0; i < n; i++) {\n"
        f"{lines}\n"
        "    }\n"
        "}\n"
    )


def _build_so(key: str, info: dict, *, force: bool = False) -> str | None:
    """Compile (or find) the shared object for ``key``; None on failure.

    ``force`` skips the reuse probe and recompiles unconditionally — the
    recovery path when a cached ``.so`` vanished (or was truncated) after
    the probe but before ``dlopen``, e.g. a concurrent process's LRU
    eviction of the entry and its siblings.
    """
    d = compile_cache.shared_dir()
    so = os.path.join(d, key + ".so")
    if not force and os.path.exists(so):
        perf.inc("exec.codegen.native_cache_hits")
        return so
    cc = toolchain()
    if cc is None:
        return None
    csrc = os.path.join(d, key + ".c")
    fd, tmp = tempfile.mkstemp(dir=d, prefix=key + ".", suffix=".so.tmp")
    os.close(fd)
    try:
        with open(csrc, "w", encoding="utf-8") as fh:
            fh.write(_c_source(info))
        faults.check("exec.codegen.native")
        subprocess.run(
            [cc, "-O2", "-fPIC", "-shared", "-ffp-contract=off", "-o", tmp, csrc],
            check=True,
            capture_output=True,
            timeout=_CC_TIMEOUT_S,
        )
        os.replace(tmp, so)  # atomic: concurrent builders race benignly
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    perf.inc("exec.codegen.native_compile")
    return so


def prepare(key: str, info: dict | None):
    """A ``(arrays, n) -> np.ndarray`` native runner, or ``None``.

    ``arrays`` must already satisfy the launch guard (1-D C-contiguous
    ``float64`` of length ``n``) — the codegen dispatcher checks it.
    """
    if not available() or not eligible(info):
        return None
    so = _build_so(key, info)
    if so is None:
        return None
    try:
        lib = ctypes.CDLL(so)
        cfn = lib.repro_kernel
    except (OSError, AttributeError):
        # the .so was evicted (or torn) between the reuse probe and the
        # dlopen — a concurrent process's LRU eviction removes .c/.so
        # siblings with their entry.  Recompile instead of silently
        # dropping to the Python tier for the rest of the process.
        perf.inc("exec.codegen.native_rebuilds")
        so = _build_so(key, info, force=True)
        if so is None:
            return None
        try:
            lib = ctypes.CDLL(so)
            cfn = lib.repro_kernel
        except (OSError, AttributeError):
            return None
    dp = ctypes.POINTER(ctypes.c_double)
    cfn.argtypes = [ctypes.c_longlong, ctypes.POINTER(dp), dp, ctypes.c_void_p]
    cfn.restype = None
    consts = np.asarray([float(c) for c in info.get("consts", ())], dtype=np.float64)
    cs_ptr = consts.ctypes.data_as(dp)
    nloads = sum(1 for ln in info["lines"] if ln[0] == "load")

    def run(arrays: list[np.ndarray], n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float64)
        ptrs = (dp * nloads)(*[a.ctypes.data_as(dp) for a in arrays])
        cfn(n, ptrs, cs_ptr, out.ctypes.data)
        perf.inc("exec.codegen.native_launch")
        return out

    return run
