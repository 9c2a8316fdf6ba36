"""Execution engines beyond the tree-walking oracle.

:class:`VectorEvaluator` compiles source/target IR to batched NumPy
closures, with masked lowerings for constructs whose lanes diverge
(bit-identical to the scalar interpreter; see ``docs/execution.md``).
:class:`CodegenEvaluator` extends it with generated-source kernels and a
cross-process on-disk compile cache (:mod:`repro.exec.compile_cache`).
Select an engine per call via ``run_program(..., engine="vector"|"codegen")``,
per process via ``REPRO_EXEC=...``, or on the CLI via ``--exec ...``.
"""

from repro.exec.codegen import CodegenEvaluator, dtype_signature
from repro.exec.vector import VectorEvaluator

__all__ = ["CodegenEvaluator", "VectorEvaluator", "dtype_signature"]
