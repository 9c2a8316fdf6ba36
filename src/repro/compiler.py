"""The compilation pipeline: normalise → fuse → flatten → simplify → validate.

``compile_program`` is the main user entry point; the result bundles the
flattened body with its threshold registry and offers both value execution
(:meth:`CompiledProgram.run`, via the reference interpreter) and cost
simulation (:meth:`CompiledProgram.simulate`, via the GPU model).

Importing this module loads the passes and the validator only.  ``run``
imports the interpreter and executors, and ``simulate`` the GPU model, on
first use: a CLI request that runs a program never loads the simulator, and
one that tunes never loads NumPy (``docs/performance.md``, "Start-up").  The
passes stay module globals (``normalize``, ``ilp_fuse``, ``fuse``,
``simplify``, ``validate``, ``Flattener``), looked up on every compile, so a
profiler can wrap them by attribute.

With ``validate`` on in :mod:`repro.config` (``REPRO_VALIDATE=1``, ``repro
check``, and always under the test suite) the IR well-formedness validator
(:mod:`repro.check.validate`) runs after every pass, so a pass that breaks
scoping, typing, level nesting, or version-guard placement fails at the
pass that introduced the violation rather than at some downstream consumer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro import config, perf
from repro.obs import trace as obs
from repro.check.validate import validate
from repro.flatten import Flattener, ThresholdRegistry, branching_trees
from repro.ir import source as S
from repro.ir.builder import Program
from repro.ir.traverse import count_nodes
from repro.ir.types import ArrayType
from repro.passes import fuse, ilp_fuse, normalize, simplify

if TYPE_CHECKING:
    from repro.gpu.device import DeviceSpec
    from repro.gpu.report import CostReport

__all__ = [
    "CompiledProgram",
    "compile_program",
    "compile_program_cached",
    "FUSION_MODES",
]

#: fusion pass selection: ILP-based global fusion (default), the greedy
#: local-rule pass (the ILP's seed and reference; users select from
#: :data:`repro.config.FUSIONS`), or no fusion at all
FUSION_MODES = ("ilp", "greedy", "off")


def _fusion_mode(fusion: str | None, do_fuse: bool) -> str:
    """The effective fusion mode: ``do_fuse=False`` (the paper's Backprop
    moderate-flattening experiment) forces ``"off"``, then the explicit
    argument, then the config."""
    if not do_fuse:
        return "off"
    if fusion is None:
        return config.current().fusion
    if fusion not in FUSION_MODES:
        raise ValueError(
            f"unknown fusion mode {fusion!r} "
            f"(choose from {', '.join(FUSION_MODES)})"
        )
    return fusion


@dataclass
class CompiledProgram:
    """A flattened program plus the metadata the autotuner needs."""

    prog: Program
    mode: str
    body: S.Exp
    registry: ThresholdRegistry
    num_levels: int
    fusion: str = "ilp"
    compile_seconds: float = 0.0
    #: (sizes, device, thresholds, sim options) -> CostReport memo
    _sim_memo: dict = field(default_factory=dict, repr=False, compare=False)
    #: sorted size assignment -> shape class memo (online dispatch hot path)
    _shape_memo: dict = field(default_factory=dict, repr=False, compare=False)
    #: (engine, sizes, dtype signature, config) -> batched evaluator that
    #: has compiled ``body`` (:func:`repro.exec.run_batched`, LRU)
    _evaluators: dict = field(default_factory=dict, repr=False, compare=False)

    # -- execution ------------------------------------------------------------

    def run(
        self,
        inputs: Mapping[str, object],
        thresholds: Mapping[str, int] | None = None,
        engine: str | None = None,
        online=None,
        sizes: Mapping[str, int] | None = None,
    ):
        """Execute with value semantics.

        ``engine`` selects the executor: ``"scalar"`` (tree-walking
        oracle), ``"vector"`` (batched NumPy kernels), ``"codegen"``
        (generated-source kernels + compile cache) — all bit-identical —
        or ``None`` to follow the configured engine (``REPRO_EXEC``).

        ``sizes`` supplies size-variable bindings that cannot be inferred
        from the input array shapes (e.g. loop bounds like NW's
        ``numWaves``).

        The batched engines compile the body once per (engine, sizes,
        input dtypes, config) and keep the evaluator, so a repeated call
        only executes; ``thresholds`` are written into the kept evaluator,
        as the paper's versions are selected at run time.
        ``REPRO_NO_CACHE=1`` compiles on every call.

        ``online`` accepts an :class:`~repro.tuning.online.OnlineTuner`:
        the dataset's shape class selects the thresholds (the class is
        tuned on its first item).  Online choices are threshold
        assignments of the same branching tree, so results stay
        bit-identical to passing them explicitly.  Mutually exclusive
        with ``thresholds``.
        """
        if online is not None:
            if thresholds is not None:
                raise ValueError(
                    "pass either explicit thresholds or online=, not both"
                )
            from repro.interp.evaluator import program_env

            _env, all_sizes = program_env(self.prog, inputs, sizes)
            thresholds = online.dispatch(all_sizes).thresholds or None
        from repro.interp.evaluator import run_program

        return run_program(
            self.prog, inputs, body=self.body, thresholds=thresholds,
            sizes=sizes, engine=engine, memo=self._evaluators,
        )

    def shape_class(self, sizes: Mapping[str, int]) -> tuple[int, ...]:
        """The dataset's shape class (see :mod:`repro.tuning.shapes`).

        Memoized on the size assignment so steady-state online dispatch
        re-derives no threshold ``Par`` evaluations: a repeated shape is
        one dict lookup (``exec.dispatch.memo_hits`` proves it).
        Disabled by ``REPRO_NO_CACHE=1`` like every cache.
        """
        perf.inc("exec.dispatch")
        key = tuple(sorted(sizes.items()))
        if perf.caching_enabled():
            hit = self._shape_memo.get(key)
            if hit is not None:
                perf.inc("exec.dispatch.memo_hits")
                return hit
            perf.inc("exec.dispatch.memo_misses")
        from repro.tuning.shapes import shape_class

        cls = shape_class(self, dict(key))
        if perf.caching_enabled():
            self._shape_memo[key] = cls
        return cls

    def simulate(
        self,
        sizes: Mapping[str, int],
        device: DeviceSpec,
        thresholds: Mapping[str, int] | None = None,
        **sim_kwargs,
    ) -> CostReport:
        """Estimate the run time on ``device`` for a dataset of ``sizes``.

        Scalar program parameters (e.g. iteration counts) are taken from
        ``sizes`` by name.  Results are memoized per compiled program on
        ``(sizes, device, thresholds, simulation options)``; pass
        ``cache=False`` (or set ``REPRO_NO_CACHE=1``) to force a fresh
        walk.  Memoized calls return an independent :class:`CostReport`
        copy, bit-identical to the first computation.
        """
        cache = sim_kwargs.pop("cache", None)
        use_memo = perf.caching_enabled() if cache is None else bool(cache)
        if use_memo:
            # fault injection must see every simulated launch: a memo hit
            # would skip the simulator (and its sim.kernel fault site)
            # entirely, so an active plan bypasses the memo — same rule as
            # the kernel-cost cache, which is consulted only after the
            # injection check
            from repro import faults

            use_memo = not faults.enabled()
        key = None
        if use_memo:
            key = (
                tuple(sorted(sizes.items())),
                device,
                tuple(sorted(thresholds.items())) if thresholds else None,
                tuple(sorted(sim_kwargs.items())),
            )
            hit = self._sim_memo.get(key)
            if hit is not None:
                perf.inc("sim_memo.hits")
                return hit.copy()
            perf.inc("sim_memo.misses")
        from repro.gpu.cost import AVal, Simulator, aval_from_type

        params: dict[str, AVal] = {}
        for name, t in self.prog.params:
            value = None if isinstance(t, ArrayType) else sizes.get(name)
            params[name] = aval_from_type(t, sizes, value)
        with perf.timer("simulate"):
            sim = Simulator(device, thresholds=thresholds, cache=cache, **sim_kwargs)
            report = sim.simulate(self.body, params, sizes)
        if key is not None:
            self._sim_memo[key] = report.copy()
        return report

    # -- metadata ---------------------------------------------------------------

    def thresholds(self) -> list[str]:
        return self.registry.names()

    def branching_trees(self):
        return branching_trees(self.body)

    def code_size(self) -> int:
        """AST node count: the paper's binary-size proxy (§5.1)."""
        return count_nodes(self.body)

    def check(self) -> None:
        """Run the full IR validator on the compiled body."""
        validate(
            self.body,
            self.prog.type_env(),
            stage=f"compiled[{self.mode}]",
            max_level=self.num_levels - 1,
            registry=self.registry,
        )


def compile_program(
    prog: Program,
    mode: str = "incremental",
    num_levels: int = 2,
    do_fuse: bool = True,
    do_simplify: bool = True,
    fusion: str | None = None,
) -> CompiledProgram:
    """Compile a source program with the selected flattening mode.

    ``fusion`` selects the fusion pass (see :data:`FUSION_MODES`;
    ``None`` follows the configured mode, ``"ilp"`` by default).
    ``do_fuse=False`` reproduces the paper's Backprop experiment, where
    map/reduce fusion was explicitly disabled for moderate flattening.
    """
    fusion = _fusion_mode(fusion, do_fuse)
    t0 = time.perf_counter()
    env = prog.type_env()
    checking = config.current().validate
    tracing = obs.enabled()

    def _checked(body, stage, **kwargs):
        if checking:
            with obs.span(f"validate.{stage}", cat="compiler"):
                validate(body, env, stage=stage, expect=src_types, **kwargs)
        return body

    def _pass(stage, fn, body, stage_name=None, **kwargs):
        """Run one pass under a span recording its IR node-count delta."""
        with obs.span(f"pass.{stage}", cat="compiler") as sp:
            if tracing:
                sp["nodes_before"] = count_nodes(body)
            out = fn(body)
            if tracing:
                sp["nodes_after"] = count_nodes(out)
        return _checked(out, stage_name or stage, **kwargs)

    with obs.span(
        "compile", cat="compiler", program=prog.name, mode=mode, fusion=fusion
    ):
        src_types = validate(prog.body, env, stage="source") if checking else None
        body = _pass("normalize", normalize, prog.body)
        if fusion != "off":
            body = _pass("fuse", ilp_fuse if fusion == "ilp" else fuse, body)
        body = _pass("simplify", simplify, body)
        fl = Flattener(mode=mode, num_levels=num_levels)
        flat = _pass(
            "flatten",
            lambda b: fl.flatten(b, env),
            body,
            stage_name=f"flatten[{mode}]",
            max_level=num_levels - 1,
            registry=fl.registry,
        )
        if do_simplify:
            flat = _pass(
                "flatten+simplify",
                simplify,
                flat,
                stage_name=f"flatten[{mode}]+simplify",
                max_level=num_levels - 1,
                registry=fl.registry,
            )
    elapsed = time.perf_counter() - t0
    out = CompiledProgram(
        prog=prog,
        mode=mode,
        body=flat,
        registry=fl.registry,
        num_levels=num_levels,
        fusion=fusion,
        compile_seconds=elapsed,
    )
    out.check()
    return out


#: (program name, mode, pass options) -> CompiledProgram
_COMPILE_CACHE: dict[tuple, CompiledProgram] = perf.register_cache("compile", {})


def compile_program_cached(
    prog: Program,
    mode: str = "incremental",
    num_levels: int = 2,
    do_fuse: bool = True,
    do_simplify: bool = True,
    fusion: str | None = None,
) -> CompiledProgram:
    """:func:`compile_program`, memoized on (program name, mode, options).

    Intended for the bench/figure pipelines, where the same named benchmark
    program is rebuilt and recompiled for every figure: the cache key is
    the program's *name*, so callers that construct differing programs
    under one name must use :func:`compile_program` directly.  Returns the
    shared instance (whose ``simulate`` memo then also spans pipelines).
    Disabled by ``REPRO_NO_CACHE=1``.
    """
    if not perf.caching_enabled():
        return compile_program(
            prog, mode, num_levels=num_levels, do_fuse=do_fuse,
            do_simplify=do_simplify, fusion=fusion,
        )
    # resolve the configured fusion default *before* keying, so a cached
    # entry is never served across a fusion-mode change
    resolved_fusion = _fusion_mode(fusion, do_fuse)
    key = (prog.name, mode, num_levels, resolved_fusion, do_simplify)
    hit = _COMPILE_CACHE.get(key)
    if hit is not None:
        perf.inc("compile_cache.hits")
        return hit
    perf.inc("compile_cache.misses")
    with perf.timer("compile"):
        out = compile_program(
            prog, mode, num_levels=num_levels, do_fuse=do_fuse,
            do_simplify=do_simplify, fusion=resolved_fusion,
        )
    _COMPILE_CACHE[key] = out
    return out
