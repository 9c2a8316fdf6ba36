"""Analytic GPU cost simulator.

Executes a *target-language* program abstractly — values are shapes, memory
spaces and (where derivable) scalar constants — and charges a roofline-style
cost per launched kernel:

    time = launch + max(ops/alu_rate, gbytes/mem_bw, lbytes/local_bw,
                        waves · serial_chain_latency)

The latency term models under-occupancy: a kernel with few threads degrades
to its per-thread dependency chain, which is precisely what makes
sequentialising versions lose on small datasets and win on large ones — the
crossover that incremental flattening's thresholds select between.

Memory spaces: program inputs and level-1 results live in ``global``;
arrays produced by level-0 constructs live in ``local`` (per-group) memory,
whose per-group capacity is checked against the device.  If a version's
local-memory demand exceeds the device, the simulator raises
:class:`LocalMemExceeded`; version guards catch this and dynamically fall
back to the next version (the "fallback" strategy of paper §4.1).

Block tiling: a sequential ``redomap`` inside a level-≥1 ``segmap`` whose
operand arrays are invariant to at least one parallel dimension is assumed
tiled in local memory by the (moderate-flattening) tiling pass the paper
builds on [32]: its global traffic divides by the tile factor and moves to
local memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro import faults, perf
from repro.obs import trace as obs
from repro.flatten.versions import DEFAULT_THRESHOLD
from repro.gpu.device import DeviceSpec
from repro.gpu.report import Chain, CostReport, KernelStats
from repro.gpu.tiling import tiling_factor
from repro.interp import intrinsics
from repro.interp.scalar import BINOPS
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.traverse import kernel_fingerprint
from repro.ir.typecheck import _top_segops
from repro.ir.types import ArrayType, ScalarType, Type
from repro.sizes import SizeExpr

__all__ = [
    "AScal",
    "AArr",
    "SimError",
    "LocalMemExceeded",
    "Simulator",
    "aval_from_type",
    "kernel_fingerprint",
]

#: extra ALU cost of transcendental unary ops
_EXPENSIVE_UNOPS = {"exp": 8.0, "log": 8.0, "sqrt": 8.0, "pow": 8.0}

_TILE = 16  # default tile edge for block tiling


class SimError(Exception):
    pass


class LocalMemExceeded(SimError):
    """A workgroup requires more local memory than the device provides."""


@dataclass(frozen=True)
class AScal:
    """Abstract scalar: byte width, known constant value, variance set."""

    nbytes: int = 4
    value: float | int | bool | None = None
    varies: frozenset[int] = frozenset()


@dataclass(frozen=True)
class AArr:
    """Abstract array: concrete shape, element width, memory space."""

    shape: tuple[int, ...]
    enbytes: int
    space: str = "global"  # "global" | "local"
    varies: frozenset[int] = frozenset()

    @property
    def bytes(self) -> int:
        n = self.enbytes
        for d in self.shape:
            n *= d
        return n

    def peel(self) -> "AScal | AArr":
        if len(self.shape) == 1:
            return AScal(self.enbytes, None, self.varies)
        return AArr(self.shape[1:], self.enbytes, self.space, self.varies)


AVal = AScal | AArr


def aval_from_type(t: Type, sizes: Mapping[str, int], value=None) -> AVal:
    if isinstance(t, ArrayType):
        shape = tuple(int(d.eval(sizes)) for d in t.shape)
        return AArr(shape, t.elem.nbytes)
    assert isinstance(t, ScalarType)
    return AScal(t.nbytes, value)


def _pow2ceil(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


@dataclass
class _KCtx:
    """Per-kernel walking context."""

    dims: list[int] = field(default_factory=list)  # ctx extents, outer first
    in_group: bool = False  # walking intra-group (level-0) code?
    group_size: int = 256
    local_used: int = 0  # local-memory bytes allocated so far
    #: cooperative work beyond the serial critical path (total − serial)
    extra: Chain = field(default_factory=Chain)
    #: arrays already Index-read in this kernel body (stencil L2 locality);
    #: held and compared by identity, because a bare ``id`` of a freed
    #: array can be reused by a new one
    read_arrays: list = field(default_factory=list)


def roofline_time(
    device: DeviceSpec,
    chain: Chain,
    instances: int,
    group_size: int,
    groups: int,
    launches: int = 1,
    serial_chain: Chain | None = None,
) -> tuple[float, dict]:
    """Kernel time under the roofline + occupancy-latency model.

    ``chain`` is the per-instance cost (thread, or workgroup in intra mode);
    ``instances`` scales it to totals.  ``serial_chain`` is the critical
    path of one instance — it defaults to ``chain`` (a thread's work is its
    own critical path) but is shorter for group-cooperative kernels, where
    work is spread over the group's threads.  Returns (time, breakdown).
    """
    if serial_chain is None:
        serial_chain = chain
    total = chain.scaled(instances)
    compute = total.ops / device.alu_rate
    memory = total.gbytes / device.mem_bw
    localb = total.lbytes / device.local_bw
    resident = max(1, device.full_occupancy // max(group_size, 1))
    waves = math.ceil(max(groups, 1) / resident)
    serial = (
        serial_chain.ops * device.alu_lat
        + serial_chain.gacc * device.mem_lat / device.mem_pipeline
        + serial_chain.lacc * device.local_lat / device.mem_pipeline
        + serial_chain.barriers * device.barrier_s
    )
    latency = waves * serial
    time = launches * device.launch_s + max(compute, memory, localb, latency)
    return time, dict(
        compute=compute,
        memory=memory,
        local=localb,
        latency=latency,
        waves=waves,
    )


# --------------------------------------------------- kernel cost memoization
#
# Pricing one host-level segop is a pure function of (a) the kernel's
# structure, (b) the abstract values of its free variables, (c) the size
# assignment restricted to the names the kernel can observe, (d) the
# threshold values it compares against and (e) the device/tiling
# configuration.  The cache below keys on exactly that tuple, so repeated
# simulations of the same program — across tuner proposals, figure
# pipelines and overlapping datasets — price each kernel once.


class _HashedKey:
    """A structural key with its hash precomputed (keys can be large)."""

    __slots__ = ("key", "_hash")

    def __init__(self, key: tuple):
        self.key = key
        self._hash = hash(key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, _HashedKey) and self.key == other.key


#: id-keyed memo tables (bounded by ``perf.memo_put``); values hold the
#: node itself so ids stay valid
_META_MEMO: dict[int, tuple] = perf.register_cache("kernel.meta", {})
_FACTS_MEMO: dict[int, tuple] = perf.register_cache("kernel.facts", {})
_DEMAND_MEMO: dict[int, tuple] = perf.register_cache("kernel.demand", {})
_KERNEL_CACHE: dict = perf.register_cache("kernel.cost", {})

_KERNEL_CACHE_CAP = 1 << 18


@dataclass(frozen=True)
class _OpMeta:
    """Cache-key ingredients of one segop, computed once per AST node."""

    fp: _HashedKey
    free: tuple[str, ...]  # free variables (env part of the key)
    size_names: tuple[str, ...]  # names whose `sizes` entry is observable
    thresholds: tuple[str, ...]  # threshold names compared inside the op
    full_sizes: bool  # op contains an intrinsic (cost sees all sizes)


def _op_meta(op: T.SegOp) -> _OpMeta:
    hit = _META_MEMO.get(id(op))
    if hit is not None and hit[0] is op:
        return hit[1]
    from repro.ir.traverse import free_vars, walk

    var_names: set[str] = set()
    size_vars: set[str] = set()
    ths: list[str] = []
    full_sizes = False
    nodes = 0
    for sub in walk(op):
        nodes += 1
        if isinstance(sub, S.Var):
            var_names.add(sub.name)
        elif isinstance(sub, S.SizeE):
            size_vars |= sub.size.free_vars()
        elif isinstance(sub, T.ParCmp):
            size_vars |= sub.par.free_vars()
            if sub.threshold not in ths:
                ths.append(sub.threshold)
        elif isinstance(sub, S.Intrinsic):
            full_sizes = True
        if isinstance(sub, T.SegOp):
            for b in sub.ctx:
                size_vars |= b.size.free_vars()
    perf.inc("kernel_cache.fingerprint_nodes", nodes)
    meta = _OpMeta(
        fp=_HashedKey(kernel_fingerprint(op)),
        free=tuple(sorted(free_vars(op))),
        size_names=tuple(sorted(var_names | size_vars)),
        thresholds=tuple(ths),
        full_sizes=full_sizes,
    )
    perf.memo_put(_META_MEMO, id(op), (op, meta))
    return meta


@dataclass(frozen=True)
class _SegFacts:
    """What pricing a segop reads of its structure, computed once per node
    (host-level kernels and level-0 group constructs alike)."""

    reads: frozenset[str]  # names its body, operator and neutral elements read
    intra: bool  # its body holds a level-(l−1) segop
    pars: tuple[SizeExpr, ...]  # Par(Σ) of every segop in its body, walk order


def _seg_facts(op: T.SegOp) -> _SegFacts:
    hit = _FACTS_MEMO.get(id(op))
    if hit is not None and hit[0] is op:
        return hit[1]
    from repro.ir.traverse import free_vars

    reads = free_vars(op.body)
    if isinstance(op, (T.SegRed, T.SegScan)):
        reads = reads | free_vars(op.lam.body)
        for ne in op.nes:
            reads = reads | free_vars(ne)
    facts = _SegFacts(
        reads=reads,
        intra=any(s.level == op.level - 1 for s in _top_segops(op.body)),
        pars=tuple(s.ctx.par() for s in _all_segops(op.body)),
    )
    perf.memo_put(_FACTS_MEMO, id(op), (op, facts))
    return facts


class Simulator:
    """Simulates one flattened program on one device."""

    def __init__(
        self,
        device: DeviceSpec,
        thresholds: Mapping[str, int] | None = None,
        tile: int = _TILE,
        enable_tiling: bool = True,
        cache: bool | None = None,
    ):
        """``cache=None`` follows the global switch (``REPRO_NO_CACHE``);
        ``cache=False`` forces every kernel to be priced from scratch."""
        self.device = device
        self.thresholds = dict(thresholds or {})
        self.tile = tile
        self.enable_tiling = enable_tiling
        self.cache = perf.caching_enabled() if cache is None else bool(cache)
        self.sizes: dict[str, int] = {}
        #: abstract values of the program results, set by simulate()
        self.result: tuple[AVal, ...] = ()

    # ------------------------------------------------------------------ API --

    def simulate(
        self,
        body: S.Exp,
        params: Mapping[str, AVal],
        sizes: Mapping[str, int],
    ) -> CostReport:
        """Simulate ``body`` with parameter avals under a size assignment."""
        self.sizes = dict(sizes)
        env: dict[str, AVal] = dict(params)
        report = CostReport()
        self.result = self._host(body, env, report)
        return report

    # ------------------------------------------------------- host-level walk --

    def _host(self, e: S.Exp, env: dict[str, AVal], rep: CostReport) -> tuple[AVal, ...]:
        if isinstance(e, T.SegOp):
            return self._kernel(e, env, rep)
        if isinstance(e, S.Let):
            vals = self._host(e.rhs, env, rep)
            env2 = dict(env)
            env2.update(zip(e.names, vals))
            return self._host(e.body, env2, rep)
        if isinstance(e, S.If):
            return self._host_if(e, env, rep)
        if isinstance(e, S.Loop):
            bound = self._value(e.bound, env)
            if bound is None:
                raise SimError(f"loop bound {e.bound!r} not derivable")
            env2 = dict(env)
            inits = [self._host(i, env, rep) for i in e.inits]
            env2.update({p: v[0] for p, v in zip(e.params, inits)})
            env2[e.ivar] = AScal(8, None)
            sub = CostReport()
            vals = self._host(e.body, env2, sub)
            rep.time += sub.time * int(bound)
            rep.host_time += sub.host_time * int(bound)
            rep.transfer_bytes += sub.transfer_bytes * int(bound)
            # a real runtime double-buffers loop-carried arrays rather than
            # re-allocating every iteration: charge allocations twice
            rep.alloc_bytes += sub.alloc_bytes * min(int(bound), 2)
            rep.kernels.extend(sub.kernels)
            return vals
        if isinstance(e, (S.Replicate, S.Iota)):
            # materialisation on the device: one copy-style kernel
            chain = Chain()
            (val,) = self._seq(e, env, chain, _KCtx())
            if isinstance(val, AArr):
                self._charge_copy(val.bytes, rep, kind="replicate")
            return (val,)
        if isinstance(e, (S.Map, S.Reduce, S.Scan, S.Redomap, S.Scanomap, S.Intrinsic)):
            # residual sequential work on the host (rare): host-rate compute
            chain = Chain()
            vals = self._seq(e, env, chain, _KCtx())
            t = (
                chain.ops / self.device.host_alu_rate
                + chain.gbytes / self.device.host_bw
            )
            rep.host_time += t
            rep.time += t
            return vals
        # cost-free forms (scalar host code, views, handles)
        chain = Chain()
        return self._seq(e, env, chain, _KCtx())

    def _host_if(self, e: S.If, env: dict[str, AVal], rep: CostReport):
        cond = self._value(e.cond, env)
        if cond is None:
            # unknown scalar condition: charge the more expensive branch
            rep_t, rep_f = CostReport(), CostReport()
            vals = self._host(e.then, env, rep_t)
            self._host(e.els, env, rep_f)
            rep.merge(rep_t if rep_t.time >= rep_f.time else rep_f)
            return vals
        if cond:
            # dynamic fallback (paper §4.1): if the guarded version cannot
            # run within local memory, fall through to the alternative.
            # The static estimate is shared with the tuner's path
            # signatures so caching stays sound.
            if (
                isinstance(e.cond, T.ParCmp)
                and intra_local_demand(e.then, self.sizes) > self.device.local_mem
            ):
                return self._host(e.els, env, rep)
            sub = CostReport()
            try:
                vals = self._host(e.then, env, sub)
                rep.merge(sub)
                return vals
            except LocalMemExceeded:
                if isinstance(e.cond, T.ParCmp):
                    return self._host(e.els, env, rep)
                raise
        return self._host(e.els, env, rep)

    def _value(self, e: S.Exp, env: Mapping[str, AVal]):
        """Concrete scalar value of ``e`` if statically derivable."""
        if isinstance(e, S.Lit):
            return e.value
        if isinstance(e, S.SizeE):
            return e.size.eval(self.sizes)
        if isinstance(e, T.ParCmp):
            par = e.par.eval(self.sizes)
            t = self.thresholds.get(e.threshold, DEFAULT_THRESHOLD)
            return par >= t
        if isinstance(e, S.Var):
            val = env.get(e.name)
            if isinstance(val, AScal):
                if val.value is not None:
                    return val.value
                # scalar program parameters double as size variables
                return self.sizes.get(e.name)
            return None
        if isinstance(e, S.BinOp):
            a = self._value(e.x, env)
            b = self._value(e.y, env)
            if a is None or b is None:
                return None
            return BINOPS[e.op](a, b)
        if isinstance(e, S.UnOp) and e.op.startswith("to_"):
            return self._value(e.x, env)
        return None

    # ------------------------------------------------------------ kernels --

    def _ctx_env_full(self, op: T.SegOp, env: dict[str, AVal]):
        kenv = dict(env)
        extents: list[int] = []
        scalar_params: list[tuple[str, AArr]] = []
        for lvl, b in enumerate(op.ctx):
            chain = Chain()
            arr_vals = [self._seq1(a, kenv, chain, _KCtx()) for a in b.arrays]
            first = arr_vals[0]
            if not isinstance(first, AArr):
                raise SimError("context binding over non-array")
            extents.append(first.shape[0])
            for p, av in zip(b.params, arr_vals):
                assert isinstance(av, AArr)
                row = av.peel()
                row = replace(row, varies=av.varies | {lvl})
                kenv[p] = row
                if isinstance(row, AScal):
                    scalar_params.append((p, av))
        return extents, kenv, scalar_params

    def _charge_ctx_reads(
        self, op: T.SegOp, scalar_params, chain: Chain
    ) -> None:
        """Each thread reads the scalar context elements its body uses."""
        if not scalar_params:
            return
        fv = _seg_facts(op).reads
        for p, arr in scalar_params:
            if p in fv:
                self._charge_read(arr, chain)

    def _kernel(self, op: T.SegOp, env: dict[str, AVal], rep: CostReport):
        """Price one host-level kernel launch (span-traced when tracing)."""
        if faults.enabled():
            # Checked before any cache consult so an injected fault can never
            # poison the kernel-cost cache.  Deterministic kinds (oom) key on
            # the kernel identity plus the thresholds it observed, so the same
            # configuration fails identically on every attempt — the property
            # tuner quarantine relies on.
            meta = _op_meta(op)
            faults.check(
                "sim.kernel",
                key=(
                    type(op).__name__,
                    op.level,
                    tuple(
                        self.thresholds.get(t, DEFAULT_THRESHOLD)
                        for t in meta.thresholds
                    ),
                ),
            )
        tracer = obs.current()
        if tracer is None:
            if not self.cache:
                return self._kernel_raw(op, env, rep)
            return self._kernel_cached(op, env, rep)
        with tracer.span(
            "kernel.launch", cat="sim",
            kind=type(op).__name__, level=op.level, cached=self.cache,
        ) as sp:
            n0 = len(rep.kernels)
            if not self.cache:
                vals = self._kernel_raw(op, env, rep)
            else:
                vals = self._kernel_cached(op, env, rep)
            launched = rep.kernels[n0:]
            sp["kernels"] = len(launched)
            sp["sim_time_us"] = sum(k.time for k in launched) * 1e6
            if launched:
                sp["threads"] = launched[0].threads
                sp["group_size"] = launched[0].group_size
        return vals

    def _kernel_cached(self, op: T.SegOp, env: dict[str, AVal], rep: CostReport):
        """Price one host-level kernel, via the kernel-cost cache.

        Cache replay merges per kernel (``rep.time += k.time`` for each
        recorded :class:`KernelStats`), reproducing the exact floating-point
        accumulation order of a cold walk — memoized and cache-disabled
        simulations agree bit for bit.
        """
        meta = _op_meta(op)
        sizes = self.sizes
        if meta.full_sizes:
            sizes_key = tuple(sorted(sizes.items()))
        else:
            sizes_key = tuple(sizes.get(n) for n in meta.size_names)
        key = (
            meta.fp,
            tuple(env.get(n) for n in meta.free),
            sizes_key,
            tuple(self.thresholds.get(t, DEFAULT_THRESHOLD) for t in meta.thresholds),
            self.device,
            self.tile,
            self.enable_tiling,
        )
        entry = _KERNEL_CACHE.get(key)
        if entry is None:
            perf.inc("kernel_cache.misses")
            sub = CostReport()
            try:
                vals = self._kernel_raw(op, env, sub)
            except LocalMemExceeded as exc:
                _KERNEL_CACHE[key] = (None, exc.args, None)
                raise
            if len(_KERNEL_CACHE) >= _KERNEL_CACHE_CAP:
                _KERNEL_CACHE.clear()
            _KERNEL_CACHE[key] = (vals, None, sub)
        else:
            perf.inc("kernel_cache.hits")
            vals, exc_args, sub = entry
            if exc_args is not None:
                raise LocalMemExceeded(*exc_args)
        for k in sub.kernels:
            rep.time += k.time
        rep.kernels.extend(replace(k) for k in sub.kernels)
        rep.host_time += sub.host_time
        rep.transfer_bytes += sub.transfer_bytes
        rep.alloc_bytes += sub.alloc_bytes
        return vals

    def _kernel_raw(self, op: T.SegOp, env: dict[str, AVal], rep: CostReport):
        extents, kenv, scalars = self._ctx_env_full(op, env)
        P = 1
        for d in extents:
            P *= d
        if P == 0:
            return self._zero_result(op, extents, kenv)

        if isinstance(op, T.SegMap):
            if op.level >= 1 and _seg_facts(op).intra:
                vals = self._intra_kernel(op, extents, kenv, rep, scalars)
            else:
                vals = self._plain_segmap(op, extents, kenv, rep, scalars)
        elif isinstance(op, T.SegRed):
            vals = self._segred_kernel(op, extents, kenv, rep, scalars)
        else:
            vals = self._segscan_kernel(op, extents, kenv, rep, scalars)
        for v_ in vals:
            if isinstance(v_, AArr):
                rep.alloc_bytes += v_.bytes
        return vals

    def _zero_result(self, op, extents, kenv):
        chain = Chain()
        kctx = _KCtx(dims=list(extents))
        vals = self._seq(op.body, kenv, chain, kctx)
        return tuple(self._wrap_result(v, extents, op) for v in vals)

    def _wrap_result(self, v: AVal, extents: list[int], op: T.SegOp) -> AVal:
        dims = extents if not isinstance(op, T.SegRed) else extents[:-1]
        if isinstance(v, AScal):
            if not dims:
                return v
            return AArr(tuple(dims), v.nbytes, "global")
        return AArr(tuple(dims) + v.shape, v.enbytes, "global")

    def _lam_ops(self, lam: S.Lambda, kenv: dict[str, AVal]) -> float:
        """ALU cost of one application of an operator lambda."""
        chain = Chain()
        env2 = dict(kenv)
        for p in lam.params:
            env2[p] = AScal(4, None)
        try:
            self._seq(lam.body, env2, chain, _KCtx())
        except SimError:
            return 2.0
        return max(chain.ops, 1.0)

    def _roofline(
        self,
        kind: str,
        level: int,
        chain: Chain,
        instances: int,
        group_size: int,
        groups: int,
        rep: CostReport,
        local_used: int = 0,
        launches: int = 1,
        serial_chain: Chain | None = None,
    ) -> None:
        total = chain.scaled(instances)
        time, bd = roofline_time(
            self.device, chain, instances, group_size, groups, launches,
            serial_chain=serial_chain,
        )
        compute, memory, localb, latency, waves = (
            bd["compute"], bd["memory"], bd["local"], bd["latency"], bd["waves"],
        )
        rep.time += time
        rep.kernels.append(
            KernelStats(
                kind=kind,
                level=level,
                threads=instances if kind != "intra" else groups * group_size,
                groups=groups,
                group_size=group_size,
                waves=waves,
                time=time,
                compute_bound=compute,
                memory_bound=memory,
                local_bound=localb,
                latency_bound=latency,
                gbytes=total.gbytes,
                ops=total.ops,
                local_mem_used=local_used,
            )
        )

    def _charge_copy(self, nbytes: float, rep: CostReport, kind: str = "copy"):
        d = self.device
        chain = Chain(ops=1, gbytes=2 * 4, gacc=2)  # per element, read+write
        n = max(1, int(nbytes // 4))
        self._roofline(kind, 1, chain, n, d.default_group,
                       math.ceil(n / d.default_group), rep)

    # -- plain (single-level) segmap ------------------------------------------

    def _plain_segmap(self, op: T.SegMap, extents, kenv, rep: CostReport, scalars=()):
        P = 1
        for dd in extents:
            P *= dd
        chain = Chain()
        self._charge_ctx_reads(op, scalars, chain)
        kctx = _KCtx(dims=list(extents))
        vals = self._seq(op.body, kenv, chain, kctx)
        # result write-back: scalars write one element per thread; arrays
        # constructed by the body already charged their stores; pre-existing
        # arrays returned verbatim become a parallel copy kernel (a real
        # code generator copies with one thread per element, not per row)
        body_results = (
            list(op.body.elems) if isinstance(op.body, S.TupleExp) else [op.body]
        )
        copy_bytes = 0.0
        for v, src in zip(vals, body_results):
            if isinstance(v, AScal):
                chain.gbytes += v.nbytes
                chain.gacc += 1
            elif isinstance(src, (S.Var, S.Index)):
                copy_bytes += P * v.bytes
        G = min(self.device.default_group, self.device.max_group, max(P, 1))
        groups = math.ceil(P / G)
        if chain.ops or chain.gbytes or chain.lbytes:
            self._roofline("segmap", op.level, chain, P, G, groups, rep)
        if copy_bytes:
            self._charge_copy(copy_bytes, rep)
        return tuple(self._wrap_result(v, extents, op) for v in vals)

    # -- segred ----------------------------------------------------------------

    def _segred_kernel(self, op: T.SegRed, extents, kenv, rep: CostReport, scalars=()):
        P = 1
        for dd in extents:
            P *= dd
        chain = Chain()
        self._charge_ctx_reads(op, scalars, chain)
        kctx = _KCtx(dims=list(extents))
        vals = self._seq(op.body, kenv, chain, kctx)
        op_ops = self._lam_ops(op.lam, kenv)
        chain.ops += op_ops
        # intra-group tree combine + partials written/read by a second stage
        G = min(self.device.default_group, self.device.max_group, max(P, 1))
        groups = math.ceil(P / G)
        logg = math.log2(max(G, 2))
        chain.ops += 2 * op_ops * logg / G
        chain.lacc += 2 * logg / G
        chain.lbytes += 2 * logg * 4 / G
        chain.barriers += logg / G
        res_bytes = sum(v.nbytes if isinstance(v, AScal) else v.bytes for v in vals)
        chain.gbytes += 2 * groups * res_bytes / max(P, 1)  # partials w+r
        segments = 1
        for dd in extents[:-1]:
            segments *= dd
        chain.gbytes += segments * res_bytes / max(P, 1)  # final writes
        self._roofline("segred", op.level, chain, P, G, groups, rep, launches=2)
        return tuple(self._wrap_result(v, extents, op) for v in vals)

    # -- segscan ----------------------------------------------------------------

    def _segscan_kernel(self, op: T.SegScan, extents, kenv, rep: CostReport, scalars=()):
        P = 1
        for dd in extents:
            P *= dd
        chain = Chain()
        self._charge_ctx_reads(op, scalars, chain)
        kctx = _KCtx(dims=list(extents))
        vals = self._seq(op.body, kenv, chain, kctx)
        op_ops = self._lam_ops(op.lam, kenv)
        res_bytes = sum(v.nbytes if isinstance(v, AScal) else v.bytes for v in vals)
        # two-pass global scan: ~3 global accesses per element beyond the
        # body's own reads (paper §5.2's "at least two and typically three")
        chain.ops += 2 * op_ops
        chain.gbytes += 3 * res_bytes
        chain.gacc += 3
        G = min(self.device.default_group, self.device.max_group, max(P, 1))
        groups = math.ceil(P / G)
        chain.barriers += 2 * math.log2(max(G, 2)) / G
        self._roofline("segscan", op.level, chain, P, G, groups, rep, launches=2)
        return tuple(self._wrap_result(v, extents, op) for v in vals)

    # -- intra-group kernels (segmap^l with level-0 body ops) --------------------

    def _intra_kernel(self, op: T.SegMap, extents, kenv, rep: CostReport, scalars=()):
        groups = 1
        for dd in extents:
            groups *= dd
        # group size: power of two covering the widest level-0 extent
        # (symbolic, since nested contexts reference body-local arrays)
        m_max = 1
        for par in _seg_facts(op).pars:
            try:
                m_max = max(m_max, par.eval(self.sizes))
            except KeyError:
                continue
        G = min(self.device.max_group, max(32, _pow2ceil(m_max)))
        kctx = _KCtx(dims=list(extents), in_group=True, group_size=G)
        chain = Chain()  # the per-group serial critical path
        self._charge_ctx_reads(op, scalars, chain)
        vals = self._seq(op.body, kenv, chain, kctx)
        if kctx.local_used > self.device.local_mem:
            raise LocalMemExceeded(
                f"workgroup needs {kctx.local_used} B local memory "
                f"({self.device.local_mem} B available on {self.device.name})"
            )
        # write back local results to global memory (group-cooperative)
        for v in vals:
            if isinstance(v, AArr) and v.space == "local":
                n = max(1, v.bytes // max(v.enbytes, 1))
                total_wb = Chain(gbytes=v.bytes, gacc=n, lbytes=v.bytes, lacc=n)
                _accum(kctx.extra, total_wb, (G - 1) / G)
                _accum(chain, total_wb, 1.0 / G)
            elif isinstance(v, AScal):
                chain.gbytes += v.nbytes
                chain.gacc += 1
        total_chain = chain.add(kctx.extra)
        self._roofline(
            "intra", op.level, total_chain, groups, G, groups, rep,
            local_used=kctx.local_used, serial_chain=chain,
        )
        return tuple(self._wrap_result(v, extents, op) for v in vals)

    # ------------------------------------------- sequential (in-kernel) walk --

    def _seq1(self, e, env, chain, kctx) -> AVal:
        vals = self._seq(e, env, chain, kctx)
        if len(vals) != 1:
            raise SimError("expected single value")
        return vals[0]

    def _seq(
        self, e: S.Exp, env: dict[str, AVal], chain: Chain, kctx: _KCtx
    ) -> tuple[AVal, ...]:
        d = self.device
        if isinstance(e, S.Var):
            try:
                return (env[e.name],)
            except KeyError:
                raise SimError(f"unbound variable {e.name!r}") from None
        if isinstance(e, S.Lit):
            return (AScal(e.type.nbytes, e.value),)
        if isinstance(e, S.SizeE):
            return (AScal(8, e.size.eval(self.sizes)),)
        if isinstance(e, T.ParCmp):
            return (AScal(1, bool(self._value(e, env))),)
        if isinstance(e, S.TupleExp):
            out: list[AVal] = []
            for x in e.elems:
                out.extend(self._seq(x, env, chain, kctx))
            return tuple(out)
        if isinstance(e, S.BinOp):
            a = self._seq1(e.x, env, chain, kctx)
            b = self._seq1(e.y, env, chain, kctx)
            chain.ops += 1
            val = self._value(e, env)
            nb = max(getattr(a, "nbytes", 4), getattr(b, "nbytes", 4))
            if S.BINOPS[e.op]:
                nb = 1
            return (AScal(nb, val, a.varies | b.varies),)
        if isinstance(e, S.UnOp):
            a = self._seq1(e.x, env, chain, kctx)
            chain.ops += _EXPENSIVE_UNOPS.get(e.op, 1.0)
            return (AScal(getattr(a, "nbytes", 4), None, a.varies),)
        if isinstance(e, S.Let):
            vals = self._seq(e.rhs, env, chain, kctx)
            env2 = dict(env)
            env2.update(zip(e.names, vals))
            return self._seq(e.body, env2, chain, kctx)
        if isinstance(e, S.If):
            self._seq(e.cond, env, chain, kctx)
            cond = self._value(e.cond, env)
            if cond is not None:
                return self._seq(e.then if cond else e.els, env, chain, kctx)
            ch_t, ch_f = Chain(), Chain()
            vals = self._seq(e.then, env, ch_t, kctx)
            self._seq(e.els, env, ch_f, kctx)
            # unknown data-dependent branch: charge the heavier side
            heavier = ch_t if (ch_t.ops + ch_t.gacc) >= (ch_f.ops + ch_f.gacc) else ch_f
            for f_ in ("ops", "gbytes", "lbytes", "gacc", "lacc", "barriers"):
                setattr(chain, f_, getattr(chain, f_) + getattr(heavier, f_))
            return vals
        if isinstance(e, S.Index):
            arr = self._seq1(e.arr, env, chain, kctx)
            for i in e.idxs:
                self._seq(i, env, chain, kctx)
            if not isinstance(arr, AArr):
                raise SimError("indexing a scalar")
            if len(e.idxs) == len(arr.shape):
                # repeated reads of the same array within one body are
                # overlapping stencil accesses: neighbours hit the L2 cache
                seen = any(a is arr for a in kctx.read_arrays)
                if seen and arr.space == "global":
                    chain.gbytes += arr.enbytes * 0.25
                    chain.gacc += 0.25
                else:
                    self._charge_read(arr, chain)
                    if not seen:
                        kctx.read_arrays.append(arr)
                return (AScal(arr.enbytes, None, arr.varies),)
            return (
                AArr(arr.shape[len(e.idxs):], arr.enbytes, arr.space, arr.varies),
            )
        if isinstance(e, S.Iota):
            n = self._value(e.n, env)
            if n is None:
                raise SimError("iota extent not derivable")
            res = self._alloc((int(n),), 8, kctx)
            self._charge_writes(res, int(n), chain)
            return (res,)
        if isinstance(e, S.Replicate):
            n = self._value(e.n, env)
            if n is None:
                raise SimError("replicate extent not derivable")
            x = self._seq1(e.x, env, chain, kctx)
            if isinstance(x, AScal):
                res = self._alloc((int(n),), x.nbytes, kctx, x.varies)
                self._charge_writes(res, int(n), chain)
            else:
                res = self._alloc((int(n),) + x.shape, x.enbytes, kctx, x.varies)
                self._charge_writes(res, int(n) * _numel(x.shape), chain)
            return (res,)
        if isinstance(e, S.Rearrange):
            arr = self._seq1(e.arr, env, chain, kctx)
            if not isinstance(arr, AArr):
                raise SimError("rearranging a scalar")
            shape = tuple(arr.shape[p] for p in e.perm)
            return (AArr(shape, arr.enbytes, arr.space, arr.varies),)
        if isinstance(e, S.Loop):
            bound = self._value(e.bound, env)
            if bound is None:
                raise SimError(f"loop bound {e.bound!r} not derivable")
            env2 = dict(env)
            for p, i in zip(e.params, e.inits):
                env2[p] = self._seq1(i, env, chain, kctx)
            env2[e.ivar] = AScal(8, None)
            sub = Chain()
            saved_extra = kctx.extra
            kctx.extra = Chain()
            vals = self._seq(e.body, env2, sub, kctx)
            delta_extra = kctx.extra
            kctx.extra = saved_extra
            _accum(kctx.extra, delta_extra, int(bound))
            _accum(chain, sub, int(bound))
            return vals
        if isinstance(e, S.Map):
            return self._seq_map(e, env, chain, kctx)
        if isinstance(e, (S.Reduce, S.Redomap)):
            return self._seq_reduce(e, env, chain, kctx)
        if isinstance(e, (S.Scan, S.Scanomap)):
            return self._seq_scan(e, env, chain, kctx)
        if isinstance(e, S.Intrinsic):
            return self._seq_intrinsic(e, env, chain, kctx)
        if isinstance(e, T.SegOp):
            if not kctx.in_group or e.level != 0:
                raise SimError(
                    f"{type(e).__name__}^{e.level} in sequential position"
                )
            return self._group_segop(e, env, chain, kctx)
        raise SimError(f"cannot cost {type(e).__name__}")

    # -- memory-charging helpers -------------------------------------------------

    def _charge_read(
        self,
        arr: AArr,
        chain: Chain,
        count: float = 1.0,
        factor: float = 1.0,
        sequential: bool = False,
    ):
        # sequential-stride reads amortise their latency over a cache line
        line = min(1.0, arr.enbytes / 128.0) if sequential else 1.0
        if arr.space == "local":
            chain.lbytes += count * arr.enbytes
            chain.lacc += count * line
        else:
            chain.gbytes += count * arr.enbytes / factor
            chain.gacc += count * line / factor
            if factor > 1.0:
                # tiled: the remaining accesses hit local memory
                chain.lbytes += count * arr.enbytes
                chain.lacc += count * line
                chain.barriers += 2 * count / self.tile

    def _charge_writes(self, arr: AArr, count: int, chain: Chain):
        if arr.space == "local":
            chain.lbytes += count * arr.enbytes
            chain.lacc += count
        else:
            chain.gbytes += count * arr.enbytes
            chain.gacc += count

    def _alloc(
        self, shape: tuple[int, ...], enbytes: int, kctx: _KCtx,
        varies: frozenset[int] = frozenset(),
    ) -> AArr:
        space = "local" if kctx.in_group else "global"
        arr = AArr(shape, enbytes, space, varies)
        if space == "local":
            kctx.local_used += arr.bytes
        return arr

    def _operand_factor(self, arr: AArr, kctx: _KCtx) -> float:
        if not self.enable_tiling or kctx.in_group or arr.space != "global":
            return 1.0
        return tiling_factor(arr.varies, kctx.dims, self.tile)

    # -- sequential SOACs ----------------------------------------------------------

    def _soac_inputs(
        self, arrs, env, chain, kctx
    ) -> tuple[list[AArr], int]:
        avals = []
        for a in arrs:
            v = self._seq1(a, env, chain, kctx)
            if not isinstance(v, AArr):
                raise SimError("SOAC over scalar")
            avals.append(v)
        return avals, avals[0].shape[0]

    def _iter_env(self, params, avals, env, chain, kctx, tiled: bool) -> dict:
        """Bind row values, charging per-element reads for scalar rows."""
        env2 = dict(env)
        for p, av in zip(params, avals):
            row = av.peel()
            if isinstance(row, AScal):
                factor = self._operand_factor(av, kctx) if tiled else 1.0
                self._charge_read(av, chain, 1.0, factor, sequential=True)
            env2[p] = row
        return env2

    def _seq_map(self, e: S.Map, env, chain, kctx):
        avals, n = self._soac_inputs(e.arrs, env, chain, kctx)
        sub = Chain()
        env2 = self._iter_env(e.lam.params, avals, env, sub, kctx, tiled=False)
        vals = self._seq(e.lam.body, env2, sub, kctx)
        out = []
        for v in vals:
            if isinstance(v, AScal):
                res = self._alloc((n,), v.nbytes, kctx, v.varies)
                self._charge_writes(res, 1, sub)
            else:
                res = self._alloc((n,) + v.shape, v.enbytes, kctx, v.varies)
            out.append(res)
        _accum(chain, sub, n)
        return tuple(out)

    def _seq_reduce(self, e, env, chain, kctx):
        if isinstance(e, S.Reduce):
            red_lam, nes, arrs = e.lam, e.nes, e.arrs
            map_lam = None
        else:
            red_lam, nes, arrs, map_lam = e.red_lam, e.nes, e.arrs, e.map_lam
        avals, n = self._soac_inputs(arrs, env, chain, kctx)
        sub = Chain()
        params = (
            map_lam.params
            if map_lam is not None
            else [f"_r{i}" for i in range(len(arrs))]
        )
        env2 = self._iter_env(params, avals, env, sub, kctx, tiled=True)
        if map_lam is not None:
            mvals = self._seq(map_lam.body, env2, sub, kctx)
        else:
            mvals = tuple(env2[p] for p in params)
        sub.ops += self._lam_ops(red_lam, env)
        _accum(chain, sub, n)
        for ne in nes:
            self._seq(ne, env, chain, kctx)
        return tuple(
            AScal(v.nbytes, None, v.varies) if isinstance(v, AScal) else v
            for v in mvals
        )

    def _seq_scan(self, e, env, chain, kctx):
        if isinstance(e, S.Scan):
            op_lam, nes, arrs, map_lam = e.lam, e.nes, e.arrs, None
        else:
            op_lam, nes, arrs, map_lam = e.scan_lam, e.nes, e.arrs, e.map_lam
        avals, n = self._soac_inputs(arrs, env, chain, kctx)
        sub = Chain()
        params = (
            map_lam.params if map_lam is not None else [f"_s{i}" for i in range(len(arrs))]
        )
        env2 = self._iter_env(params, avals, env, sub, kctx, tiled=False)
        if map_lam is not None:
            mvals = self._seq(map_lam.body, env2, sub, kctx)
        else:
            mvals = tuple(env2[p] for p in params)
        sub.ops += self._lam_ops(op_lam, env)
        out = []
        for v in mvals:
            if isinstance(v, AScal):
                res = self._alloc((n,), v.nbytes, kctx, v.varies)
                self._charge_writes(res, 1, sub)
                out.append(res)
            else:
                out.append(self._alloc((n,) + v.shape, v.enbytes, kctx, v.varies))
        _accum(chain, sub, n)
        for ne in nes:
            self._seq(ne, env, chain, kctx)
        return tuple(out)

    def _seq_intrinsic(self, e: S.Intrinsic, env, chain, kctx):
        defn = intrinsics.get(e.name)
        args = [self._seq1(a, env, chain, kctx) for a in e.args]
        ops, gb, lb = defn.cost(tuple(args), self.sizes)
        chain.ops += ops
        chain.gbytes += gb
        chain.gacc += gb / 4.0
        chain.lbytes += lb
        chain.lacc += lb / 4.0
        out = defn.abstract(tuple(args)) if defn.abstract else (AScal(4),)
        return out if isinstance(out, tuple) else (out,)

    # -- level-0 (intra-group) constructs --------------------------------------------

    def _group_segop(self, op: T.SegOp, env, chain, kctx: _KCtx):
        extents, kenv, scalars = self._ctx_env_full(op, env)
        m = 1
        for dd in extents:
            m *= dd
        G = kctx.group_size
        sub = Chain()
        self._charge_ctx_reads(op, scalars, sub)
        inner = _KCtx(
            dims=kctx.dims, in_group=True, group_size=G, local_used=kctx.local_used
        )
        vals = self._seq(op.body, kenv, sub, inner)
        kctx.local_used = inner.local_used
        _accum(kctx.extra, inner.extra, 1.0)
        per_chunk = max(1, math.ceil(m / G))
        rest = m - per_chunk  # cooperative work beyond the critical path

        if isinstance(op, T.SegMap):
            _accum(chain, sub, per_chunk)
            _accum(kctx.extra, sub, rest)
            chain.barriers += 1
            out = []
            for v in vals:
                if isinstance(v, AScal):
                    res = self._alloc(tuple(extents), v.nbytes, kctx, v.varies)
                    self._charge_writes(res, per_chunk, chain)
                    self._charge_writes(res, rest, kctx.extra)
                else:
                    res = self._alloc(
                        tuple(extents) + v.shape, v.enbytes, kctx, v.varies
                    )
                out.append(res)
            return tuple(out)

        op_ops = self._lam_ops(op.lam, kenv)
        logg = math.log2(max(min(m, G), 2))
        if isinstance(op, T.SegRed):
            _accum(chain, sub, per_chunk)
            _accum(kctx.extra, sub, rest)
            chain.ops += per_chunk * op_ops + logg * op_ops
            chain.lacc += 2 * logg
            chain.lbytes += 2 * logg * 4
            chain.barriers += logg
            kctx.extra.ops += rest * op_ops + min(m, G) * op_ops
            kctx.extra.lacc += 2 * min(m, G)
            kctx.extra.lbytes += 2 * min(m, G) * 4
            out = []
            res_dims = extents[:-1]
            for v in vals:
                nb = v.nbytes if isinstance(v, AScal) else v.bytes
                if res_dims:
                    out.append(self._alloc(tuple(res_dims), nb, kctx))
                else:
                    out.append(AScal(nb, None))
            return tuple(out)

        # SegScan at level 0: blocked work-efficient scan in local memory
        _accum(chain, sub, per_chunk)
        _accum(kctx.extra, sub, rest)
        res_total = sum(v.nbytes if isinstance(v, AScal) else v.bytes for v in vals)
        chain.ops += 2 * per_chunk * op_ops + 2 * logg * op_ops
        chain.lbytes += 3 * per_chunk * res_total
        chain.lacc += 3 * per_chunk
        chain.barriers += 2 * logg + 2 * (per_chunk - 1)
        kctx.extra.ops += 2 * rest * op_ops + 2 * min(m, G) * op_ops
        kctx.extra.lbytes += 3 * rest * res_total
        kctx.extra.lacc += 3 * rest
        out = []
        for v in vals:
            nb = v.nbytes if isinstance(v, AScal) else v.enbytes
            res = self._alloc(tuple(extents), nb, kctx)
            self._charge_writes(res, per_chunk, chain)
            self._charge_writes(res, rest, kctx.extra)
            out.append(res)
        return tuple(out)


def intra_local_demand(e: S.Exp, sizes: Mapping[str, int]) -> int:
    """Static estimate of the worst per-group local-memory demand in ``e``.

    Sums, over every level-0 construct, its context extent times 4 bytes per
    produced value — the allocation rule of the simulator.  Used to decide
    the §4.1 dynamic fallback *before* entering a guarded version, so that
    execution and :func:`repro.tuning.tree.path_signature` agree.  The terms
    (each construct's ``Par(Σ)`` and arity) are found once per node; a call
    evaluates them under ``sizes``.
    """
    demand = 0
    for par, arity in _demand_terms(e):
        try:
            m = par.eval(sizes)
        except KeyError:
            continue
        demand += m * 4 * arity
    return demand


def _demand_terms(e: S.Exp) -> tuple[tuple[SizeExpr, int], ...]:
    """``(Par(Σ), arity)`` of every level-0 construct in ``e`` that
    allocates local memory, in walk order (reduces carry only small
    partials)."""
    hit = _DEMAND_MEMO.get(id(e))
    if hit is not None and hit[0] is e:
        return hit[1]
    terms = []
    for op in _all_segops(e):
        if op.level != 0 or isinstance(op, T.SegRed):
            continue
        arity = 1
        if isinstance(op, T.SegMap) and isinstance(op.body, S.TupleExp):
            arity = len(op.body.elems)
        elif isinstance(op, T.SegScan):
            arity = len(op.nes)
        terms.append((op.ctx.par(), arity))
    out = tuple(terms)
    perf.memo_put(_DEMAND_MEMO, id(e), (e, out))
    return out


def _all_segops(e: S.Exp):
    """All seg-ops anywhere in ``e`` (including nested)."""
    from repro.ir.traverse import walk

    for sub in walk(e):
        if isinstance(sub, T.SegOp):
            yield sub


def _numel(shape: tuple[int, ...]) -> int:
    n = 1
    for d in shape:
        n *= d
    return n


def _accum(chain: Chain, sub: Chain, k: float) -> None:
    chain.ops += sub.ops * k
    chain.gbytes += sub.gbytes * k
    chain.lbytes += sub.lbytes * k
    chain.gacc += sub.gacc * k
    chain.lacc += sub.lacc * k
    chain.barriers += sub.barriers * k
