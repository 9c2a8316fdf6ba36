"""The flattening engine: moderate, incremental, and full flattening.

One recursive pass implements all three modes; they differ only at the two
choice points the paper identifies:

* a ``map`` whose body has inner parallelism — **moderate** and **full**
  always continue flattening (the ``e_flat`` choice), while **incremental**
  emits the three guarded versions of rule G3;
* an inner ``redomap``/``scanomap`` with a non-trivial fused map part —
  **moderate** sequentialises it (enabling tiling downstream), **full**
  decomposes and parallelises everything, **incremental** emits the two
  guarded versions of rule G9.

Rules implemented (paper Fig. 3 / Fig. 4):

====  =======================================================================
G0    empty context, no parallelism: identity
G1    non-empty context, no parallelism: manifest ``segmap^l Σ e``
G2    map with sequential body: manifest ``segmap^l (Σ,⟨x̄∈x̄s⟩) e``
G3    map with inner parallelism: three versions guarded by thresholds
G4    ``reduce (map op) (replicate d̄) z̄`` → ``map (reduce op d̄) (transpose z̄)``
G5    ``rearrange`` of a context-bound variable → rearrange of the outer array
G6    let distribution (map fission) with array expansion
G7    map/loop interchange with replicate expansion of invariant initialisers
G8    if distribution over invariant conditions
G9    redomap: ``segred`` version vs. decomposed map+reduce version
====  =======================================================================

The judgment ``Σ ⊢_l e ⇒ e'`` is :meth:`Flattener.flat`; the inference
direction of the paper's Fig. 3 conclusion at level ``l+1`` corresponds to
calling ``flat`` at level ``l ≥ 1`` here.
"""

from __future__ import annotations

from typing import Mapping

from repro.flatten.par import max_par
from repro.flatten.versions import ThresholdRegistry
from repro.ir import source as S
from repro.ir import target as T
from repro.flatten.context import resolve_full_array
from repro.ir.target import EMPTY_CTX, Binding, Ctx
from repro.ir.traverse import contains_parallel, free_vars, fresh_name, rename_vars
from repro.ir.typecheck import TypeError_, typeof, typeof1
from repro.ir.types import ArrayType, Type, array_of
from repro.request import MODES
from repro.sizes import size_prod

__all__ = ["Flattener", "FlattenError", "MODES"]


class FlattenError(Exception):
    """Raised on irregular parallelism or unsupported patterns."""


def _is_trivial_map_lam(lam: S.Lambda) -> bool:
    """Is the fused map part an identity (so the SOAC is a plain reduce/scan)?"""
    b = lam.body
    if isinstance(b, S.Var):
        return len(lam.params) == 1 and b.name == lam.params[0]
    if isinstance(b, S.TupleExp):
        return (
            len(b.elems) == len(lam.params)
            and all(
                isinstance(x, S.Var) and x.name == p
                for x, p in zip(b.elems, lam.params)
            )
        )
    return False


class Flattener:
    """Flattens source programs to target programs in one of three modes."""

    def __init__(
        self,
        mode: str = "incremental",
        num_levels: int = 2,
        registry: ThresholdRegistry | None = None,
    ):
        if mode not in MODES:
            raise ValueError(f"unknown flattening mode {mode!r}")
        self.mode = mode
        self.num_levels = num_levels
        self.top_level = num_levels - 1
        self.registry = registry if registry is not None else ThresholdRegistry()

    # -- entry point ---------------------------------------------------------

    def flatten(self, body: S.Exp, env: Mapping[str, Type]) -> S.Exp:
        """Flatten a (normalised) program body under its parameter types."""
        return self.flat(EMPTY_CTX, self.top_level, body, dict(env))

    # -- the judgment Σ ⊢_l e ⇒ e' -------------------------------------------

    def flat(self, ctx: Ctx, l: int, e: S.Exp, env: dict[str, Type]) -> S.Exp:
        # G5 (layout): must fire before manifestation since a rearrange has
        # no inner parallelism and would otherwise be caught by G1.
        if isinstance(e, S.Rearrange) and ctx and isinstance(e.arr, S.Var):
            b = ctx.bindings[-1]
            if len(b.params) == 1 and b.params[0] == e.arr.name:
                shifted = (0,) + tuple(d + 1 for d in e.perm)
                return self.flat(
                    Ctx(ctx.bindings[:-1]), l, S.Rearrange(shifted, b.arrays[0]), env
                )

        # G0 / G1: no inner parallelism — identity or manifest the context.
        if not contains_parallel(e):
            if not ctx:
                return e
            return T.SegMap(l, ctx, e)

        if isinstance(e, S.Map):
            return self._flat_map(ctx, l, e, env)
        if isinstance(e, S.Reduce):
            return self._flat_reduce(ctx, l, e, env)
        if isinstance(e, S.Redomap):
            return self._flat_redomap(ctx, l, e, env)
        if isinstance(e, (S.Scan, S.Scanomap)):
            return self._flat_scan(ctx, l, e, env)
        if isinstance(e, S.Let):
            return self._flat_let(ctx, l, e, env)
        if isinstance(e, S.Loop):
            return self._flat_loop(ctx, l, e, env)
        if isinstance(e, S.If):
            return self._flat_if(ctx, l, e, env)
        raise FlattenError(
            f"parallelism in unsupported position: {type(e).__name__} "
            f"(is the program A-normalised?)"
        )

    # -- maps (G2, G3) ---------------------------------------------------------

    def _bind_map(
        self, lam: S.Lambda, arrs: tuple[S.Exp, ...], env: dict[str, Type]
    ) -> tuple[Binding, dict[str, Type]]:
        ats = []
        for a in arrs:
            t = typeof1(a, env)
            if not isinstance(t, ArrayType):
                raise FlattenError(f"mapping over non-array {a!r}")
            ats.append(t)
        binding = Binding(lam.params, arrs, ats[0].outer_size)
        env2 = dict(env)
        env2.update({p: t.row_type() for p, t in zip(lam.params, ats)})
        return binding, env2

    def _flat_map(self, ctx: Ctx, l: int, e: S.Map, env: dict[str, Type]) -> S.Exp:
        binding, env2 = self._bind_map(e.lam, e.arrs, env)
        ctx2 = ctx.extend(binding)
        body = e.lam.body

        if not contains_parallel(body):
            # G2 — route through the dispatcher so layout rules (G5) can
            # still rewrite the body before manifestation
            return self.flat(ctx2, l, body, env2)

        if self.mode != "incremental" or l == 0:
            # moderate/full flattening: always the e_flat choice; at level 0
            # there is no deeper level to version against.
            return self.flat(ctx2, l, body, env2)

        # G3: three versions.
        e_top = T.SegMap(l, ctx2, body)
        e_intra_body = self.flat(EMPTY_CTX, l - 1, body, env2)
        e_middle = T.SegMap(l, ctx2, e_intra_body)
        e_flat = self.flat(ctx2, l, body, env2)
        par_top = ctx2.par()
        par_middle = size_prod([ctx2.par(), max_par(e_intra_body)])
        t_top = self.registry.fresh("suff_outer_par", par_top)
        t_intra = self.registry.fresh("suff_intra_par", par_middle)
        return S.If(
            T.ParCmp(par_top, t_top),
            e_top,
            S.If(T.ParCmp(par_middle, t_intra), e_middle, e_flat),
        )

    # -- reductions (G4, G9, manifest rules) -----------------------------------

    def _try_g4(self, e: S.Reduce, env: dict[str, Type]) -> S.Exp | None:
        """reduce (map op) (replicate k d̄) z̄ ⇒ map (reduce op d̄) (transpose z̄)."""
        k = len(e.arrs)
        lam = e.lam
        if not isinstance(lam.body, S.Map):
            return None
        inner = lam.body
        if len(inner.arrs) != 2 * k or not all(
            isinstance(a, S.Var) and a.name == p
            for a, p in zip(inner.arrs, lam.params)
        ):
            return None
        ds = []
        for ne in e.nes:
            if not isinstance(ne, S.Replicate):
                return None
            ds.append(ne.x)
        elem_t = typeof1(e.arrs[0], env)
        if not isinstance(elem_t, ArrayType) or elem_t.rank < 2:
            return None
        perm = (1, 0) + tuple(range(2, elem_t.rank))
        zs = [fresh_name("z") for _ in range(k)]
        new_lam = S.Lambda(zs, S.Reduce(inner.lam, ds, tuple(S.Var(z) for z in zs)))
        return S.Map(new_lam, tuple(S.Rearrange(perm, a) for a in e.arrs))

    def _flat_reduce(self, ctx: Ctx, l: int, e: S.Reduce, env: dict[str, Type]) -> S.Exp:
        rewritten = self._try_g4(e, env)
        if rewritten is not None:
            return self.flat(ctx, l, rewritten, env)  # G4
        if contains_parallel(e.lam.body):
            # a vector operator outside the G4 pattern: no rule exploits its
            # inner parallelism, so the whole reduce runs sequentially
            # (per-thread under a context, on the host otherwise)
            if ctx:
                return T.SegMap(l, ctx, e)
            return e
        # plain reduce: manifest as segred (trivial fused map part)
        names = [fresh_name("x") for _ in e.arrs]
        lam = S.Lambda(names, S.TupleExp([S.Var(n) for n in names])
                       if len(names) > 1 else S.Var(names[0]))
        rm = S.Redomap(e.lam, lam, e.nes, e.arrs)
        return self._manifest_redomap(ctx, l, rm, env)

    def _manifest_redomap(
        self, ctx: Ctx, l: int, e: S.Redomap, env: dict[str, Type]
    ) -> S.Exp:
        binding, _ = self._bind_map(e.map_lam, e.arrs, env)
        return T.SegRed(l, ctx.extend(binding), e.red_lam, e.nes, e.map_lam.body)

    def _decompose_redomap(self, e: S.Redomap) -> S.Exp:
        """redomap ⊙ f v̄ x̄s  ⇒  let ȳ = map f x̄s in reduce ⊙ v̄ ȳ."""
        n_out = len(e.nes)
        ys = [fresh_name("y") for _ in range(n_out)]
        return S.Let(
            ys,
            S.Map(e.map_lam, e.arrs),
            S.Reduce(e.red_lam, e.nes, tuple(S.Var(y) for y in ys)),
        )

    def _flat_redomap(
        self, ctx: Ctx, l: int, e: S.Redomap, env: dict[str, Type]
    ) -> S.Exp:
        if contains_parallel(e.red_lam.body):
            raise FlattenError("redomap operator with inner parallelism (use G4 form)")
        inner_par = contains_parallel(e.map_lam.body)
        trivial = _is_trivial_map_lam(e.map_lam)

        if self.mode == "moderate":
            if ctx and not trivial:
                # the static heuristic: sequentialise fused redomaps so the
                # enclosing segmap can be tiled (paper §3.1, §5.2)
                return T.SegMap(l, ctx, e)
            if inner_par:
                return self.flat(ctx, l, self._decompose_redomap(e), env)
            return self._manifest_redomap(ctx, l, e, env)

        if self.mode == "full":
            if inner_par:
                return self.flat(ctx, l, self._decompose_redomap(e), env)
            return self._manifest_redomap(ctx, l, e, env)

        # incremental
        if not inner_par:
            return self._manifest_redomap(ctx, l, e, env)  # "not-shown" rule
        if l == 0:
            return self.flat(ctx, l, self._decompose_redomap(e), env)
        # G9: segred version vs. decomposed version
        binding, _ = self._bind_map(e.map_lam, e.arrs, env)
        ctx2 = ctx.extend(binding)
        e_top = T.SegRed(l, ctx2, e.red_lam, e.nes, e.map_lam.body)
        e_rec = self.flat(ctx, l, self._decompose_redomap(e), env)
        par = ctx2.par()
        t_top = self.registry.fresh("suff_outer_par", par)
        return S.If(T.ParCmp(par, t_top), e_top, e_rec)

    # -- scans -------------------------------------------------------------------

    def _flat_scan(
        self, ctx: Ctx, l: int, e: S.Scan | S.Scanomap, env: dict[str, Type]
    ) -> S.Exp:
        if isinstance(e, S.Scan):
            names = [fresh_name("x") for _ in e.arrs]
            body = (
                S.TupleExp([S.Var(n) for n in names])
                if len(names) > 1
                else S.Var(names[0])
            )
            op, map_lam, nes, arrs = e.lam, S.Lambda(names, body), e.nes, e.arrs
        else:
            op, map_lam, nes, arrs = e.scan_lam, e.map_lam, e.nes, e.arrs
        if contains_parallel(op.body):
            raise FlattenError("scan operator with inner parallelism")
        if contains_parallel(map_lam.body):
            # decompose: let ȳ = map f x̄s in scan ⊙ v̄ ȳ
            ys = [fresh_name("y") for _ in range(len(nes))]
            dec = S.Let(
                ys,
                S.Map(map_lam, arrs),
                S.Scan(op, nes, tuple(S.Var(y) for y in ys)),
            )
            return self.flat(ctx, l, dec, env)
        if self.mode == "moderate" and ctx and not _is_trivial_map_lam(map_lam):
            return T.SegMap(l, ctx, e)  # sequentialise fused scanomaps
        binding, _ = self._bind_map(map_lam, arrs, env)
        return T.SegScan(l, ctx.extend(binding), op, nes, map_lam.body)

    # -- let distribution (G6) -----------------------------------------------------

    def _flat_let(self, ctx: Ctx, l: int, e: S.Let, env: dict[str, Type]) -> S.Exp:
        rhs_ts = typeof(e.rhs, env)
        if len(rhs_ts) != len(e.names):
            raise TypeError_("let arity mismatch during flattening")
        env_body = dict(env)
        env_body.update(zip(e.names, rhs_ts))

        if not ctx:
            rhs2 = self.flat(EMPTY_CTX, l, e.rhs, env)
            body2 = self.flat(EMPTY_CTX, l, e.body, env_body)
            return S.Let(e.names, rhs2, body2)

        # distribution premise: rhs result sizes invariant to the context
        dom = ctx.dom()
        for t in rhs_ts:
            if isinstance(t, ArrayType):
                for d in t.shape:
                    if d.free_vars() & dom:
                        raise FlattenError(
                            f"irregular parallelism: size {d} of let-bound array "
                            f"depends on context variable(s) {d.free_vars() & dom}"
                        )

        rhs2 = self.flat(ctx, l, e.rhs, env)

        # array expansion: thread the distributed intermediates through the
        # context, level by level (fresh names at every level but the last,
        # which binds the original names for the body).
        p = len(ctx)
        dims = [b.size for b in ctx.bindings]
        level_names: list[tuple[str, ...]] = []
        for k in range(p - 1):
            level_names.append(tuple(fresh_name(n) for n in e.names))
        level_names.append(e.names)
        top_names = tuple(fresh_name(n) for n in e.names)

        new_bindings = []
        prev = top_names
        for k, b in enumerate(ctx.bindings):
            cur = level_names[k]
            new_bindings.append(
                Binding(
                    b.params + cur,
                    b.arrays + tuple(S.Var(n) for n in prev),
                    b.size,
                )
            )
            prev = cur
        ctx2 = Ctx(new_bindings)

        # types: top names hold the fully expanded arrays
        env2 = dict(env)
        for name, t in zip(top_names, rhs_ts):
            expanded: Type = t
            for d in reversed(dims):
                expanded = array_of(expanded, d)
            env2[name] = expanded
        env2.update(zip(e.names, rhs_ts))

        body2 = self.flat(ctx2, l, e.body, env2)
        return S.Let(top_names, rhs2, body2)

    # -- loop interchange (G7) ---------------------------------------------------

    def _flat_loop(self, ctx: Ctx, l: int, e: S.Loop, env: dict[str, Type]) -> S.Exp:
        if not ctx:
            # flatten the body in an empty context; the loop itself is
            # sequential at this level
            env2 = dict(env)
            for pname, init in zip(e.params, e.inits):
                env2[pname] = typeof1(init, env)
            env2[e.ivar] = typeof1(e.bound, env)
            body2 = self.flat(EMPTY_CTX, l, e.body, env2)
            return S.Loop(e.params, e.inits, e.ivar, e.bound, body2)

        dom = ctx.dom()
        if free_vars(e.bound) & dom:
            # variant trip count: cannot interchange; sequentialise in-thread
            return T.SegMap(l, ctx, e)

        # expanded initialisers: invariant values are replicated across the
        # nest; variant ones are manifested by flattening the initialiser
        # under the context (a copy/compute kernel producing the expanded
        # array — identity cases simplify away later)
        new_inits: list[S.Exp] = []
        for init in e.inits:
            if not (free_vars(init) & dom):
                x: S.Exp = init
                for b in reversed(ctx.bindings):
                    x = S.Replicate(S.SizeE(b.size), x)
                new_inits.append(x)
                continue
            if isinstance(init, S.Var):
                full = resolve_full_array(init.name, ctx)
                if full is not None:
                    new_inits.append(full)
                    continue
            if contains_parallel(init):
                raise FlattenError(
                    f"parallel loop initialiser {init!r} under a map nest"
                )
            new_inits.append(T.SegMap(l, ctx, init))

        # fresh loop parameters holding the expanded state
        new_params = tuple(fresh_name(p) for p in e.params)
        init_ts = [typeof1(i, env) for i in new_inits]

        # rebuild the map nest over the context plus the loop state
        row_names = tuple(fresh_name(p) for p in e.params)
        body = rename_vars(e.body, dict(zip(e.params, row_names)))

        def build_nest(k: int, state_arrays: tuple[S.Exp, ...]) -> S.Exp:
            b = ctx.bindings[k]
            if k == len(ctx.bindings) - 1:
                lam = S.Lambda(b.params + row_names, body)
                return S.Map(lam, b.arrays + state_arrays)
            mids = tuple(fresh_name(p) for p in e.params)
            inner = build_nest(k + 1, tuple(S.Var(m) for m in mids))
            lam = S.Lambda(b.params + mids, inner)
            return S.Map(lam, b.arrays + state_arrays)

        nest = build_nest(0, tuple(S.Var(p) for p in new_params))

        env2 = dict(env)
        env2.update(zip(new_params, init_ts))
        env2[e.ivar] = typeof1(e.bound, env)
        flat_body = self.flat(EMPTY_CTX, l, nest, env2)
        return S.Loop(new_params, tuple(new_inits), e.ivar, e.bound, flat_body)

    # -- if distribution (G8) -------------------------------------------------------

    def _flat_if(self, ctx: Ctx, l: int, e: S.If, env: dict[str, Type]) -> S.Exp:
        if not ctx:
            return S.If(
                e.cond,
                self.flat(EMPTY_CTX, l, e.then, env),
                self.flat(EMPTY_CTX, l, e.els, env),
            )
        if free_vars(e.cond) & ctx.dom():
            # divergent condition: keep the whole conditional in-thread
            return T.SegMap(l, ctx, e)
        ctx2, b = ctx.pop()
        then2 = self.flat(ctx2, l, S.Map(S.Lambda(b.params, e.then), b.arrays), env)
        els2 = self.flat(ctx2, l, S.Map(S.Lambda(b.params, e.els), b.arrays), env)
        return S.If(e.cond, then2, els2)
