"""Property-based generation of nested-parallel programs.

Programs are described by JSON-serialisable **recipes** — small trees over
a fixed grammar of nested maps, reductions, scans, loops and conditionals —
rather than raw ASTs.  That buys three things: generated programs are
well-typed by construction, failing examples can be checked into
``tests/corpus/`` and replayed verbatim, and shrinking is a tree transform
over recipes instead of an AST surgery problem.

Every generated program has the parameters ``xss : [n][m]f32`` and
``ys : [m]f32`` and returns one value.  The grammar deliberately spans all
the flattening rules: nested maps with parallel bodies (G3), the vector
operator reduce pattern (G4), multi-use lets that defeat fusion (G6),
loops with context-variant initialisers (G7), size-invariant conditionals
inside maps (G8), and fused redomaps/scanomaps (fusion + G9).

Entry points: :func:`random_recipe` (seeded RNG), :func:`recipes`
(a hypothesis strategy over the same grammar), :func:`build_program`
(recipe → IR program + datasets), and :func:`shrink_recipe` (greedy
minimisation against a failure predicate).
"""

from __future__ import annotations

import random
from typing import Callable

from repro.ir import source as S
from repro.ir.builder import (
    Program,
    f32,
    i64,
    if_,
    intrinsic,
    iota,
    lam,
    let_,
    loop_,
    map_,
    max_,
    min_,
    op2,
    reduce_,
    scan_,
    size_e,
    to_f32,
    to_i64,
    transpose,
    v,
)
from repro.ir.types import F32, array_of
from repro.sizes import SizeVar

__all__ = [
    "build_program",
    "recipe_datasets",
    "random_recipe",
    "recipes",
    "shrink_recipe",
]

#: Reduction/scan operators and workable (not necessarily neutral — the
#: differential executor compares identical folds on both sides) initial
#: accumulator values.
_OPS: dict[str, float] = {"+": 0.0, "*": 1.0, "max": -1.0e9, "min": 1.0e9}

#: Scalar function atoms: name -> expression builder.
_FN_ATOMS: dict[str, Callable[[S.Exp], S.Exp]] = {
    "sq": lambda x: x * x,
    "addc": lambda x: x + f32(0.25),
    "mulc": lambda x: x * f32(1.5),
    "sab": lambda x: S.UnOp("sqrt", S.UnOp("abs", x)),
    "mx0": lambda x: S.BinOp("max", x, f32(0.0)),
    "neg": lambda x: -x,
}


def _apply_fn(fn: list[str], x: S.Exp) -> S.Exp:
    for atom in fn:
        x = _FN_ATOMS[atom](x)
    return x


def _fn_lambda(fn: list[str]) -> S.Lambda:
    return lam(lambda x: _apply_fn(fn, x))


# ---------------------------------------------------------------------------
# Recipe → IR
#
# Dimensions are tracked symbolically as the size-variable names "n"/"m":
# a MAT recipe carries dims (d1, d2); a VEC built under a row of a MAT has
# length d2.  ``ys`` is only available for vectors of length "m".
# ---------------------------------------------------------------------------


def _build_mat(r: dict) -> tuple[S.Exp, tuple[str, str]]:
    k = r["k"]
    if k == "xss":
        return v("xss"), ("n", "m")
    if k == "t":
        src, (d1, d2) = _build_mat(r["src"])
        return transpose(src), (d2, d1)
    if k == "maprows":
        src, dims = _build_mat(r["src"])
        return map_(lambda row: _build_vec(r["row"], row, dims[1]), src), dims
    if k == "matloop":
        src, dims = _build_mat(r["src"])
        return (
            loop_(
                src,
                i64(r["steps"]),
                lambda i, state: map_(
                    lambda row: _build_vec(r["row"], row, dims[1]), state
                ),
            ),
            dims,
        )
    raise ValueError(f"unknown MAT recipe kind {k!r}")


def _build_vec(r: dict, row: S.Exp, length: str) -> S.Exp:
    k = r["k"]
    if k == "r":
        return row
    if k == "ys":
        if length != "m":
            raise ValueError("ys has length m, not " + length)
        return v("ys")
    if k == "iota":
        return map_(lambda i: to_f32(i), iota(size_e(length)))
    if k == "vmap":
        return map_(_fn_lambda(r["f"]), _build_vec(r["src"], row, length))
    if k == "scan":
        return scan_(op2(r["op"]), [f32(_OPS[r["op"]])], _build_vec(r["src"], row, length))
    if k == "scanmap":
        src = _build_vec(r["src"], row, length)
        return let_(
            map_(_fn_lambda(r["f"]), src),
            lambda t: scan_(op2(r["op"]), [f32(_OPS[r["op"]])], t),
        )
    if k == "share":
        # fan-out: one map producer consumed by two further maps — the
        # greedy pass is blocked (two uses), the ILP pass fuses both
        src = _build_vec(r["src"], row, length)
        return let_(
            map_(_fn_lambda(r["f"]), src),
            lambda t: map_(
                op2(r["op"]),
                map_(_fn_lambda(r["g"]), t),
                map_(_fn_lambda(r["h"]), t),
            ),
        )
    if k == "zip":
        a = _build_vec(r["a"], row, length)
        b = _build_vec(r["b"], row, length)
        return map_(op2(r["op"]), a, b)
    if k == "vloop":
        src = _build_vec(r["src"], row, length)
        fn = r["f"]
        return loop_(
            src, i64(r["steps"]), lambda i, state: map_(_fn_lambda(fn), state)
        )
    if k == "vif":
        a, cmp_, b = r["cmp"]
        cond = S.BinOp(cmp_, size_e(a), size_e(b) if isinstance(b, str) else i64(b))
        return if_(
            cond,
            _build_vec(r["then"], row, length),
            _build_vec(r["else"], row, length),
        )
    if k == "dif":
        # data-dependent condition: batched under the enclosing map, so
        # with non-total branches this is exactly the batched engines'
        # masked two-sided ``if`` lowering
        cond = S.BinOp(r["cmp"], row[i64(0)], f32(0.5))
        return if_(
            cond,
            _build_vec(r["then"], row, length),
            _build_vec(r["else"], row, length),
        )
    if k == "dloop":
        # data-dependent trip count (1..4): a batched-bound loop — the
        # batched engines' max-trip masked iteration
        src = _build_vec(r["src"], row, length)
        fn = r["f"]
        bound = to_i64(S.BinOp("min", S.UnOp("abs", row[i64(0)]), f32(3.0))) + i64(1)
        return loop_(src, bound, lambda i, state: map_(_fn_lambda(fn), state))
    if k == "stencil":
        # clamped neighbour gathers, like Pathfinder's cur[max(j-1,0)] /
        # cur[min(j+1,len-1)]: inside the enclosing map the batched engines
        # read the row by reference, through a lane -> row index
        src = _build_vec(r["src"], row, length)
        last = size_e(length) - 1
        return let_(src, lambda s: map_(
            lambda j: S.BinOp(r["op"], s[max_(j - 1, 0)], s[min_(j + 1, last)]),
            iota(size_e(length)),
        ))
    if k == "pick":
        # the row read at a constant index inside a nested map: the form
        # the batched engines keep lane-expanded
        src = _build_vec(r["src"], row, length)
        return let_(src, lambda s: map_(
            lambda x: _apply_fn(r["f"], x) * s[i64(0)], s
        ))
    if k == "vintr":
        # batched-argument intrinsic: the batched engines' whole-batch
        # registered lowering
        import repro.bench.references  # noqa: F401  (registers thomas_tridag)

        return intrinsic("thomas_tridag", _build_vec(r["src"], row, length))
    raise ValueError(f"unknown VEC recipe kind {k!r}")


def _build_scalar(r: dict, row: S.Exp, length: str) -> S.Exp:
    k = r["k"]
    if k == "sum":
        src = _build_vec(r["src"], row, length)
        return let_(
            map_(_fn_lambda(r["f"]), src),
            lambda t: reduce_(op2(r["op"]), [f32(_OPS[r["op"]])], t),
        )
    if k == "red":
        return reduce_(
            op2(r["op"]), [f32(_OPS[r["op"]])], _build_vec(r["src"], row, length)
        )
    if k == "dot":
        a = _build_vec(r["a"], row, length)
        b = _build_vec(r["b"], row, length)
        return let_(
            map_(lam(lambda x, y: x * y), a, b),
            lambda t: reduce_(op2("+"), [f32(0.0)], t),
        )
    if k == "first":
        return _build_vec(r["src"], row, length)[i64(0)]
    if k == "fansum":
        # fan-out into two reductions: a producer with two consumers that
        # only global (ILP) fusion can eliminate
        src = _build_vec(r["src"], row, length)
        return let_(
            map_(_fn_lambda(r["f"]), src),
            lambda t: S.BinOp(
                r["bop"],
                reduce_(op2(r["op1"]), [f32(_OPS[r["op1"]])], t),
                reduce_(op2(r["op2"]), [f32(_OPS[r["op2"]])], t),
            ),
        )
    if k == "sbin":
        return S.BinOp(
            r["op"],
            _build_scalar(r["a"], row, length),
            _build_scalar(r["b"], row, length),
        )
    raise ValueError(f"unknown SCALAR recipe kind {k!r}")


def _build_top(r: dict) -> S.Exp:
    k = r["k"]
    if k == "mat":
        return _build_mat(r["e"])[0]
    if k == "rowsum":
        src, dims = _build_mat(r["src"])
        return map_(lambda row: _build_scalar(r["s"], row, dims[1]), src)
    if k == "total":
        src, dims = _build_mat(r["src"])
        return let_(
            map_(lambda row: _build_scalar(r["s"], row, dims[1]), src),
            lambda t: reduce_(op2(r["op"]), [f32(_OPS[r["op"]])], t),
        )
    if k == "colred":
        # G4's vector-operator pattern:
        #   reduce (map op) (replicate d2 ne) src
        src, dims = _build_mat(r["src"])
        op = r["op"]
        return reduce_(
            lam(lambda a, b: map_(op2(op), a, b)),
            [S.Replicate(size_e(dims[1]), f32(_OPS[op]))],
            src,
        )
    raise ValueError(f"unknown TOP recipe kind {k!r}")


def build_program(recipe: dict, name: str = "gen") -> Program:
    """Materialise a recipe as a typed IR program."""
    n, m = SizeVar("n"), SizeVar("m")
    body = _build_top(recipe["body"])
    prog = Program(
        name,
        [("xss", array_of(F32, n, m)), ("ys", array_of(F32, m))],
        body,
    )
    prog.check()
    return prog


def recipe_datasets(recipe: dict) -> tuple[dict[str, int], ...]:
    """The recipe's own sizes plus a second, reshaped dataset."""
    sizes = dict(recipe["sizes"])
    alt = {"n": sizes["m"] + 1, "m": sizes["n"] + 1}
    return (sizes, alt)


# ---------------------------------------------------------------------------
# Random generation.  All drawing goes through a tiny ``draw(options)``
# callback so the same grammar serves both the seeded-RNG generator and the
# hypothesis strategy.
# ---------------------------------------------------------------------------

Draw = Callable[[str, list], object]

#: Recipe styles: per-sort option lists with weights (repetition = weight).
#: ``"fusion"`` biases generation toward fusable producer/consumer chains
#: — map∘map compositions, map+reduce/scan pairs, fan-out producers —
#: the shapes the ILP fusion pass must preserve bit-identically.  Its
#: ``stencil`` and ``pick`` reads make the batched engines bind the
#: enclosing row by reference and by copy, and a ``sum`` over a
#: ``stencil`` fuses into a fold over ``iota`` whose body reads that row:
#: a fold over a uniform array inside a batch, which steps its body.
RECIPE_STYLES = ("default", "fusion")

_VEC_KINDS = {
    "default": ["vmap", "scan", "scanmap", "zip", "vloop", "vif",
                "dif", "dif", "dloop", "dloop", "vintr", "share",
                "stencil", "pick", "leaf"],
    "fusion": ["vmap", "vmap", "vmap", "scanmap", "scanmap",
               "share", "share", "zip", "scan", "stencil", "stencil", "pick",
               "leaf"],
}

_SCALAR_KINDS = {
    "default": ["sum", "red", "dot", "first", "sbin", "fansum"],
    "fusion": ["sum", "sum", "dot", "fansum", "fansum", "red", "sbin"],
}

_TOP_KINDS = {
    "default": ["mat", "rowsum", "rowsum", "total", "colred"],
    "fusion": ["rowsum", "total", "total", "mat"],
}


def _gen_fn(draw: Draw) -> list[str]:
    atoms = sorted(_FN_ATOMS)
    k = draw("fn-arity", [1, 1, 2])
    return [draw(f"fn-atom{i}", atoms) for i in range(k)]


def _gen_vec(draw: Draw, depth: int, length: str, style: str = "default") -> dict:
    leaves = ["r", "iota"] + (["ys"] if length == "m" else [])
    if depth <= 0:
        return {"k": draw("vec-leaf", leaves)}
    kind = draw("vec-kind", _VEC_KINDS[style])
    if kind == "leaf":
        return {"k": draw("vec-leaf", leaves)}
    if kind == "share":
        return {
            "k": "share",
            "op": draw("op", sorted(_OPS)),
            "f": _gen_fn(draw),
            "g": _gen_fn(draw),
            "h": _gen_fn(draw),
            "src": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "vmap":
        return {"k": "vmap", "f": _gen_fn(draw),
                "src": _gen_vec(draw, depth - 1, length, style)}
    if kind == "scan":
        return {
            "k": "scan",
            "op": draw("op", sorted(_OPS)),
            "src": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "scanmap":
        return {
            "k": "scanmap",
            "op": draw("op", sorted(_OPS)),
            "f": _gen_fn(draw),
            "src": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "zip":
        return {
            "k": "zip",
            "op": draw("op", sorted(_OPS)),
            "a": _gen_vec(draw, depth - 1, length, style),
            "b": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "vloop":
        return {
            "k": "vloop",
            "steps": draw("steps", [1, 2, 3]),
            "f": _gen_fn(draw),
            "src": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "dif":
        return {
            "k": "dif",
            "cmp": draw("dif-cmp", ["<", "<=", ">"]),
            "then": _gen_vec(draw, depth - 1, length, style),
            "else": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "dloop":
        return {
            "k": "dloop",
            "f": _gen_fn(draw),
            "src": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "vintr":
        return {"k": "vintr", "src": _gen_vec(draw, depth - 1, length, style)}
    if kind == "stencil":
        return {"k": "stencil", "op": draw("op", sorted(_OPS)),
                "src": _gen_vec(draw, depth - 1, length, style)}
    if kind == "pick":
        return {"k": "pick", "f": _gen_fn(draw),
                "src": _gen_vec(draw, depth - 1, length, style)}
    return {
        "k": "vif",
        "cmp": [draw("cmp-lhs", ["n", "m"]), draw("cmp-op", ["<=", "<", ">"]),
                draw("cmp-rhs", ["n", "m", 2, 3])],
        "then": _gen_vec(draw, depth - 1, length, style),
        "else": _gen_vec(draw, depth - 1, length, style),
    }


def _gen_scalar(draw: Draw, depth: int, length: str, style: str = "default") -> dict:
    kind = draw("scalar-kind", _SCALAR_KINDS[style])
    if kind == "sum":
        return {
            "k": "sum",
            "op": draw("op", sorted(_OPS)),
            "f": _gen_fn(draw),
            "src": _gen_vec(draw, depth - 1, length, style),
        }
    if kind == "red":
        return {"k": "red", "op": draw("op", sorted(_OPS)),
                "src": _gen_vec(draw, depth - 1, length, style)}
    if kind == "dot":
        return {"k": "dot", "a": _gen_vec(draw, depth - 1, length, style),
                "b": _gen_vec(draw, depth - 1, length, style)}
    if kind == "first":
        return {"k": "first", "src": _gen_vec(draw, depth - 1, length, style)}
    if kind == "fansum":
        return {
            "k": "fansum",
            "bop": draw("op", sorted(_OPS)),
            "op1": draw("op", sorted(_OPS)),
            "op2": draw("op", sorted(_OPS)),
            "f": _gen_fn(draw),
            "src": _gen_vec(draw, depth - 1, length, style),
        }
    if depth <= 0:
        return {"k": "red", "op": "+", "src": {"k": "r"}}
    return {
        "k": "sbin",
        "op": draw("op", sorted(_OPS)),
        "a": _gen_scalar(draw, depth - 1, length, style),
        "b": _gen_scalar(draw, depth - 1, length, style),
    }


def _gen_mat(draw: Draw, depth: int, style: str = "default") -> tuple[dict, tuple[str, str]]:
    src: dict = {"k": "xss"}
    dims = ("n", "m")
    if draw("transpose", [False, False, True]):
        src = {"k": "t", "src": src}
        dims = ("m", "n")
    for _ in range(draw("mat-wrappers", [0, 1, 1, 2])):
        kind = draw("mat-kind", ["maprows", "matloop"])
        if kind == "maprows":
            src = {"k": "maprows", "row": _gen_vec(draw, depth, dims[1], style),
                   "src": src}
        else:
            src = {
                "k": "matloop",
                "steps": draw("steps", [1, 2]),
                "row": _gen_vec(draw, depth - 1, dims[1], style),
                "src": src,
            }
    return src, dims


def _gen_top(draw: Draw, depth: int, style: str = "default") -> dict:
    mat, dims = _gen_mat(draw, depth, style)
    kind = draw("top-kind", _TOP_KINDS[style])
    if kind == "mat":
        return {"k": "mat", "e": mat}
    if kind == "rowsum":
        return {"k": "rowsum", "s": _gen_scalar(draw, depth, dims[1], style),
                "src": mat}
    if kind == "total":
        return {"k": "total", "op": draw("op", sorted(_OPS)),
                "s": _gen_scalar(draw, depth, dims[1], style), "src": mat}
    return {"k": "colred", "op": draw("op", sorted(_OPS)), "src": mat}


def _gen_recipe(draw: Draw, max_depth: int, style: str = "default") -> dict:
    if style not in RECIPE_STYLES:
        raise ValueError(
            f"unknown recipe style {style!r} (expected one of {RECIPE_STYLES})"
        )
    return {
        "sizes": {"n": draw("n", [1, 2, 3, 4]), "m": draw("m", [1, 2, 3, 4])},
        "body": _gen_top(draw, draw("depth", list(range(1, max_depth + 1))), style),
    }


def random_recipe(
    rng: random.Random, *, max_depth: int = 3, style: str = "default"
) -> dict:
    """A random program recipe drawn with a seeded ``random.Random``."""

    def draw(_label: str, options: list):
        return options[rng.randrange(len(options))]

    return _gen_recipe(draw, max_depth, style)


def recipes(max_depth: int = 3, style: str = "default"):
    """A hypothesis strategy over the same recipe grammar.

    Imported lazily so the production package works without hypothesis
    installed; tests (which declare it as a dependency) get real strategies
    with hypothesis-driven shrinking on top of :func:`shrink_recipe`.
    """
    from hypothesis import strategies as st

    @st.composite
    def _recipes(draw_fn):
        def draw(label: str, options: list):
            return draw_fn(st.sampled_from(options), label=label)

        return _gen_recipe(draw, max_depth, style)

    return _recipes()


# ---------------------------------------------------------------------------
# Shrinking: greedy replacement of subtrees with simpler ones, repeated
# while the failure predicate keeps holding.
# ---------------------------------------------------------------------------

_CHILD_KEYS = ("src", "a", "b", "row", "s", "e", "then", "else")


def _simpler_variants(node: dict) -> list[dict]:
    """Candidate one-step simplifications of a recipe node (same sort)."""
    out: list[dict] = []
    k = node.get("k")
    # unwrap: replace a wrapper with its payload of the same sort
    if k in ("vmap", "scan", "scanmap", "vloop"):
        out.append(node["src"])
    if k == "t":
        out.append(node["src"])
    if k in ("maprows", "matloop"):
        out.append(node["src"])
    if k == "zip":
        out.extend([node["a"], node["b"]])
    if k in ("vif", "dif"):
        out.extend([node["then"], node["else"]])
    if k in ("dloop", "vintr", "stencil", "pick"):
        out.append(node["src"])
    if k == "share":
        out.append(node["src"])
        out.append({"k": "vmap", "f": node["f"], "src": node["src"]})
    if k == "sbin":
        out.extend([node["a"], node["b"]])
    if k == "fansum":
        out.append({"k": "red", "op": node["op1"], "src": node["src"]})
        out.append({"k": "sum", "op": node["op1"], "f": node["f"],
                    "src": node["src"]})
    # atomic fallbacks
    if k in ("vmap", "scan", "scanmap", "zip", "vloop", "vif", "dif",
             "dloop", "vintr", "share", "stencil", "pick", "ys", "iota"):
        out.append({"k": "r"})
    if k in ("sum", "dot", "sbin", "first", "fansum"):
        out.append({"k": "red", "op": "+", "src": {"k": "r"}})
    # parameter shrinks
    if "steps" in node and node["steps"] > 1:
        out.append({**node, "steps": 1})
    if "f" in node and isinstance(node["f"], list) and len(node["f"]) > 1:
        out.append({**node, "f": node["f"][:1]})
    return out


def _rewrites(recipe: dict) -> list[dict]:
    """All recipes obtained by simplifying exactly one node."""
    out: list[dict] = []

    def at(node, replace: Callable[[dict], dict]):
        if not isinstance(node, dict):
            return
        for variant in _simpler_variants(node):
            out.append(replace(variant))
        for key in _CHILD_KEYS:
            child = node.get(key)
            if isinstance(child, dict):
                at(child, lambda new, _k=key, _n=node: replace({**_n, _k: new}))

    body = recipe["body"]
    at(body, lambda new: {**recipe, "body": new})
    # size shrinks
    for dim in ("n", "m"):
        if recipe["sizes"][dim] > 1:
            out.append(
                {**recipe, "sizes": {**recipe["sizes"], dim: recipe["sizes"][dim] - 1}}
            )
    return out


def shrink_recipe(
    recipe: dict, still_fails: Callable[[dict], bool], *, max_steps: int = 400
) -> dict:
    """Greedily minimise a failing recipe while ``still_fails`` holds."""
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _rewrites(recipe):
            steps += 1
            if steps >= max_steps:
                break
            try:
                if still_fails(candidate):
                    recipe = candidate
                    improved = True
                    break
            except Exception:  # noqa: BLE001 - an invalid shrink is just skipped
                continue
    return recipe
