"""Vectorizing executor: bit-parity with the oracle, fallbacks, plumbing.

The heavy parity proof lives in ``tests/check/test_differential.py`` (every
forced path of every benchmark now runs under *both* engines).  These tests
cover the engine directly: construct-level parity, the masked lowerings
that replace the per-lane fallback, the per-construct scalar fallback that
remains (and its counters), engine selection, and error surfaces.  The
masked lowerings' full case list is in ``test_codegen_engine.py``, which
runs it on both batched engines.
"""

import numpy as np
import pytest

from repro import perf
from repro.compiler import compile_program
from repro.config import Config
from repro.exec import VectorEvaluator
from repro.interp import Evaluator, InterpError, run_program
from repro.ir import source as S
from repro.ir.builder import (
    f32,
    i64,
    if_,
    intrinsic,
    iota,
    loop_,
    map_,
    reduce_,
    replicate,
    scan_,
    v,
)

SCALAR = Evaluator()


def both(e, **env):
    """Evaluate under both engines and assert bit-identical results."""
    ref = SCALAR.eval(e, env)
    got = VectorEvaluator().eval(e, env)
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        ra, ga = np.asarray(r), np.asarray(g)
        assert ra.shape == ga.shape, (ra.shape, ga.shape)
        assert ra.dtype == ga.dtype, (ra.dtype, ga.dtype)
        assert ra.tobytes() == ga.tobytes()
    return got


def arr(xs, dtype=np.float32):
    return np.asarray(xs, dtype=dtype)


class TestConstructParity:
    def test_map_binop(self):
        both(map_(lambda x: x * 2.0 + 1.0, v("xs")), xs=arr([1, 2, 3]))

    def test_map_multi_input_output(self):
        both(
            map_(lambda x, y: (x + y, x - y), v("xs"), v("ys")),
            xs=arr([1, 2]),
            ys=arr([10, 20]),
        )

    def test_nested_map(self):
        both(
            map_(lambda row: map_(lambda x: x * x, row), v("xss")),
            xss=arr([[1, 2], [3, 4]]),
        )

    def test_map_free_var(self):
        both(map_(lambda x: x + v("c"), v("xs")), xs=arr([1, 2]), c=np.float32(5))

    def test_reduce_fold_order(self):
        # f32 addition is non-associative: bit-parity requires the vector
        # engine to keep the oracle's left-to-right fold order.
        rng = np.random.default_rng(3)
        xs = rng.standard_normal(257).astype(np.float32)
        both(reduce_(lambda a, b: a + b, f32(0.0), v("xs")), xs=xs)

    def test_scan(self):
        both(scan_(lambda a, b: a + b, f32(0.0), v("xs")), xs=arr([1, 2, 3, 4]))

    def test_batched_reduce_rows(self):
        both(
            map_(lambda row: reduce_(lambda a, b: a + b, f32(0.0), row), v("xss")),
            xss=arr([[1.5, 2.5], [3.5, 4.5], [5.5, 6.5]]),
        )

    def test_total_if_vectorizes(self):
        e = map_(lambda x: if_(S.BinOp(">", x, f32(0.0)), x * 2.0, x - 1.0), v("xs"))
        ev = VectorEvaluator()
        ref = SCALAR.eval(e, {"xs": arr([-1, 0, 1, 2])})
        got = ev.eval(e, {"xs": arr([-1, 0, 1, 2])})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert ev.scalar_fallbacks == 0

    def test_if_uniform_cond(self):
        both(
            map_(lambda x: if_(v("flag"), x, x * 3.0), v("xs")),
            xs=arr([1, 2]),
            flag=np.bool_(True),
        )

    def test_min_max_parity(self):
        # min/max must match Python's min/max tie behavior (e.g. -0.0 vs 0.0).
        xs = arr([0.0, -0.0, 1.0, np.nan])
        ys = arr([-0.0, 0.0, np.nan, 1.0])
        both(map_(lambda x, y: S.BinOp("min", x, y), v("xs"), v("ys")), xs=xs, ys=ys)
        both(map_(lambda x, y: S.BinOp("max", x, y), v("xs"), v("ys")), xs=xs, ys=ys)

    def test_int_division(self):
        both(
            map_(lambda x: x / i64(2), v("xs")),
            xs=np.asarray([-7, -1, 1, 7], dtype=np.int64),
        )

    def test_index_gather(self):
        both(
            map_(lambda i: v("xs")[i], v("idx")),
            xs=arr([10, 20, 30]),
            idx=np.asarray([2, 0, 1, 1], dtype=np.int64),
        )

    def test_loop(self):
        e = map_(
            lambda x: loop_(x, i64(3), lambda _i, acc: acc * 2.0),
            v("xs"),
        )
        both(e, xs=arr([1, 2]))

    def test_iota_replicate(self):
        both(map_(lambda x: reduce_(lambda a, b: a + b, i64(0), iota(i64(4))) + x,
                  v("xs")),
             xs=np.asarray([1, 2], dtype=np.int64))
        both(replicate(i64(3), v("c")), c=np.float32(2.5))


class TestFallbacks:
    def test_nontotal_if_is_masked(self):
        # ``pow`` is excluded from the totality whitelist (negative integer
        # exponents raise), so a batched non-total ``if`` runs each branch
        # on its own lanes only — masked, not per lane.
        e = map_(
            lambda x: if_(S.BinOp(">", x, i64(0)), S.BinOp("pow", i64(2), x), i64(0)),
            v("xs"),
        )
        ev = VectorEvaluator()
        before = perf.counters().get("exec.masked_if", 0)
        ref = SCALAR.eval(e, {"xs": np.asarray([-1, 2, 3], dtype=np.int64)})
        got = ev.eval(e, {"xs": np.asarray([-1, 2, 3], dtype=np.int64)})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert ev.scalar_fallbacks == 0
        assert ev.masked_ifs > 0
        assert perf.counters().get("exec.masked_if", 0) > before

    def test_batched_intrinsic_lowered(self):
        import repro.bench.references  # noqa: F401  (registers thomas_tridag)

        rng = np.random.default_rng(0)
        xss = rng.standard_normal((3, 8)).astype(np.float32)
        e = map_(lambda row: intrinsic("thomas_tridag", row), v("xss"))
        ev = VectorEvaluator()
        before = perf.counters().get("exec.intrinsic", 0)
        ref = SCALAR.eval(e, {"xss": xss})
        got = ev.eval(e, {"xss": xss})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert ev.scalar_fallbacks == 0
        assert perf.counters().get("exec.intrinsic", 0) > before

    def test_batched_intrinsic_falls_back(self, monkeypatch):
        # an intrinsic registered without a ``vector`` lowering still runs
        # once per lane through the oracle when an argument is batched
        from repro.interp import intrinsics

        monkeypatch.setitem(intrinsics.INTRINSICS, "_test_triple", intrinsics.IntrinsicDef(
            name="_test_triple",
            type_rule=lambda ts: ts,
            interp=lambda x: x * np.float32(3.0),
            cost=lambda avals, sizes: (1.0, 0.0, 0.0),
        ))
        e = map_(lambda x: intrinsic("_test_triple", x), v("xs"))
        xs = arr([1.5, -2.0, 0.1])
        ev = VectorEvaluator()
        ref = SCALAR.eval(e, {"xs": xs})
        got = ev.eval(e, {"xs": xs})
        ra, ga = np.asarray(ref[0]), np.asarray(got[0])
        assert ra.dtype == ga.dtype and ra.tobytes() == ga.tobytes()
        assert ev.fallback_counts["intrinsic:_test_triple"] > 0

    def test_batched_iota_falls_back(self):
        e = map_(lambda n: reduce_(lambda a, b: a + b, i64(0), iota(n)), v("ns"))
        ev = VectorEvaluator()
        ns = np.asarray([1, 3, 5], dtype=np.int64)
        ref = SCALAR.eval(e, {"ns": ns})
        got = ev.eval(e, {"ns": ns})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert ev.fallback_counts["iota"] > 0

    def test_fallback_counter_flushed_to_perf(self):
        e = map_(lambda n: reduce_(lambda a, b: a + b, i64(0), iota(n)), v("ns"))
        before = perf.counters().get("exec.scalar_fallbacks", 0)
        VectorEvaluator().eval(e, {"ns": np.asarray([1, 2], dtype=np.int64)})
        after = perf.counters().get("exec.scalar_fallbacks", 0)
        assert after > before


class TestPlumbing:
    def test_run_program_engine_parity(self):
        from repro.bench.programs.matmul import matmul_program

        prog = matmul_program()
        rng = np.random.default_rng(1)
        inputs = {
            "xss": rng.standard_normal((6, 4)).astype(np.float32),
            "yss": rng.standard_normal((4, 6)).astype(np.float32),
        }
        ref = run_program(prog, inputs, engine="scalar")
        got = run_program(prog, inputs, engine="vector")
        for r, g in zip(ref, got):
            assert np.asarray(r).tobytes() == np.asarray(g).tobytes()

    def test_run_program_unknown_engine(self):
        from repro.bench.programs.matmul import matmul_program

        prog = matmul_program()
        with pytest.raises(ValueError, match="unknown engine"):
            run_program(prog, {"xss": arr([[1.0]]), "yss": arr([[1.0]])},
                        engine="turbo")

    def test_default_engine_env(self, configure):
        from repro.bench.programs.matmul import matmul_program

        assert Config.from_env({}).engine == "scalar"
        assert Config.from_env({"REPRO_EXEC": "vector"}).engine == "vector"
        configure(engine="vector")
        before = perf.counters().get("exec.vector_ops", 0)
        run_program(matmul_program(), {"xss": arr([[1.0]]), "yss": arr([[1.0]])})
        assert perf.counters().get("exec.vector_ops", 0) > before

    def test_compiled_program_run_engine(self):
        from repro.bench.programs.matmul import matmul_program

        cp = compile_program(matmul_program(), "incremental")
        rng = np.random.default_rng(2)
        inputs = {
            "xss": rng.standard_normal((5, 3)).astype(np.float32),
            "yss": rng.standard_normal((3, 5)).astype(np.float32),
        }
        ref = cp.run(inputs, engine="scalar")
        got = cp.run(inputs, engine="vector")
        for r, g in zip(ref, got):
            assert np.asarray(r).tobytes() == np.asarray(g).tobytes()

    def test_kernel_compile_reused_across_launches(self):
        ev = VectorEvaluator()
        e = map_(lambda x: x + 1.0, v("xs"))
        ev.eval(e, {"xs": arr([1, 2])})
        compiled = ev.compiled_kernels
        ev.eval(e, {"xs": arr([3, 4, 5])})
        assert ev.compiled_kernels == compiled  # second launch: cache hit

    def test_thresholds_shared_with_scalar_fallback(self):
        # The embedded scalar evaluator must see threshold updates made
        # after construction (the differential harness mutates them
        # between forced paths).
        ev = VectorEvaluator(thresholds={"t0": 1})
        ev.thresholds["t0"] = 99
        assert ev.scalar.thresholds["t0"] == 99

    def test_empty_map_raises(self):
        with pytest.raises(InterpError, match="empty"):
            VectorEvaluator().eval(
                map_(lambda x: x + 1.0, v("xs")), {"xs": arr([])}
            )

    def test_unbound_variable(self):
        with pytest.raises(InterpError, match="unbound"):
            VectorEvaluator().eval(v("nope"), {})


class TestObs:
    def test_kernel_spans_emitted(self):
        from repro import obs

        e = map_(lambda x: x * 2.0, v("xs"))
        with obs.tracing() as tracer:
            VectorEvaluator().eval(e, {"xs": arr([1, 2, 3])})
        names = {s.name for s in tracer.spans}
        assert "exec.kernel" in names

    def test_fallback_spans_annotated(self):
        from repro import obs

        e = map_(lambda n: reduce_(lambda a, b: a + b, i64(0), iota(n)), v("ns"))
        with obs.tracing() as tracer:
            VectorEvaluator().eval(e, {"ns": np.asarray([1, 2], dtype=np.int64)})
        fb = [s for s in tracer.spans if s.name == "exec.fallback"]
        assert fb and all(s.args.get("fallback") for s in fb)
