"""Codegen executor: emitted kernels, masked lowerings, plumbing.

The heavy parity proof lives in ``tests/check/test_differential.py`` (every
forced path of every benchmark runs under all three engines).  These tests
cover the engine directly: bit-parity of the generated-source kernels, the
three masked lowerings (masked non-total ``if``, max-trip masked
batched-bound ``loop``, registered intrinsic vector lowerings), engine
selection, and counters/caching.

The masked lowerings belong to the vector engine, which the codegen engine
extends, so every masked-lowering class runs on both: the base class on
the codegen engine, its ``...Vector`` subclass on the vector engine.
"""

import numpy as np
import pytest

from repro import perf
from repro.compiler import compile_program
from repro.exec import CodegenEvaluator, VectorEvaluator
from repro.exec.codegen import _CODE_CACHE
from repro.interp import Evaluator, default_engine, run_program
from repro.ir import source as S
from repro.ir.builder import (
    abs_,
    f32,
    i64,
    if_,
    intrinsic,
    iota,
    loop_,
    map_,
    min_,
    reduce_,
    to_i64,
    v,
)

SCALAR = Evaluator()


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a per-test dir and drop in-memory kernels."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "kcache"))
    _CODE_CACHE.clear()
    yield


def same_bits(ref, got):
    """Assert two value tuples agree in shape, dtype and bits."""
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        ra, ga = np.asarray(r), np.asarray(g)
        assert ra.shape == ga.shape, (ra.shape, ga.shape)
        assert ra.dtype == ga.dtype, (ra.dtype, ga.dtype)
        assert ra.tobytes() == ga.tobytes()


def both(e, **env):
    """Evaluate under oracle and codegen; assert bit-identical results."""
    ev = CodegenEvaluator()
    same_bits(SCALAR.eval(e, env), ev.eval(e, env))
    return ev


def arr(xs, dtype=np.float32):
    return np.asarray(xs, dtype=dtype)


class TestEmittedKernelParity:
    def test_arith_chain(self):
        both(
            map_(lambda x: S.UnOp("abs", x * 2.0 + 1.0 - x * 0.5), v("xs")),
            xs=arr([-1.5, 2.0, 3.0]),
        )

    def test_let_sharing(self):
        both(
            map_(
                lambda x: S.Let(("t",), x * x, S.Var("t") + S.Var("t") * 0.5),
                v("xs"),
            ),
            xs=arr([1, 2, 3, 4]),
        )

    def test_uniform_if_in_emitted_kernel(self):
        both(
            map_(lambda x: if_(v("flag"), x * 2.0 + 1.0, x - 3.0 * x), v("xs")),
            xs=arr([1, 2]),
            flag=np.bool_(True),
        )

    def test_total_batched_if_emitted(self):
        e = map_(
            lambda x: if_(S.BinOp(">", x, f32(0.0)), x * 2.0, x - 1.0), v("xs")
        )
        ev = both(e, xs=arr([-1, 0, 1, 2]))
        assert ev.scalar_fallbacks == 0

    def test_index_gather_emitted(self):
        both(
            map_(lambda i: v("xs")[i] * 2.0 + 1.0, v("idx")),
            xs=arr([10, 20, 30]),
            idx=np.asarray([2, 0, 1, 1], dtype=np.int64),
        )

    def test_reduce_fold_order_preserved(self):
        # f32 addition is non-associative: parity requires the same
        # left-to-right fold the oracle uses, emitted kernels included.
        rng = np.random.default_rng(3)
        xs = rng.standard_normal(257).astype(np.float32)
        both(reduce_(lambda a, b: a + b, f32(0.0), v("xs")), xs=xs)

    def test_min_max_nan_parity(self):
        xs = arr([0.0, -0.0, 1.0, np.nan])
        ys = arr([-0.0, 0.0, np.nan, 1.0])
        both(
            map_(lambda x, y: S.BinOp("min", x, y) + S.BinOp("max", x, y),
                 v("xs"), v("ys")),
            xs=xs, ys=ys,
        )

    def test_nested_map(self):
        both(
            map_(lambda row: map_(lambda x: x * x + 1.0, row), v("xss")),
            xss=arr([[1, 2], [3, 4]]),
        )


class TestMaskedIf:
    engine = CodegenEvaluator

    def _pow_guarded(self):
        # ``pow`` is excluded from the totality whitelist, so both branches
        # may not run speculatively: the engine masks instead.
        return map_(
            lambda x: if_(
                S.BinOp(">", x, i64(0)), S.BinOp("pow", i64(2), x), i64(0)
            ),
            v("xs"),
        )

    def test_mixed_lanes_no_fallback(self):
        e = self._pow_guarded()
        xs = np.asarray([-3, 2, 0, 5, -1], dtype=np.int64)
        ref = SCALAR.eval(e, {"xs": xs})
        ev = self.engine()
        got = ev.eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert ev.scalar_fallbacks == 0
        assert ev.masked_ifs > 0

    def test_untaken_branch_never_executes(self):
        # pow(2, x) raises for negative x; every lane here takes the else
        # branch, so the masked lowering must not touch the then branch.
        e = self._pow_guarded()
        xs = np.asarray([-1, -5, -2], dtype=np.int64)
        ref = SCALAR.eval(e, {"xs": xs})
        got = self.engine().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()

    def test_all_true_fast_path(self):
        e = self._pow_guarded()
        xs = np.asarray([1, 2, 3], dtype=np.int64)
        ref = SCALAR.eval(e, {"xs": xs})
        got = self.engine().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()

    def test_branch_dtype_promotion_matches_oracle(self):
        # then yields i64, else f32: the oracle's restack promotes; the
        # masked scatter must land on the same dtype.
        e = map_(
            lambda x: if_(
                S.BinOp(">", x, i64(0)),
                S.BinOp("pow", i64(2), x),
                S.UnOp("to_f32", x),
            ),
            v("xs"),
        )
        xs = np.asarray([-1, 2, -3, 4], dtype=np.int64)
        ref = SCALAR.eval(e, {"xs": xs})
        got = self.engine().eval(e, {"xs": xs})
        ra, ga = np.asarray(ref[0]), np.asarray(got[0])
        assert ra.dtype == ga.dtype and ra.tobytes() == ga.tobytes()


class TestMaskedIfVector(TestMaskedIf):
    engine = VectorEvaluator


class TestMaskedLoop:
    engine = CodegenEvaluator

    def test_data_dependent_bound(self):
        e = map_(
            lambda x: loop_(x, to_i64(x), lambda i, acc: acc * 2.0 + 1.0),
            v("xs"),
        )
        xs = arr([1.2, 3.7, 0.4, 2.0, 5.9])
        ref = SCALAR.eval(e, {"xs": xs})
        ev = self.engine()
        got = ev.eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        assert ev.scalar_fallbacks == 0
        assert ev.masked_loops > 0

    def test_zero_trip_lanes_keep_inits(self):
        e = map_(
            lambda x: loop_(x, to_i64(x), lambda i, acc: acc + 10.0), v("xs")
        )
        xs = arr([0.0, 2.5, -1.0, 1.0])  # bounds 0, 2, -1, 1
        ref = SCALAR.eval(e, {"xs": xs})
        got = self.engine().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()

    def test_accumulator_dtype_drift(self):
        # the body promotes i64 state to f64; zero-trip lanes keep the i64
        # init, and the oracle's restack promotes the whole batch — the
        # masked lowering must land on the same dtype and bits.
        e = map_(
            lambda x: loop_(
                to_i64(x), to_i64(x), lambda i, acc: acc * 1.5
            ),
            v("xs"),
        )
        xs = arr([0.0, 3.0, 1.0, 0.0])
        ref = SCALAR.eval(e, {"xs": xs})
        got = self.engine().eval(e, {"xs": xs})
        ra, ga = np.asarray(ref[0]), np.asarray(got[0])
        assert ra.dtype == ga.dtype and ra.tobytes() == ga.tobytes()

    def test_loop_ivar_visible_to_body(self):
        e = map_(
            lambda x: loop_(
                x, to_i64(x), lambda i, acc: acc + S.UnOp("to_f32", i)
            ),
            v("xs"),
        )
        xs = arr([2.0, 4.0, 1.0])
        ref = SCALAR.eval(e, {"xs": xs})
        got = self.engine().eval(e, {"xs": xs})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()


class TestMaskedLoopVector(TestMaskedLoop):
    engine = VectorEvaluator


class TestIntrinsicLowering:
    engine = CodegenEvaluator

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_thomas_tridag_vector_lowering(self, dtype):
        import repro.bench.references  # noqa: F401  (registers thomas_tridag)

        rng = np.random.default_rng(0)
        xss = (rng.standard_normal((4, 9)) * 8).astype(dtype)
        e = map_(lambda row: intrinsic("thomas_tridag", row), v("xss"))
        ref = SCALAR.eval(e, {"xss": xss})
        ev = self.engine()
        before = perf.counters().get("exec.intrinsic", 0)
        got = ev.eval(e, {"xss": xss})
        ra, ga = np.asarray(ref[0]), np.asarray(got[0])
        assert ra.dtype == ga.dtype and ra.tobytes() == ga.tobytes()
        assert ev.scalar_fallbacks == 0
        assert perf.counters().get("exec.intrinsic", 0) > before


class TestIntrinsicLoweringVector(TestIntrinsicLowering):
    engine = VectorEvaluator


def _branchy_pow():
    """Non-total batched ``if``: pow is off the totality whitelist."""
    e = map_(
        lambda x: if_(
            S.BinOp(">", x, i64(0)),
            S.BinOp("pow", i64(2), S.BinOp("min", x, i64(30))),
            S.BinOp("*", x, i64(-3)),
        ),
        v("xs"),
    )
    xs = np.random.default_rng(0).integers(-40, 40, size=400).astype(np.int64)
    return e, {"xs": xs}


def _databound_loop():
    """Batched-bound ``loop``: per-lane trip counts 0..8."""
    e = map_(
        lambda x: loop_(
            x,
            to_i64(min_(abs_(x) * 4.0, f32(8.0))),
            lambda i, acc: acc * 1.5 + 0.25,
        ),
        v("xs"),
    )
    xs = np.random.default_rng(1).standard_normal(400).astype(np.float32)
    return e, {"xs": xs}


def _tridag_rows():
    """Batched-argument intrinsic: thomas_tridag over every row."""
    import repro.bench.references  # noqa: F401  (registers thomas_tridag)

    e = map_(lambda row: intrinsic("thomas_tridag", row), v("xss"))
    xss = np.random.default_rng(2).standard_normal((60, 32)).astype(np.float32)
    return e, {"xss": xss}


@pytest.mark.parametrize(
    "engine", [VectorEvaluator, CodegenEvaluator], ids=["vector", "codegen"]
)
@pytest.mark.parametrize(
    "workload",
    [_branchy_pow, _databound_loop, _tridag_rows],
    ids=["branchy_pow", "databound_loop", "tridag_rows"],
)
def test_masked_workload_parity(workload, engine):
    """Workloads built only from the masked constructs, hundreds of lanes
    wide: bit-identical to the oracle with no per-lane fallback."""
    e, env = workload()
    ev = engine()
    same_bits(SCALAR.eval(e, env), ev.eval(e, env))
    assert ev.scalar_fallbacks == 0


class TestCompileCacheFlow:
    E = staticmethod(
        lambda: map_(lambda x: S.UnOp("abs", x * 2.0 + 1.0 - x * 0.5), v("xs"))
    )

    def test_fresh_compile_counts_once_per_instance(self):
        e = self.E()
        before = perf.counters().get("exec.codegen.compile", 0)
        ev = CodegenEvaluator()
        ev.eval(e, {"xs": arr([1, 2, 3])})
        ev.eval(e, {"xs": arr([4, 5])})  # instance cache: no recompile
        after = perf.counters().get("exec.codegen.compile", 0)
        assert after == before + 1

    def test_second_evaluator_hits_memory_cache(self):
        e = self.E()
        CodegenEvaluator().eval(e, {"xs": arr([1, 2, 3])})
        before = perf.counters()
        CodegenEvaluator().eval(e, {"xs": arr([1, 2, 3])})
        after = perf.counters()
        assert after.get("exec.codegen.mem_hits", 0) > before.get(
            "exec.codegen.mem_hits", 0
        )
        assert after.get("exec.codegen.compile", 0) == before.get(
            "exec.codegen.compile", 0
        )

    def test_disk_cache_avoids_recompile(self):
        e = self.E()
        CodegenEvaluator().eval(e, {"xs": arr([1, 2, 3])})
        _CODE_CACHE.clear()  # simulate a fresh process, same disk
        before = perf.counters()
        ref = SCALAR.eval(e, {"xs": arr([7, 8])})
        got = CodegenEvaluator().eval(e, {"xs": arr([7, 8])})
        assert np.asarray(ref[0]).tobytes() == np.asarray(got[0]).tobytes()
        after = perf.counters()
        assert after.get("exec.codegen.cache_hits", 0) > before.get(
            "exec.codegen.cache_hits", 0
        )
        assert after.get("exec.codegen.compile", 0) == before.get(
            "exec.codegen.compile", 0
        )

    def test_no_cache_env_disables_persistence(self, tmp_path, monkeypatch):
        import os

        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        e = self.E()
        both(e, xs=arr([1, 2, 3]))
        d = os.environ["REPRO_CODEGEN_CACHE"]
        assert not os.path.isdir(d) or not os.listdir(d)


class TestPlumbing:
    def _matmul_inputs(self, seed=1):
        rng = np.random.default_rng(seed)
        return {
            "xss": rng.standard_normal((6, 4)).astype(np.float32),
            "yss": rng.standard_normal((4, 6)).astype(np.float32),
        }

    def test_run_program_engine_parity(self):
        from repro.bench.programs.matmul import matmul_program

        prog = matmul_program()
        inputs = self._matmul_inputs()
        ref = run_program(prog, inputs, engine="scalar")
        got = run_program(prog, inputs, engine="codegen")
        for r, g in zip(ref, got):
            assert np.asarray(r).tobytes() == np.asarray(g).tobytes()

    def test_run_program_unknown_engine_still_rejected(self):
        from repro.bench.programs.matmul import matmul_program

        with pytest.raises(ValueError, match="unknown engine"):
            run_program(
                matmul_program(),
                {"xss": arr([[1.0]]), "yss": arr([[1.0]])},
                engine="turbo",
            )

    def test_default_engine_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "codegen")
        assert default_engine() == "codegen"

    def test_compiled_program_run_engine(self):
        from repro.bench.programs.matmul import matmul_program

        cp = compile_program(matmul_program(), "incremental")
        inputs = self._matmul_inputs(seed=2)
        ref = cp.run(inputs, engine="scalar")
        got = cp.run(inputs, engine="codegen")
        for r, g in zip(ref, got):
            assert np.asarray(r).tobytes() == np.asarray(g).tobytes()

    def test_differential_engines_accept_codegen(self):
        from repro.check.differential import ENGINES

        assert ENGINES == ("scalar", "vector", "codegen")


class TestObsAndPerf:
    engine = CodegenEvaluator

    def test_masked_spans_emitted(self):
        from repro import obs

        e = map_(
            lambda x: if_(
                S.BinOp(">", x, i64(0)), S.BinOp("pow", i64(2), x), i64(0)
            ),
            v("xs"),
        )
        with obs.tracing() as tracer:
            self.engine().eval(e, {"xs": np.asarray([-1, 2], dtype=np.int64)})
        masked = [s for s in tracer.spans if s.name == "exec.masked"]
        assert masked and masked[0].args.get("construct") == "if"

    def test_fallback_histogram_flushed_to_perf(self):
        # the per-construct histogram surfaces through perf; a batched
        # iota extent is irregular, so it still runs per lane
        e = map_(lambda n: reduce_(lambda a, b: a + b, i64(0), iota(n)), v("ns"))
        before = perf.counters().get("exec.fallback.iota", 0)
        self.engine().eval(e, {"ns": np.asarray([1, 3], dtype=np.int64)})
        after = perf.counters().get("exec.fallback.iota", 0)
        assert after > before


class TestObsAndPerfVector(TestObsAndPerf):
    engine = VectorEvaluator

