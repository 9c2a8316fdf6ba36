"""Tests of the top-level compilation pipeline."""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from repro import config, perf
from repro.check.differential import (
    CHECK_DATASETS,
    bit_equal,
    builtin_programs,
    enumerate_forced_paths,
    make_inputs,
)
from repro.compiler import CompiledProgram, compile_program
from repro.exec import MEMO_MAX
from repro.flatten import ThresholdRegistry
from repro.gpu import K40, VEGA64
from repro.interp import run_program
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import Program, f32, i64, if_, iota, map_, op2, redomap_, v
from repro.ir.types import F32, I64, array_of
from repro.sizes import SizeConst, SizeVar

from repro.bench.programs.matmul import matmul_program, matmul_sizes


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


class TestPipeline:
    def test_modes(self):
        for mode in ("moderate", "incremental", "full"):
            cp = compile_program(matmul_program(), mode)
            assert cp.mode == mode

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            compile_program(matmul_program(), "turbo")

    def test_compile_seconds_recorded(self, matmul_if):
        assert matmul_if.compile_seconds > 0

    def test_thresholds_exposed(self, matmul_if):
        assert matmul_if.thresholds() == ["t0", "t1", "t2", "t3"]

    def test_check_passes(self, matmul_if):
        matmul_if.check()

    def test_fusion_toggle(self):
        n = SizeVar("n")
        prog = Program(
            "p",
            [("xs", array_of(F32, n))],
            S.Let(
                ("ys",),
                map_(lambda x: x * x, v("xs")),
                S.Reduce(op2("+"), [f32(0.0)], (S.Var("ys"),)),
            ),
        )
        fused = compile_program(prog, "moderate", do_fuse=True)
        unfused = compile_program(prog, "moderate", do_fuse=False)
        # with fusion a redomap forms (manifested segred); without, the map
        # and reduce are flattened separately
        assert fused.code_size() != unfused.code_size()

    def test_simplify_toggle(self, matmul_if):
        raw = compile_program(matmul_program(), "incremental", do_simplify=False)
        assert raw.code_size() >= matmul_if.code_size()


class TestCompiledProgram:
    def test_run(self, matmul_if):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 4)).astype(np.float32)
        B = rng.standard_normal((4, 3)).astype(np.float32)
        (out,) = matmul_if.run({"xss": A, "yss": B})
        assert np.allclose(out, A @ B, rtol=1e-5)

    def test_run_with_thresholds(self, matmul_if):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 4)).astype(np.float32)
        B = rng.standard_normal((4, 3)).astype(np.float32)
        (a,) = matmul_if.run({"xss": A, "yss": B}, thresholds={"t0": 1})
        (b,) = matmul_if.run({"xss": A, "yss": B}, thresholds={"t0": 2**30})
        assert np.allclose(a, b)

    def test_simulate_on_both_devices(self, matmul_if):
        s = matmul_sizes(5, 20)
        t1 = matmul_if.simulate(s, K40).time
        t2 = matmul_if.simulate(s, VEGA64).time
        assert t1 > 0 and t2 > 0 and t1 != t2

    def test_simulate_threshold_sensitivity(self, matmul_if):
        s = matmul_sizes(0, 20)  # degenerate: version choice matters a lot
        t_top = matmul_if.simulate(s, K40, thresholds={"t2": 1}).time
        t_flat = matmul_if.simulate(
            s, K40, thresholds={t: 2**30 for t in matmul_if.thresholds()}
        ).time
        assert t_top > 10 * t_flat

    def test_branching_trees_exposed(self, matmul_if):
        assert len(matmul_if.branching_trees()) == 1

    def test_code_size_positive(self, matmul_if):
        assert matmul_if.code_size() > 20


class TestMultiLevel:
    """The formalisation is generic in the number of hardware levels; the
    engine supports more than the GPU's two (paper: 'a solid foundation for
    approaching other types of heterogeneous hardware')."""

    def _deep_prog(self):
        n, m, k = SizeVar("n"), SizeVar("m"), SizeVar("k")
        body = map_(
            lambda mat: map_(
                lambda row: redomap_(op2("+"), lambda x: x * x, f32(0.0), row),
                mat,
            ),
            v("cube"),
        )
        return Program("deep", [("cube", array_of(F32, n, m, k))], body)

    def test_three_level_flattening_validates(self):
        from repro.ir.typecheck import validate_levels

        cp = compile_program(self._deep_prog(), "incremental", num_levels=3)
        validate_levels(cp.body, 2)

    def test_three_levels_more_versions_than_two(self):
        two = compile_program(self._deep_prog(), "incremental", num_levels=2)
        three = compile_program(self._deep_prog(), "incremental", num_levels=3)
        assert len(three.registry) > len(two.registry)
        assert three.code_size() > two.code_size()

    def test_three_level_semantics(self):
        prog = self._deep_prog()
        cp = compile_program(prog, "incremental", num_levels=3)
        rng = np.random.default_rng(2)
        cube = rng.standard_normal((2, 3, 4)).astype(np.float32)
        from repro.interp import run_program

        ref = run_program(prog, {"cube": cube})
        got = run_program(prog, {"cube": cube}, body=cp.body)
        assert np.allclose(ref[0], got[0], rtol=1e-5)

    def test_code_growth_with_depth(self):
        """§3.2: 'the number of generated code versions is exponential in
        the depth of the parallel nest' — but statically bounded."""
        sizes = []
        for levels in (2, 3, 4):
            cp = compile_program(self._deep_prog(), "incremental", num_levels=levels)
            sizes.append(cp.code_size())
        assert sizes[0] < sizes[1] <= sizes[2] * 1.01


class TestTypePreservation:
    """Behavioural analogue of the paper's type-preservation theorem."""

    @pytest.mark.parametrize("mode", ("moderate", "incremental", "full"))
    def test_result_types_preserved(self, mode):
        from repro.ir.typecheck import typeof

        from repro.bench.programs.locvolcalib import locvolcalib_program

        for mk in (matmul_program, locvolcalib_program):
            prog = mk()
            src_ts = typeof(prog.body, prog.type_env())
            cp = compile_program(prog, mode)
            out_ts = typeof(cp.body, prog.type_env())
            assert len(src_ts) == len(out_ts)
            for a, b in zip(src_ts, out_ts):
                assert type(a) is type(b)
                if hasattr(a, "rank"):
                    assert a.rank == b.rank and a.elem == b.elem


def _delta(before: dict, name: str) -> float:
    return perf.counters().get(name, 0) - before.get(name, 0)


def _versioned(name: str, body) -> CompiledProgram:
    """A compiled program over ``xs: [n]i64`` whose body is ``body`` as
    written.  Its ``ParCmp`` branches need not be equivalent, so the
    version that ran shows in the result."""
    prog = Program(name, [("xs", array_of(I64, SizeVar("n")))], body)
    return CompiledProgram(prog, "incremental", body, ThresholdRegistry(), 2)


def _par_ge_t():
    return T.ParCmp(SizeConst(100), "t")


class TestEvaluatorMemo:
    """A batched ``run`` compiles the body once per (engine, sizes, input
    dtypes, config); later calls with that key only execute, with their
    thresholds written into the kept evaluator."""

    @pytest.mark.parametrize("name", ["LocVolCalib", "Heston"])
    def test_forced_paths_match_fresh_runs(self, name):
        prog = builtin_programs()[name]()
        cp = compile_program(prog, "incremental")
        sizes = CHECK_DATASETS[name][0]
        inputs = make_inputs(prog, sizes, seed=3)
        paths, _ = enumerate_forced_paths(cp.branching_trees())
        assert len(paths) > 1
        # forward, then backward: the thresholds change between calls
        for th in paths + paths[::-1]:
            for engine in ("vector", "codegen"):
                got = cp.run(inputs, thresholds=th, engine=engine, sizes=sizes)
                ref = run_program(prog, inputs, body=cp.body, thresholds=th,
                                  sizes=sizes, engine=engine)
                assert len(got) == len(ref)
                assert all(bit_equal(g, r) for g, r in zip(got, ref)), (engine, th)
        assert len(cp._evaluators) == 2

    @pytest.mark.parametrize("engine", ["vector", "codegen"])
    def test_warm_run_compiles_nothing(self, engine):
        cp = compile_program(matmul_program(), "incremental")
        inputs = make_inputs(cp.prog, dict(n=4, m=8))
        cp.run(inputs, engine=engine)
        before = perf.counters()
        cp.run(inputs, engine=engine, thresholds={"t0": 1})
        assert _delta(before, "exec.compile") == 0
        assert _delta(before, "exec.memo.hits") == 1

    def test_no_cache_compiles_every_call(self, configure):
        configure(cache=False)
        cp = compile_program(matmul_program(), "incremental")
        inputs = make_inputs(cp.prog, dict(n=4, m=8))
        for _ in range(3):
            before = perf.counters()
            cp.run(inputs, engine="vector")
            assert _delta(before, "exec.compile") > 0
        assert cp._evaluators == {}

    def test_config_is_in_the_key(self, configure, monkeypatch):
        from repro.exec import guard

        configure(guard=True)
        wraps = []
        real = guard.wrap_kernel
        monkeypatch.setattr(
            guard, "wrap_kernel", lambda *a, **kw: wraps.append(1) or real(*a, **kw)
        )
        prog = builtin_programs()["Heston"]()
        cp = compile_program(prog, "incremental")
        sizes = CHECK_DATASETS["Heston"][0]
        inputs = make_inputs(prog, sizes)
        on = cp.run(inputs, engine="codegen", sizes=sizes)
        assert wraps
        wraps.clear()
        before = perf.counters()
        with config.use(replace(config.current(), guard=False)):
            off = cp.run(inputs, engine="codegen", sizes=sizes)
        # its own evaluator, compiled without the guard
        assert _delta(before, "exec.memo.misses") == 1
        assert _delta(before, "exec.compile") > 0
        assert wraps == []
        assert len(cp._evaluators) == 2
        before = perf.counters()
        again = cp.run(inputs, engine="codegen", sizes=sizes)
        assert wraps == []
        assert _delta(before, "exec.compile") == 0
        assert _delta(before, "exec.memo.hits") == 1
        for a, b, c in zip(on, off, again):
            assert bit_equal(a, b) and bit_equal(a, c)

    def test_memo_keeps_the_most_recently_used(self):
        cp = compile_program(matmul_program(), "incremental")
        inputs = [make_inputs(cp.prog, dict(n=n, m=3)) for n in range(1, MEMO_MAX + 2)]
        for inp in inputs:
            cp.run(inp, engine="vector")
        assert len(cp._evaluators) == MEMO_MAX
        before = perf.counters()
        cp.run(inputs[-1], engine="vector")
        assert _delta(before, "exec.compile") == 0
        before = perf.counters()
        cp.run(inputs[0], engine="vector")  # evicted first
        assert _delta(before, "exec.compile") > 0

    def test_fallback_lanes_follow_the_swap(self):
        # iota over a batched extent sends the redomap, ParCmp included, to
        # the per-lane scalar oracle, which reads the evaluator's thresholds
        body = map_(
            lambda x: redomap_(
                op2("+"),
                lambda i: if_(_par_ge_t(), i * i64(2), i * i64(3)),
                i64(0),
                iota(x),
            ),
            v("xs"),
        )
        cp = _versioned("iota_fallback", body)
        xs = np.arange(1, 6, dtype=np.int64)
        top = [int(x * (x - 1)) for x in xs]
        flat = [int(3 * x * (x - 1) // 2) for x in xs]
        for engine in ("vector", "codegen"):
            before = perf.counters()
            for t, want in ((1, top), (1000, flat), (1, top)):
                (got,) = cp.run({"xs": xs}, thresholds={"t": t}, engine=engine)
                assert got.tolist() == want, (engine, t)
            assert _delta(before, "exec.scalar_fallbacks") == 3
            assert _delta(before, "exec.memo.hits") == 2

    def test_threads_keep_their_own_thresholds(self):
        body = map_(
            lambda x: if_(_par_ge_t(), x * i64(2) + i64(1), x * i64(3) + i64(1)),
            v("xs"),
        )
        cp = _versioned("versions", body)
        inputs = {"xs": np.arange(64, dtype=np.int64)}
        engines = ("vector", "codegen")
        refs = {
            (e, t): cp.run(inputs, thresholds={"t": t}, engine=e)[0].tobytes()
            for e in engines for t in (1, 1000)
        }
        assert refs[("vector", 1)] != refs[("vector", 1000)]
        errors: list = []
        deadline = time.monotonic() + 10.0

        def worker(t):
            try:
                for i in range(300):
                    if time.monotonic() > deadline:
                        return
                    e = engines[i % 2]
                    got = cp.run(inputs, thresholds={"t": t}, engine=e)[0].tobytes()
                    if got != refs[(e, t)]:
                        errors.append((e, t, i))
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in (1, 1000)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
