"""ILP-based global fusion: optimality, dominance over greedy, semantics."""

import numpy as np
import pytest

from repro.compiler import FUSION_MODES, compile_program
from repro.interp import Evaluator
from repro.ir import builder as B
from repro.ir import source as S
from repro.ir.builder import f32, let_, map_, op2, reduce_, scan_, v
from repro.ir.traverse import walk
from repro.passes import fuse, ilp_fuse, normalize
from repro.passes.fusion_graph import kernel_proxy

EV = Evaluator()
XS = np.asarray([1.0, -2.0, 3.5, 0.25], np.float32)


def _fanout():
    return normalize(let_(
        map_(lambda x: x * x, v("xs")),
        lambda t: reduce_(op2("+"), f32(0.0), t)
        + reduce_(op2("max"), f32(-1e9), t),
    ))


class TestBeatsGreedy:
    def test_fanout_fuses_both_consumers(self):
        e = _fanout()
        assert kernel_proxy(fuse(e)) == 3  # greedy declines: two uses
        out = ilp_fuse(e)
        assert kernel_proxy(out) == 2
        assert all(type(n) is S.Redomap
                   for n in walk(out) if type(n) in S.PARALLEL_SOACS)

    def test_fanout_semantics(self):
        e = _fanout()
        assert EV.eval1(e, {"xs": XS}) == EV.eval1(ilp_fuse(e), {"xs": XS})

    def test_shared_producer_collapses_to_one_map(self):
        e = normalize(let_(
            map_(lambda x: x * f32(1.5), v("xs")),
            lambda t: map_(
                op2("+"),
                map_(lambda a: a * a, t),
                map_(lambda b: b + f32(2.0), t),
            ),
        ))
        assert kernel_proxy(fuse(e)) == 4
        out = ilp_fuse(e)
        assert kernel_proxy(out) == 1
        assert np.array_equal(EV.eval1(e, {"xs": XS}),
                              EV.eval1(out, {"xs": XS}))

    def test_partial_consumer_with_passthrough(self):
        # t zipped with an unrelated input: not exact, greedy declines
        e = normalize(let_(
            map_(lambda x: x * x, v("xs")),
            lambda t: reduce_(op2("+"), f32(0.0), map_(op2("*"), t, v("ys"))),
        ))
        assert kernel_proxy(fuse(e)) == 2
        out = ilp_fuse(e)
        assert kernel_proxy(out) == 1
        ys = np.asarray([2.0, 0.5, 1.0, -1.0], np.float32)
        assert EV.eval1(e, {"xs": XS, "ys": ys}) == EV.eval1(
            out, {"xs": XS, "ys": ys})


class TestNeverWorse:
    @pytest.mark.parametrize("mk", [
        lambda: let_(map_(lambda x: x * x, v("xs")),
                     lambda t: reduce_(op2("+"), f32(0.0), t)),
        lambda: let_(map_(lambda x: x + f32(1.0), v("xs")),
                     lambda t: scan_(op2("+"), f32(0.0), t)),
        lambda: let_(map_(lambda x: x * f32(2.0), v("xs")),
                     lambda t: let_(map_(lambda y_: y_ + f32(1.0), t),
                                    lambda z_: map_(lambda w_: w_ * w_, z_))),
    ])
    def test_kernel_count_at_most_greedy(self, mk):
        e = normalize(mk())
        assert kernel_proxy(ilp_fuse(e)) <= kernel_proxy(fuse(e))

    def test_exact_chain_matches_greedy_exactly(self):
        # on greedy's home turf (single exact consumer) the ILP pass must
        # produce the same Redomap, not some generalized variant
        e = normalize(let_(
            map_(lambda x: x * x, v("xs")),
            lambda t: reduce_(op2("+"), f32(0.0), t),
        ))
        assert str(ilp_fuse(e)) == str(fuse(e))

    def test_nothing_to_fuse_is_identity(self):
        e = normalize(reduce_(op2("+"), f32(0.0), v("xs")))
        assert str(ilp_fuse(e)) == str(e)

    def test_idempotent(self):
        out = ilp_fuse(_fanout())
        assert str(ilp_fuse(out)) == str(out)


class TestPipelineWiring:
    def _prog(self):
        xs = B.ArrayType(("n",), B.F32)
        body = let_(
            map_(lambda x: x * x, v("xs")),
            lambda t: reduce_(op2("+"), f32(0.0), t)
            + reduce_(op2("max"), f32(-1e9), t),
        )
        return B.Program("fanout", [("xs", xs)], body)

    def test_modes_bit_identical(self):
        prog = self._prog()
        outs = {}
        for fusion in FUSION_MODES:
            cp = compile_program(prog, "incremental", fusion=fusion)
            assert cp.fusion == fusion
            (outs[fusion],) = cp.run({"xs": XS})
        assert outs["ilp"] == outs["off"] == outs["greedy"]

    def test_env_selects_pipeline_pass(self, configure):
        prog = self._prog()
        configure(fusion="off")
        cp = compile_program(prog, "incremental")
        assert cp.fusion == "off"
        # an explicit argument wins over the config
        assert compile_program(prog, "incremental", fusion="ilp").fusion == "ilp"
        with pytest.raises(ValueError, match="unknown fusion mode"):
            compile_program(prog, "incremental", fusion="bogus")

    def test_do_fuse_false_still_wins(self):
        # the paper's Backprop MF experiment: do_fuse=False forces off
        cp = compile_program(self._prog(), "moderate", do_fuse=False,
                             fusion="ilp")
        assert cp.fusion == "off"

    def test_ilp_emits_perf_counters(self):
        from repro import perf

        perf.reset()
        ilp_fuse(_fanout())
        counters = perf.snapshot()["counters"]
        assert counters.get("fusion.edges", 0) >= 2
        assert counters.get("fusion.decisions", 0) >= 2
        assert counters.get("fusion.rounds", 0) >= 1
