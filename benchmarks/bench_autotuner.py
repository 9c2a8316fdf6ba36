"""§4.2's autotuner behaviour: the duplicate-path cache resolves most
proposals without a run, the stochastic tuner approaches the tree-aware
exhaustive optimum, and tuning completes quickly."""

from conftest import emit
from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.compiler import compile_program
from repro.gpu import K40
from repro.tuning import Autotuner, exhaustive_tune


def _tune_all():
    out = []
    cases = {
        "matmul": (
            compile_program(matmul_program(), "incremental"),
            [matmul_sizes(e, 20) for e in range(11)],
        ),
        "locvolcalib": (
            compile_program(locvolcalib_program(), "incremental"),
            [locvolcalib_sizes(n) for n in ("small", "medium", "large")],
        ),
    }
    for name, (cp, datasets) in cases.items():
        for technique in ("random", "hillclimb", "bandit"):
            tuner = Autotuner(cp, datasets, K40, seed=0)
            res = tuner.tune(max_proposals=300, technique=technique)
            out.append(
                (
                    name,
                    technique,
                    res.best_cost,
                    res.proposals,
                    res.simulations,
                    res.cache_hits,
                    res.dedup_ratio,
                    res.full_history,
                )
            )
        ex = exhaustive_tune(cp, datasets, K40)
        out.append(
            (
                name,
                "exhaustive",
                ex.best_cost,
                ex.proposals,
                ex.simulations,
                ex.cache_hits,
                ex.dedup_ratio,
                ex.full_history,
            )
        )
    return out


_CHECKPOINTS = (1, 10, 30, 100, 300)


def _convergence(full_history):
    """Running best cost after the first 1, 10, 30, ... evaluations."""
    curve = []
    best = float("inf")
    for n, (_, cost) in enumerate(full_history, start=1):
        best = min(best, cost)
        if n in _CHECKPOINTS:
            curve.append((n, best))
    if full_history and len(full_history) not in _CHECKPOINTS:
        curve.append((len(full_history), best))
    return curve


def _render(rows):
    lines = [
        "Autotuner — duplicate-path cache effectiveness (paper §4.2)",
        f"{'program':>12} {'technique':>11} {'cost(ms)':>10} "
        f"{'proposals':>10} {'sims':>6} {'hits':>7} {'dedup':>6}",
    ]
    for name, tech, cost, props, sims, hits, dedup, _ in rows:
        lines.append(
            f"{name:>12} {tech:>11} {cost*1e3:>10.3f} "
            f"{props:>10} {sims:>6} {hits:>7} {dedup:>6.2f}"
        )
    lines.append("")
    lines.append("Convergence — running best cost(ms) by evaluations")
    for name, tech, _, _, _, _, _, hist in rows:
        curve = " ".join(f"{n}:{best*1e3:.3f}" for n, best in _convergence(hist))
        lines.append(f"{name:>12} {tech:>11}  {curve}")
    return "\n".join(lines) + "\n"


def test_autotuner(benchmark):
    rows = benchmark.pedantic(_tune_all, rounds=1, iterations=1)
    emit("autotuner", _render(rows))
    by_prog: dict[str, list] = {}
    for row in rows:
        by_prog.setdefault(row[0], []).append(row)
    for name, prog_rows in by_prog.items():
        exhaustive = [r for r in prog_rows if r[1] == "exhaustive"][0]
        stochastic = [r for r in prog_rows if r[1] != "exhaustive"]
        # stochastic techniques are near the exhaustive optimum
        assert min(r[2] for r in stochastic) <= exhaustive[2] * 2.0
        # the duplicate-path cache resolves the vast majority of proposals
        for r in stochastic:
            assert r[6] > 0.7, f"{name}/{r[1]} dedup ratio too low"
        # full_history records every evaluation; its running minimum must
        # agree with the reported best cost
        for r in prog_rows:
            assert min(c for _, c in r[7]) == r[2]
        for r in stochastic:
            assert len(r[7]) == r[3], f"{name}/{r[1]} full_history incomplete"
