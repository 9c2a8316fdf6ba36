"""Tests of the benchmark itself: the output gate passes on unmodified
code and fails on a flipped byte, traced runs cover every boundary, and
a run leaves the checkout as it found it.

Run with ``python3 -m pytest perfbench`` from the repository root (about
five minutes: every workload runs for real, briefly).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import gate  # noqa: E402
from perfbench.spans import LAYER_UNITS, layer_metrics, self_times  # noqa: E402

WORKLOADS = ("exec-warm", "cli-cold", "figures", "serve-mix")


def _bench(*args: str, cwd: str = ROOT, prelude: str = "") -> subprocess.CompletedProcess:
    """Run the benchmark; ``prelude`` is Python run first in its process."""
    argv = ["--seconds", "1", *args]
    code = (f"import sys; sys.path[:0] = [{os.path.join(cwd, 'src')!r}, {cwd!r}]\n"
            f"{prelude}\n"
            "import runpy; sys.argv = ['perfbench/run.py'] + " + repr(argv) + "\n"
            "runpy.run_path('perfbench/run.py', run_name='__main__')")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_gate_passes_on_unmodified_code(workload, seed):
    doc = _result(_bench("--workload", workload, "--seed", str(seed)))
    assert doc["correct"], doc
    assert doc["failed"] == 0 and doc["attempted"] >= 2
    assert set(doc["metrics"]) == {
        "setup_s", "latency_ms_p50", "latency_ms_p90", "throughput_rps",
        "served_frac", "peak_rss_mb", "sim_cost_ms", "code_nodes"}
    assert all(m["value"] > 0 for m in doc["metrics"].values())


FLIP_HESTON = """
import numpy as np
from repro.compiler import CompiledProgram
_run = CompiledProgram.run
def run(self, *args, **kwargs):
    outs = _run(self, *args, **kwargs)
    if self.prog.name != "heston" or kwargs.get("engine") != "codegen":
        return outs
    first = np.array(outs[0], copy=True)
    first.view(np.uint8).reshape(-1)[0] ^= 1  # one byte of one output
    return (first,) + tuple(outs[1:])
CompiledProgram.run = run
"""

SKEW_FINPAR = """
from repro.bench import references
_out = references.finpar_out_time
references.finpar_out_time = lambda sizes, device: _out(sizes, device) * 1.02
"""


def test_flipped_output_byte_fails_gate():
    doc = _result(_bench("--workload", "exec-warm", "--seed", "1", prelude=FLIP_HESTON))
    assert doc["correct"] is False


def test_changed_fig7_speedup_fails_gate():
    doc = _result(_bench("--workload", "figures", "--seed", "1", prelude=SKEW_FINPAR))
    assert doc["correct"] is False


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    doc = _result(_bench("--workload", workload, "--seed", "4", "--trace", "1"))
    assert doc["correct"], doc
    assert list(doc["metrics"]) == list(LAYER_UNITS)
    assert doc["metrics"]["host.calibration_ms"]["value"] > 0


def test_traced_run_fails_when_a_boundary_sees_no_call():
    from perfbench.workloads import Run

    run = Run(ROOT, ROOT, seed=1, seconds=1, trace=True, env={})
    run.calibrate()
    run.expect = ("gpu.simulate",)
    with pytest.raises(RuntimeError, match="gpu.simulate"):
        run.finish_layers({})


def test_run_leaves_git_status_unchanged():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        pytest.skip("not a git checkout")

    def status() -> str:
        return subprocess.run(["git", "status", "--porcelain", "--ignored=no"],
                              cwd=ROOT, capture_output=True, text=True).stdout

    before = status()
    _result(_bench("--workload", "serve-mix", "--seed", "5"))
    assert status() == before


def test_exits_nonzero_without_program_sources():
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exec-warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare)


def test_fig7_reference_is_the_experiments_table():
    path = os.path.join(ROOT, "EXPERIMENTS.md")
    if not os.path.exists(path):
        pytest.skip("EXPERIMENTS.md not present")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## Figure 7"):text.index("## Figure 8")]
    rows = re.findall(r"^\| (K40|Vega64) \| (\w+) \| ([\d.]+) \| ([\d.]+) \| "
                      r"([\d.]+) \| ([\d.]+) \|$", section, flags=re.M)
    table = {(d, ds): dict(zip(("IF", "AIF", "FinPar-Out", "FinPar-All"),
                               map(float, vals)))
             for d, ds, *vals in rows}
    assert table == gate.FIG7


def test_digest_sees_one_flipped_byte():
    import numpy as np

    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    b = a.copy()
    b.view(np.uint8)[0, 0] ^= 0x80
    assert gate.digest_key(gate.digest([a])) == gate.digest_key(gate.digest([a.copy()]))
    assert gate.digest_key(gate.digest([a])) != gate.digest_key(gate.digest([b]))
    # same values, other dtype: a different digest, not a float-equal match
    assert gate.digest_key(gate.digest([a])) != gate.digest_key(
        gate.digest([a.astype(np.float64)]))


def test_self_time_subtracts_children():
    spans = [
        ["request", 0.0, 10.0, None, "r0", {}],
        ["tune", 1.0, 9.0, 0, "r0", {"configs": 8, "simulations": 2}],
        ["gpu.simulate", 2.0, 4.0, 1, "r0", {}],
        ["gpu.simulate", 5.0, 6.0, 1, "r0", {}],
    ]
    assert self_times(spans) == [2.0, 5.0, 2.0, 1.0]
    m = layer_metrics(spans, requests=1)
    assert m["tuning.self_ms"] == 5000.0
    assert m["gpu.simulate_ms"] == 3000.0
    assert m["gpu.simulate_calls"] == 2
    assert m["tuning.dedup_ratio"] == 0.25
