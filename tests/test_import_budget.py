"""Import budget: each CLI request kind imports only the layers it runs.

Every case runs in a fresh interpreter, so nothing an earlier test imported
counts, and reads ``sys.modules`` once the request is done.  The tune and
run cases are the requests perfbench's ``cli-cold`` workload makes
(``perfbench/cli_request.py``).  See docs/performance.md, "Start-up".
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TUNE = """
import os
import repro.cli as cli
import repro.compiler as compiler
import repro.tuning.persist as persist
from repro.bench.datasets import training_datasets
from repro.gpu import K40
from repro.tuning import Autotuner

prog = cli._resolve_program({name!r})
cp = compiler.compile_program(prog, "incremental")
datasets = training_datasets({name!r})
res = Autotuner(cp, datasets, K40, seed=1).tune(max_proposals=20)
persist.save_thresholds(os.path.join({out!r}, "out.tuning"), cp, res.best_thresholds,
                        device=K40.name, datasets=datasets)
"""

RUN = """
import repro.cli as cli
import repro.compiler as compiler

prog = cli._resolve_program({name!r})
cp = compiler.compile_program(prog, "incremental")
sizes = {sizes!r}
cp.run(cli._random_inputs(prog, sizes, 1), engine="codegen", sizes=sizes)
"""


def loaded(code: str, tmp_path) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=SRC,
               REPRO_CODEGEN_CACHE=str(tmp_path / "kcache"))
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def within(mods: set[str], *packages: str) -> list[str]:
    """The loaded modules that are, or live under, one of ``packages``."""
    return sorted(m for m in mods
                  if any(m == p or m.startswith(p + ".") for p in packages))


def test_import_cli_loads_no_layer(tmp_path):
    mods = loaded("import repro.cli", tmp_path)
    assert within(mods, "numpy", "repro.service", "repro.check", "repro.faults") == []


def test_list_loads_no_numpy(tmp_path):
    mods = loaded(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['list']) == 0\n",
        tmp_path,
    )
    assert "repro.bench.datasets" in mods
    assert within(mods, "numpy") == []


# SRAD's simulation folds constant size arithmetic (the simulator's scalar
# operators must not come from the NumPy interpreter)
@pytest.mark.parametrize("name", ["LocVolCalib", "SRAD"])
def test_tune_request_loads_no_numpy_or_execute_layer(tmp_path, name):
    mods = loaded(TUNE.format(name=name, out=str(tmp_path)), tmp_path)
    assert (tmp_path / "out.tuning").exists()
    assert "repro.gpu.cost" in mods and "repro.tuning.tuner" in mods
    assert within(mods, "numpy", "repro.exec", "repro.interp.evaluator",
                  "repro.bench.runner", "repro.tuning.online") == []


def test_codegen_run_request_loads_no_simulator_or_tuner(tmp_path):
    mods = loaded(RUN.format(name="matmul", sizes={"n": 8, "m": 12}), tmp_path)
    assert "repro.exec.codegen" in mods
    assert within(mods, "repro.gpu.cost", "repro.tuning", "repro.bench.runner") == []
