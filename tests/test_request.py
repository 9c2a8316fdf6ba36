"""The one front door: every entry point shares repro.request.

The CLI and the daemon refuse the same malformed requests — the CLI with
exit 2 and one ``repro: error:`` line, the daemon with ``400`` and no job
record — because both ask :mod:`repro.request`, and no module of the
service or the check harness reaches into the CLI for it.  The golden
pins the inputs a seed draws: ``random_inputs`` must keep drawing them
for every built-in, as ``repro run``, the daemon and the differential
harness always have (``goldens/random_inputs.json``, seed 7 at each
program's first ``CHECK_DATASETS`` entry).
"""

import ast
import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.bench.programs import MODULES
from repro.check.differential import CHECK_DATASETS
from repro.cli import main
from repro.request import builtin_program, random_inputs
from repro.service import ServiceClient, ServiceDaemon, ServiceError

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "goldens" / "random_inputs.json"

#: (CLI argv, daemon job, a phrase both error messages carry)
MALFORMED = {
    "unknown-program": (
        ["tune", "no-such-program", "--dataset", "n=4,m=8"],
        {"kind": "tune", "program": "no-such-program",
         "datasets": [{"n": 4, "m": 8}]},
        "unknown program 'no-such-program'",
    ),
    "missing-size": (
        ["run", "matmul", "--size", "n=4"],
        {"kind": "run", "program": "matmul", "sizes": {"n": 4}},
        "value(s) for m (got: n)",
    ),
    "negative-size": (
        ["run", "matmul", "--size", "n=4,m=-1"],
        {"kind": "run", "program": "matmul", "sizes": {"n": 4, "m": -1}},
        "values must be non-negative: m=-1",
    ),
    "zero-extent": (
        ["run", "pathfinder", "--size", "numB=2,rows=4,cols=0"],
        {"kind": "run", "program": "Pathfinder",
         "sizes": {"numB": 2, "rows": 4, "cols": 0}},
        "an input with a zero extent: walls (cols=0)",
    ),
    "tune-dataset-missing-size": (
        ["tune", "matmul", "--dataset", "n=4"],
        {"kind": "tune", "program": "matmul", "datasets": [{"n": 4}]},
        "value(s) for m (got: n)",
    ),
    # sizes only the body reads (through SizeE), not a parameter shape
    "missing-body-size": (
        ["run", "OptionPricing", "--size", "numDim=4,numBits=8", "--exec", "vector"],
        {"kind": "run", "program": "OptionPricing",
         "sizes": {"numDim": 4, "numBits": 8}},
        "value(s) for numUnd (got: numBits, numDim)",
    ),
    "missing-loop-size": (
        ["run", "NW", "--size", "nb=2,B=4"],
        {"kind": "run", "program": "NW", "sizes": {"nb": 2, "B": 4}},
        "value(s) for numWaves (got: B, nb)",
    ),
    "source-does-not-parse": (
        ["profile", os.devnull],
        {"kind": "compile", "source": "garbage("},
        "does not parse",
    ),
}


@pytest.fixture(scope="module")
def daemon():
    # unix socket paths are length-limited: a short temporary directory
    tmp = tempfile.mkdtemp(prefix="repro-req-")
    d = ServiceDaemon(os.path.join(tmp, "spool"),
                      socket_path=os.path.join(tmp, "s.sock"), runners=1)
    d.start()
    yield d
    d.stop()
    shutil.rmtree(tmp, ignore_errors=True)


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_exits_2_with_one_error_line(capsys, case):
    argv, _job, phrase = MALFORMED[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error:") and phrase in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("case", MALFORMED)
def test_daemon_answers_400_and_spools_nothing(daemon, case):
    _argv, job, phrase = MALFORMED[case]
    client = ServiceClient(socket_path=daemon.socket_path)
    with pytest.raises(ServiceError) as exc:
        client.submit(job)
    assert exc.value.code == 400 and phrase in str(exc.value)
    assert not daemon.jobs
    assert os.listdir(daemon.spool.jobs_dir) == []


def _imports_cli(path: Path) -> bool:
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            if any(a.name == "repro.cli" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro.cli" or (
                node.module == "repro" and any(a.name == "cli" for a in node.names)
            ):
                return True
    return False


def test_service_and_check_do_not_import_the_cli():
    files = [p for pkg in ("service", "check")
             for p in sorted((ROOT / "src" / "repro" / pkg).rglob("*.py"))]
    assert files
    assert [str(p.relative_to(ROOT)) for p in files if _imports_cli(p)] == []


def _digest(inputs: dict) -> str:
    h = hashlib.sha256()
    for name, value in inputs.items():
        arr = np.ascontiguousarray(np.asarray(value))
        h.update(f"{name}:{arr.dtype}:{arr.shape};".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", MODULES)
def test_random_inputs_golden(name):
    prog = builtin_program(name)
    want = json.loads(GOLDEN.read_text())[name]
    assert _digest(random_inputs(prog, CHECK_DATASETS[name][0], 7)) == want
