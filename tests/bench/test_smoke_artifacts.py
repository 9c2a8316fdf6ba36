"""A smoke run of a ``BENCH_*.json`` script never overwrites the committed
full-mode artifact: it writes a git-ignored ``BENCH_<name>.smoke.json``."""

import fnmatch
import importlib.util
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = ["exec_engine", "fusion", "guard", "online_tuning", "service"]


def _load(name: str):
    path = ROOT / "benchmarks" / f"bench_{name}.py"
    spec = importlib.util.spec_from_file_location(f"_smoke_probe_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = saved
    return mod


def _ignored(basename: str) -> bool:
    patterns = [
        line.strip() for line in (ROOT / ".gitignore").read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return any(fnmatch.fnmatch(basename, p) for p in patterns)


@pytest.mark.parametrize("name", SCRIPTS)
def test_smoke_run_writes_its_own_ignored_file(name, monkeypatch):
    mod = _load(name)
    full = os.path.abspath(mod.OUT_PATH)
    smoke = os.path.abspath(mod.SMOKE_OUT_PATH)
    assert smoke != full
    assert os.path.basename(full) == f"BENCH_{name}.json"
    assert _ignored(os.path.basename(smoke))
    assert not _ignored(os.path.basename(full))

    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    assert os.path.abspath(mod._out_path()) == smoke
    monkeypatch.delenv("REPRO_BENCH_SMOKE")
    assert os.path.abspath(mod._out_path()) == full
