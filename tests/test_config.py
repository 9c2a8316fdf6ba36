"""The process configuration (:mod:`repro.config`).

The config is resolved once per process, so cases that need a different
environment run ``repro`` in a fresh interpreter.
"""

import ast
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config
from repro.config import Config, ConfigError

SRC = Path(__file__).resolve().parent.parent / "src"


def fresh(env_updates: dict, *args: str) -> subprocess.CompletedProcess:
    """``python ARGS`` in a fresh interpreter with no inherited ``REPRO_*``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(env_updates, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)


class TestDesign:
    def test_every_field_is_classified_once(self):
        names = [f.name for f in dataclasses.fields(Config)]
        classified = config.RESULT_AFFECTING + config.RESULT_NEUTRAL
        assert sorted(classified) == sorted(names)

    def test_result_affecting_is_the_fusion_mode(self):
        assert Config(fusion="off").result_affecting() == {"fusion": "off"}

    def test_defaults_pinned(self):
        cfg = Config.from_env({})
        assert cfg == Config()
        assert (cfg.fusion, cfg.engine) == ("ilp", "scalar")

    def test_only_config_reads_the_environment(self):
        readers = {"environ", "environb", "getenv", "putenv", "unsetenv"}
        found = []
        for path in sorted((SRC / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Attribute) and node.attr in readers
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "os"):
                    found.append(path.relative_to(SRC).as_posix())
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    if readers & {alias.name for alias in node.names}:
                        found.append(path.relative_to(SRC).as_posix())
        assert sorted(set(found)) == ["repro/config.py"]


class TestGrammar:
    @pytest.mark.parametrize("raw, cache", [("1", False), ("0", True), ("", True)])
    def test_no_cache_flag(self, raw, cache):
        assert Config.from_env({"REPRO_NO_CACHE": raw}).cache is cache

    @pytest.mark.parametrize("raw, guard", [("0", False), ("1", True), ("", True)])
    def test_guard_flag(self, raw, guard):
        assert Config.from_env({"REPRO_GUARD": raw}).guard is guard

    def test_values(self):
        cfg = Config.from_env({
            "REPRO_FUSION": "off", "REPRO_EXEC": "codegen",
            "REPRO_VALIDATE": "1", "REPRO_GUARD_TRIP": "7",
            "REPRO_CODEGEN_CACHE": "/var/cache/k", "REPRO_CORPUS_DIR": "/c",
        })
        assert cfg == Config(fusion="off", engine="codegen", validate=True,
                             guard_trip=7, codegen_cache="/var/cache/k",
                             corpus_dir="/c")

    @pytest.mark.parametrize("var, raw", [
        ("REPRO_GUARD_TRIP", "0"), ("REPRO_GUARD_TRIP", "-1"),
        ("REPRO_GUARD_TRIP", "2.5"), ("REPRO_VALIDATE", "true"),
        ("REPRO_FUSION", "greedy"),
    ])
    def test_rejects(self, var, raw):
        with pytest.raises(ConfigError, match=var):
            Config.from_env({var: raw})


class TestResolution:
    def test_use_restores(self):
        before = config.current()
        with config.use(dataclasses.replace(before, engine="vector")) as cfg:
            assert config.current() is cfg
        assert config.current() is before

    def test_resolved_on_first_call_not_at_import(self, tmp_path):
        # perfbench imports the package before it sets these variables
        code = (
            "import os, repro.cli, repro.compiler\n"
            "from repro.exec import compile_cache, guard\n"
            f"os.environ['REPRO_CODEGEN_CACHE'] = {str(tmp_path / 'k')!r}\n"
            f"os.environ['REPRO_CORPUS_DIR'] = {str(tmp_path / 'c')!r}\n"
            "print(compile_cache.cache_dir(), guard.corpus_dir())\n"
        )
        proc = fresh({}, "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(tmp_path / "k"), str(tmp_path / "c")]


# one malformed value per variable the config reads
MALFORMED = {
    "REPRO_FUSION": "greedy",
    "REPRO_EXEC": "vectr",
    "REPRO_VALIDATE": "yes",
    "REPRO_NO_CACHE": "true",
    "REPRO_GUARD": "false",
    "REPRO_GUARD_TRIP": "three",
    "REPRO_CODEGEN_CACHE": "relative/kcache",
    "REPRO_CORPUS_DIR": "corpus",
}


@pytest.mark.parametrize("var", sorted(MALFORMED))
def test_malformed_variable_exits_2(var):
    proc = fresh({var: MALFORMED[var]}, "-m", "repro", "show", "matmul")
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error: "), lines
    assert f"{var}={MALFORMED[var]!r}" in lines[0]
    assert proc.stdout == ""


def test_config_covers_every_variable():
    assert sorted(MALFORMED) == sorted(config._VARIABLES)
