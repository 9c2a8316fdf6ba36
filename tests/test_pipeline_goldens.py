"""Golden files for what the whole pipeline produces.

Two goldens pin the compiler, the exhaustive tuner and the GPU cost
simulator down to the last bit, so a change that is meant to make them
faster, and nothing else, shows any drift as a failing test:

* ``pipeline_programs.json`` — the sha256 of every compiled benchmark
  program's printed body (10 programs × 3 flattening modes × 2 fusion
  modes), each compiled from a reset fresh-name counter;
* ``figure_rows.txt`` — the exact ``repr`` of every Fig. 2, 7 and 8 row
  on both devices, so every simulated cost and every tuner choice is
  compared as the float it is.

After an intentional change, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_pipeline_goldens.py --update-goldens

and review the diff like any other source change.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro import perf
from repro.bench.programs import MODULES, program_constructor
from repro.compiler import compile_program
from repro.ir.pretty import pretty
from repro.ir.traverse import reset_fresh_names

GOLDEN_DIR = Path(__file__).parent / "goldens"
PROGRAMS_GOLDEN = GOLDEN_DIR / "pipeline_programs.json"
ROWS_GOLDEN = GOLDEN_DIR / "figure_rows.txt"

MODES = ("moderate", "incremental", "full")
FUSIONS = ("ilp", "off")


def _program_digests() -> dict[str, str]:
    out = {}
    for name in MODULES:
        for mode in MODES:
            for fusion in FUSIONS:
                # the fresh-name counter is global state: reset it so the
                # printed program does not depend on what ran before
                reset_fresh_names()
                cp = compile_program(program_constructor(name)(), mode, fusion=fusion)
                text = pretty(cp.body)
                out[f"{name}/{mode}/{fusion}"] = hashlib.sha256(
                    text.encode()
                ).hexdigest()
    return out


def _figure_rows() -> str:
    from repro.bench import runner
    from repro.gpu.device import K40, VEGA64

    perf.clear_caches()
    lines = []
    for device in (K40, VEGA64):
        lines += [f"fig2 {row!r}" for row in runner.fig2_rows(device)]
    lines += [f"fig7 {row!r}" for row in runner.fig7_rows((K40, VEGA64))]
    lines += [f"fig8 {row!r}" for row in runner.fig8_rows((K40, VEGA64))]
    return "\n".join(lines) + "\n"


def _compare(path: Path, got: str, update: bool) -> None:
    if update:
        path.write_text(got)
        pytest.skip(f"updated {path}")
    assert path.exists(), (
        f"missing golden {path}; run pytest with --update-goldens to create it"
    )
    want = path.read_text()
    if got != want:
        diff = [
            f"  - {w}\n  + {g}"
            for w, g in zip(want.splitlines(), got.splitlines())
            if w != g
        ]
        raise AssertionError(
            f"{path.name} differs in {len(diff)} line(s) (or in length); if "
            f"the change is intentional, regenerate with --update-goldens\n"
            + "\n".join(diff[:10])
        )


def test_compiled_programs_print_as_pinned(update_goldens, configure):
    configure(fusion="ilp")
    got = json.dumps(_program_digests(), indent=1, sort_keys=True) + "\n"
    _compare(PROGRAMS_GOLDEN, got, update_goldens)


def test_figure_rows_are_pinned_to_the_bit(update_goldens, configure):
    configure(fusion="ilp")
    _compare(ROWS_GOLDEN, _figure_rows(), update_goldens)


def test_golden_keys_cover_every_program_mode_and_fusion():
    if not PROGRAMS_GOLDEN.exists():
        pytest.skip("golden not generated yet")
    keys = set(json.loads(PROGRAMS_GOLDEN.read_text()))
    assert keys == {
        f"{n}/{m}/{f}" for n in MODULES for m in MODES for f in FUSIONS
    }
    rows = ROWS_GOLDEN.read_text().splitlines()
    # Fig. 2: 11 sizes per device; Fig. 7: 3 datasets per device;
    # Fig. 8: 8 benchmarks x 2 datasets per device
    assert len(rows) == 2 * 11 + 2 * 3 + 2 * 8 * 2
