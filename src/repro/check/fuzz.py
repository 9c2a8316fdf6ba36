"""Fuzzing driver: generated programs through the differential executor.

:func:`run_fuzz` draws recipes from :mod:`repro.check.genprog`, compiles
each under every flattening mode, and runs the forced-path differential
check.  Failures are shrunk to a minimal recipe and reported as corpus
entries (JSON documents ready to be dropped into ``tests/corpus/`` as
regression tests).  :func:`load_corpus` / :func:`check_recipe` replay
such entries.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.check.differential import (
    ENGINES,
    FUSIONS,
    ProgramReport,
    differential_check,
)
from repro.check.genprog import (
    build_program,
    random_recipe,
    recipe_datasets,
    shrink_recipe,
)
from repro.ir.traverse import reset_fresh_names
from repro.request import MODES

__all__ = ["FuzzFailure", "FuzzReport", "check_recipe", "load_corpus", "run_fuzz"]


@dataclass
class FuzzFailure:
    """A counterexample: the shrunk recipe plus how it failed."""

    index: int
    recipe: dict
    shrunk: dict
    error: str

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "recipe": self.recipe,
            "shrunk": self.shrunk,
            "error": self.error,
        }

    def corpus_entry(self, note: str = "fuzz-found counterexample") -> dict:
        """A document in the ``tests/corpus/`` format."""
        return {"note": note, "error": self.error, **self.shrunk}


@dataclass
class FuzzReport:
    examples: int
    seed: int
    modes: tuple[str, ...]
    engines: tuple[str, ...] = ENGINES
    fusions: tuple[str, ...] = FUSIONS
    style: str = "default"
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "kind": "fuzz",
            "ok": self.ok,
            "examples": self.examples,
            "seed": self.seed,
            "modes": list(self.modes),
            "engines": list(self.engines),
            "fusions": list(self.fusions),
            "style": self.style,
            "failures": [f.to_json() for f in self.failures],
        }


def check_recipe(
    recipe: dict,
    *,
    modes: Sequence[str] = MODES,
    max_paths: int = 1024,
    name: str = "gen",
    engines: Sequence[str] = ENGINES,
    fusions: Sequence[str] = FUSIONS,
) -> ProgramReport:
    """Differential-check one recipe on its own and a derived dataset.

    Every forced path runs under every engine in ``engines`` (default:
    scalar oracle *and* vectorizing executor) and every fusion mode in
    ``fusions`` (default: ILP fusion *and* fusion off), so fuzzing hunts
    flattening bugs, vectorization bugs, and fusion bugs with the same
    examples.  Float overflow to ``inf`` is expected for generated
    programs (chained ``*`` folds) and harmless — both sides fold
    identically — so numpy warnings are silenced for the duration of the
    check.
    """
    import numpy as np

    reset_fresh_names()
    prog = build_program(recipe, name=name)
    with np.errstate(all="ignore"):
        return differential_check(
            prog,
            recipe_datasets(recipe),
            modes=tuple(modes),
            max_paths=max_paths,
            engines=tuple(engines),
            fusions=tuple(fusions),
        )


def _failure_message(report: ProgramReport) -> str:
    for ds in report.datasets:
        if ds.error:
            return f"source interpreter on {ds.sizes}: {ds.error}"
        for mr in ds.modes:
            leg = f"mode {mr.mode}/fusion {mr.fusion}"
            if mr.error:
                return f"{leg} on {ds.sizes}: {mr.error}"
            for po in mr.failures:
                return f"{leg} on {ds.sizes}: path {po.thresholds}: {po.detail}"
    return "unknown failure"


def run_fuzz(
    max_examples: int = 200,
    seed: int = 0,
    *,
    modes: Sequence[str] = MODES,
    max_depth: int = 3,
    max_paths: int = 1024,
    engines: Sequence[str] = ENGINES,
    fusions: Sequence[str] = FUSIONS,
    style: str = "default",
    corpus_dir: str | Path | None = None,
    on_example=None,
) -> FuzzReport:
    """Fuzz the pipeline with ``max_examples`` generated programs.

    ``style`` selects the recipe grammar weighting (``"fusion"`` biases
    generation toward fusable producer/consumer chains and fan-out
    shapes); ``fusions`` selects which fusion modes every forced path is
    replayed under.  Every failing example is shrunk with
    :func:`shrink_recipe` before being recorded, so the report's corpus
    entries are already minimal.  The shrink predicate replays *all*
    requested ``engines`` and ``fusions``, so a shrunk recipe keeps
    failing on whichever leg diverged — fusion and vectorization bugs
    shrink just like flattening bugs.  With ``corpus_dir`` set, each
    shrunk counterexample is also written there as a ``tests/corpus/``-
    format JSON document (``fuzz_<seed>_<index>.json``), ready to become a
    regression test.  ``on_example`` (if given) is called as
    ``on_example(i, ok)`` after each example, for progress display.
    """
    rng = random.Random(seed)
    report = FuzzReport(
        examples=max_examples, seed=seed, modes=tuple(modes),
        engines=tuple(engines), fusions=tuple(fusions), style=style,
    )

    def fails(recipe: dict) -> bool:
        return not check_recipe(
            recipe, modes=modes, max_paths=max_paths, engines=engines,
            fusions=fusions,
        ).ok

    for i in range(max_examples):
        recipe = random_recipe(rng, max_depth=max_depth, style=style)
        try:
            ok = not fails(recipe)
            error = None
        except Exception as ex:  # compile/validate/interpret crash
            ok = False
            error = f"{type(ex).__name__}: {ex}"
        if not ok:
            def still_fails(r: dict) -> bool:
                try:
                    return fails(r)
                except Exception:
                    return True

            shrunk = shrink_recipe(recipe, still_fails)
            if error is None:
                try:
                    error = _failure_message(
                        check_recipe(
                            shrunk, modes=modes, max_paths=max_paths,
                            engines=engines, fusions=fusions,
                        )
                    )
                except Exception as ex:
                    error = f"{type(ex).__name__}: {ex}"
            failure = FuzzFailure(index=i, recipe=recipe, shrunk=shrunk, error=error)
            report.failures.append(failure)
            if corpus_dir is not None:
                directory = Path(corpus_dir)
                directory.mkdir(parents=True, exist_ok=True)
                path = directory / f"fuzz_{seed}_{i}.json"
                from repro.ioutil import atomic_write_json

                atomic_write_json(str(path), failure.corpus_entry(), indent=2)
        if on_example is not None:
            on_example(i, ok)
    return report


def load_corpus(directory: str | Path) -> list[tuple[str, dict]]:
    """Load ``(name, recipe)`` pairs from every ``*.json`` corpus file."""
    out: list[tuple[str, dict]] = []
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        if "body" not in doc:
            # not a recipe: e.g. a "guard-divergence" document landed by
            # the execution guard's spot verifier (docs/guarded-execution.md)
            continue
        out.append((path.stem, doc))
    return out
