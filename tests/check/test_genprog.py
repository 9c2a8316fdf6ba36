"""Generator, shrinker, fuzz driver, and regression-corpus replay."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from repro import perf
from repro.check.fuzz import check_recipe, load_corpus, run_fuzz
from repro.check.genprog import (
    build_program,
    random_recipe,
    recipe_datasets,
    recipes,
    shrink_recipe,
)

CORPUS_DIR = Path(__file__).parent.parent / "corpus"


def test_random_recipes_build_and_typecheck():
    rng = random.Random(42)
    for _ in range(25):
        recipe = random_recipe(rng)
        prog = build_program(recipe)  # Program.check() type-checks
        assert prog.params[0][0] == "xss"


def test_recipes_are_json_serialisable():
    rng = random.Random(7)
    recipe = random_recipe(rng)
    assert json.loads(json.dumps(recipe)) == recipe


def test_recipe_datasets_gives_two_shapes():
    recipe = {"sizes": {"n": 2, "m": 3}, "body": {"k": "mat", "e": {"k": "xss"}}}
    first, second = recipe_datasets(recipe)
    assert first == {"n": 2, "m": 3}
    assert second != first


def test_differential_on_random_recipes():
    rng = random.Random(3)
    for _ in range(10):
        report = check_recipe(random_recipe(rng))
        assert report.ok, report.to_json()


@given(recipes(max_depth=2))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_hypothesis_recipes_pass_differential(recipe):
    report = check_recipe(recipe)
    assert report.ok, report.to_json()


def test_shrinker_reaches_a_minimal_recipe():
    # "fails" whenever the body still contains a scan anywhere
    def has_scan(node):
        if isinstance(node, dict):
            return node.get("k") in ("scan", "scanmap") or any(
                has_scan(v) for v in node.values()
            )
        return False

    recipe = {
        "sizes": {"n": 4, "m": 4},
        "body": {
            "k": "rowsum",
            "s": {"k": "red", "op": "+",
                  "src": {"k": "vmap", "f": ["sq", "addc"],
                          "src": {"k": "scan", "op": "+", "src": {"k": "r"}}}},
            "src": {"k": "maprows", "row": {"k": "vmap", "f": ["neg"],
                                            "src": {"k": "r"}},
                    "src": {"k": "xss"}},
        },
    }
    shrunk = shrink_recipe(recipe, lambda r: has_scan(r["body"]))
    assert has_scan(shrunk["body"])
    # the wrapping vmap, the maprows decoration and the sizes must be gone
    assert shrunk["sizes"] == {"n": 1, "m": 1}
    assert json.dumps(shrunk).count('"k"') <= 5


def test_run_fuzz_clean_and_reports():
    report = run_fuzz(max_examples=15, seed=11)
    assert report.ok, [f.error for f in report.failures]
    doc = report.to_json()
    assert doc["examples"] == 15 and doc["ok"]
    assert doc["fusions"] == ["ilp", "off"] and doc["style"] == "default"


def test_fusion_style_recipes_hit_fusable_shapes():
    """The fusion-weighted grammar actually generates the shapes the ILP
    pass exists for (fan-out, shared producers), not just default noise."""
    blob = json.dumps(
        [random_recipe(random.Random(s), style="fusion") for s in range(40)]
    )
    assert '"share"' in blob and '"fansum"' in blob


def test_fusion_style_reaches_binds_and_stepped_folds():
    """The fusion-weighted grammar reaches the batched engines' binds by
    reference and by copy (``stencil``/``pick`` reads) and a stepped fold
    body (a ``sum`` over a ``stencil`` fuses into a fold over ``iota``
    that reads the enclosing row): the start of CI's fixed-seed slice."""
    keys = ("exec.bind.lane_mapped", "exec.bind.expanded", "exec.fold.stepped")
    before = perf.counters()
    report = run_fuzz(max_examples=11, seed=0, style="fusion")
    assert report.ok, [f.error for f in report.failures]
    after = perf.counters()
    assert all(after.get(k, 0) > before.get(k, 0) for k in keys), {
        k: after.get(k, 0) - before.get(k, 0) for k in keys
    }


def test_run_fuzz_fusion_style_clean():
    report = run_fuzz(max_examples=10, seed=5, style="fusion")
    assert report.ok, [f.error for f in report.failures]
    assert report.to_json()["style"] == "fusion"


def test_corpus_exists_and_replays():
    corpus = load_corpus(CORPUS_DIR)
    assert len(corpus) >= 5, "regression corpus went missing"
    for name, recipe in corpus:
        report = check_recipe(recipe, name=name)
        assert report.ok, (name, report.to_json())


@pytest.mark.parametrize(
    "name", ["dif_nontotal_branches", "dloop_batched_bound", "vintr_batched_intrinsic"]
)
def test_masked_corpus_entries_replay_without_fallback(name):
    """The entries built on the masked constructs run on both batched
    engines without a single per-lane fallback."""
    recipe = dict(load_corpus(CORPUS_DIR))[name]
    before = perf.counters().get("exec.scalar_fallbacks", 0)
    assert check_recipe(recipe, name=name).ok
    assert perf.counters().get("exec.scalar_fallbacks", 0) == before


@pytest.mark.parametrize(
    "kind",
    ["colred", "matloop", "vif", "sum", "scanmap", "dif", "dloop", "vintr",
     "share", "fansum", "stencil", "pick"],
)
def test_corpus_covers_flattening_rules(kind):
    """The seed corpus must keep exercising each interesting recipe kind."""
    blob = "".join(
        json.dumps(recipe) for _, recipe in load_corpus(CORPUS_DIR)
    )
    assert f'"{kind}"' in blob
