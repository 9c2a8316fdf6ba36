"""Round-trip and staleness detection for tuning-file persistence.

``load_thresholds`` must accept an exact match unchanged and reject a file
whose branching-tree hash, threshold set, device, or program no longer
match the compiled program it is applied to."""

import json

import pytest

from repro.bench.programs.matmul import matmul_program, matmul_sizes
from repro.compiler import compile_program
from repro.gpu import K40
from repro.tuning import (
    Autotuner,
    TuningFileError,
    branching_tree_hash,
    load_thresholds,
    save_telemetry,
    save_thresholds,
    telemetry_path,
)


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


@pytest.fixture()
def tuning_file(matmul_if, tmp_path):
    path = tmp_path / "matmul.tuning"
    cfg = {name: 64 for name in matmul_if.thresholds()}
    save_thresholds(str(path), matmul_if, cfg, device="K40")
    return path, cfg


class TestRoundTrip:
    def test_exact_match_loads_unchanged(self, matmul_if, tuning_file):
        path, cfg = tuning_file
        assert load_thresholds(str(path), matmul_if, device="K40") == cfg

    def test_partial_assignment_round_trips(self, matmul_if, tmp_path):
        path = tmp_path / "partial.tuning"
        first = matmul_if.thresholds()[0]
        save_thresholds(str(path), matmul_if, {first: 7})
        assert load_thresholds(str(path), matmul_if) == {first: 7}

    def test_load_without_program_skips_structural_checks(self, tuning_file):
        path, cfg = tuning_file
        assert load_thresholds(str(path)) == cfg

    def test_file_contents_are_stable_json(self, matmul_if, tuning_file):
        path, cfg = tuning_file
        doc = json.loads(path.read_text())
        assert doc["program"] == matmul_if.prog.name
        assert doc["device"] == "K40"
        assert doc["thresholds"] == cfg
        assert doc["branching_tree"] == branching_tree_hash(matmul_if)


class TestStaleness:
    def test_rejects_changed_branching_tree(self, matmul_if, tuning_file):
        path, _ = tuning_file
        doc = json.loads(path.read_text())
        doc["branching_tree"] = "0" * 64
        path.write_text(json.dumps(doc))
        with pytest.raises(TuningFileError, match="branching tree"):
            load_thresholds(str(path), matmul_if)

    def test_greedy_file_asks_for_a_retune(self, matmul_if, tuning_file):
        # no user setting selects greedy, so the error must not suggest one
        path, _ = tuning_file
        doc = json.loads(path.read_text())
        doc["fusion"] = "greedy"
        path.write_text(json.dumps(doc))
        with pytest.raises(TuningFileError, match="fusion mode 'greedy'") as exc:
            load_thresholds(str(path), matmul_if)
        assert str(exc.value).endswith("(stale tuning file? re-tune)")

    def test_rejects_unknown_threshold_names(self, matmul_if, tuning_file):
        path, _ = tuning_file
        doc = json.loads(path.read_text())
        doc["thresholds"]["t_deleted"] = 3
        path.write_text(json.dumps(doc))
        with pytest.raises(TuningFileError, match="threshold names"):
            load_thresholds(str(path), matmul_if)

    def test_rejects_other_device(self, tuning_file):
        path, _ = tuning_file
        with pytest.raises(TuningFileError, match="device"):
            load_thresholds(str(path), device="Vega64")

    def test_accepts_file_without_device_on_any_device(self, matmul_if, tmp_path):
        path = tmp_path / "nodev.tuning"
        save_thresholds(str(path), matmul_if, {matmul_if.thresholds()[0]: 4})
        assert load_thresholds(str(path), matmul_if, device="Vega64")

    def test_rejects_other_program(self, matmul_if, tuning_file):
        from repro.bench.programs.nw import nw_program

        path, _ = tuning_file
        other = compile_program(nw_program(), "incremental")
        with pytest.raises(TuningFileError, match="tuned for program"):
            load_thresholds(str(path), other)

    def test_rejects_other_mode_of_same_program(self, tuning_file):
        """Moderate flattening has a different branching tree (none), so a
        file tuned for incremental must not apply."""
        path, _ = tuning_file
        moderate = compile_program(matmul_program(), "moderate")
        with pytest.raises(TuningFileError):
            load_thresholds(str(path), moderate)

    def test_rejects_unsupported_format(self, matmul_if, tuning_file):
        path, _ = tuning_file
        doc = json.loads(path.read_text())
        doc["format"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(TuningFileError, match="unsupported format"):
            load_thresholds(str(path), matmul_if)

    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "garbage.tuning"
        path.write_text("not json {")
        with pytest.raises(TuningFileError, match="not a tuning file"):
            load_thresholds(str(path))


class TestTelemetry:
    def test_save_telemetry_alongside_tuning_file(self, matmul_if, tmp_path):
        tuner = Autotuner(matmul_if, [matmul_sizes(4, 20)], K40, seed=0)
        res = tuner.tune(max_proposals=10)
        tuning = tmp_path / "m.tuning"
        save_thresholds(str(tuning), matmul_if, res.best_thresholds, device="K40")
        tpath = telemetry_path(str(tuning))
        save_telemetry(tpath, res, matmul_if, device="K40")
        doc = json.loads(open(tpath).read())
        assert doc["kind"] == "tuning-telemetry"
        assert doc["program"] == matmul_if.prog.name
        assert doc["device"] == "K40"
        assert doc["branching_tree"] == branching_tree_hash(matmul_if)
        assert doc["proposals"] == 10
        assert doc["best_thresholds"] == res.best_thresholds
