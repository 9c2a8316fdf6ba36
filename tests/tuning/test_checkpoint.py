"""Crash-safe checkpoints: round-trip, mismatch detection, atomic writes."""

import json
import os

import pytest

from repro.compiler import compile_program
from repro.gpu import K40, VEGA64
from repro.ioutil import atomic_write_json, atomic_write_text
from repro.tuning import (
    Autotuner,
    TuningFileError,
    checkpoint_path,
    load_checkpoint,
    save_checkpoint,
    save_thresholds,
)

from repro.bench.programs.locvolcalib import locvolcalib_program, locvolcalib_sizes
from repro.bench.programs.matmul import matmul_program, matmul_sizes


@pytest.fixture(scope="module")
def matmul_if():
    return compile_program(matmul_program(), "incremental")


@pytest.fixture(scope="module")
def train():
    return [matmul_sizes(e, 20) for e in (2, 6, 10)]


class TestRoundTrip:
    def test_save_load_preserves_state(self, matmul_if, train, tmp_path):
        tuner = Autotuner(matmul_if, train, K40, seed=5, noise=0.02)
        result = tuner.tune(max_proposals=20)
        ckpt = str(tmp_path / "m.tuning.ckpt.json")
        save_checkpoint(ckpt, tuner, 20, result.best_thresholds,
                        result.best_cost)
        doc = load_checkpoint(ckpt, matmul_if, device="K40", datasets=train)
        assert doc["seed"] == 5 and doc["noise"] == 0.02
        assert doc["proposals_done"] == 20
        assert doc["best_thresholds"] == result.best_thresholds
        assert doc["best_cost"] == result.best_cost
        assert doc["measurements"] == tuner.measurements()
        assert doc["quarantined"] == tuner.quarantine_list()

    def test_checkpoint_includes_preloaded_measurements(
        self, matmul_if, train, tmp_path
    ):
        # a resumed run's checkpoint must carry the measurements it was
        # itself resumed from, or a second resume would lose them
        first = Autotuner(matmul_if, train, K40, seed=5)
        first.tune(max_proposals=10)
        resumed = Autotuner(matmul_if, train, K40, seed=5)
        resumed.preload_measurements(first.measurements())
        ckpt = str(tmp_path / "second.ckpt.json")
        save_checkpoint(ckpt, resumed, 0, None, None)
        doc = load_checkpoint(ckpt)
        assert doc["measurements"] == first.measurements()

    def test_resume_after_deadline_matches_uninterrupted(
        self, matmul_if, train, tmp_path
    ):
        full = Autotuner(matmul_if, train, K40, seed=5, noise=0.03).tune(
            max_proposals=30
        )
        # the interrupted run: a deadline stops it partway through, but
        # every measurement made so far is in the checkpoint
        ckpt = str(tmp_path / "m.tuning.ckpt.json")
        partial = Autotuner(matmul_if, train, K40, seed=5, noise=0.03)
        partial.tune(max_proposals=15, checkpoint_path=ckpt,
                     checkpoint_every=1)
        doc = load_checkpoint(ckpt, matmul_if, device="K40", datasets=train)
        resumed = Autotuner(matmul_if, train, K40, seed=doc["seed"],
                            noise=doc["noise"])
        resumed.preload_measurements(doc["measurements"], doc["quarantined"])
        replay = resumed.tune(max_proposals=30)
        assert replay.best_thresholds == full.best_thresholds
        assert replay.best_cost == full.best_cost
        assert replay.full_history == full.full_history


class TestMismatchDetection:
    @pytest.fixture()
    def ckpt(self, matmul_if, train, tmp_path):
        tuner = Autotuner(matmul_if, train, K40, seed=0)
        tuner.tune(max_proposals=5)
        path = str(tmp_path / "m.ckpt.json")
        save_checkpoint(path, tuner, 5, tuner.space.default_config(), 1.0)
        return path

    def test_program_mismatch(self, ckpt):
        other = compile_program(locvolcalib_program(), "incremental")
        with pytest.raises(TuningFileError, match="program"):
            load_checkpoint(ckpt, other)

    def test_branching_tree_mismatch(self, ckpt):
        moderate = compile_program(matmul_program(), "moderate")
        with pytest.raises(TuningFileError, match="branching tree"):
            load_checkpoint(ckpt, moderate)

    def test_device_mismatch(self, ckpt):
        with pytest.raises(TuningFileError, match="device"):
            load_checkpoint(ckpt, device=VEGA64.name)

    def test_dataset_mismatch(self, ckpt):
        with pytest.raises(TuningFileError, match="datasets"):
            load_checkpoint(ckpt, datasets=[matmul_sizes(3, 20)])

    def test_not_a_checkpoint(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text('{"kind": "something-else"}')
        with pytest.raises(TuningFileError, match="not a tuning checkpoint"):
            load_checkpoint(str(p))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{torn")
        with pytest.raises(TuningFileError, match="not a tuning checkpoint"):
            load_checkpoint(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TuningFileError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.json"))


class TestAtomicWrites:
    def test_failed_replace_preserves_old_content(self, tmp_path, monkeypatch):
        target = tmp_path / "doc.json"
        atomic_write_json(str(target), {"v": 1})

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_json(str(target), {"v": 2})
        assert json.loads(target.read_text()) == {"v": 1}  # old doc intact
        assert list(tmp_path.glob("*.tmp")) == []  # temp file cleaned up

    def test_serialisation_error_touches_nothing(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(str(target), {"v": 1})
        with pytest.raises(TypeError):
            atomic_write_json(str(target), {"v": object()})
        assert json.loads(target.read_text()) == {"v": 1}
        assert list(tmp_path.glob("*.tmp")) == []

    def test_text_write_round_trip(self, tmp_path):
        target = tmp_path / "t.txt"
        atomic_write_text(str(target), "hello\n")
        atomic_write_text(str(target), "world\n")
        assert target.read_text() == "world\n"

    def test_save_thresholds_is_atomic(
        self, matmul_if, tmp_path, monkeypatch
    ):
        target = tmp_path / "m.tuning"
        cfg = {t: 16 for t in matmul_if.thresholds()}
        save_thresholds(str(target), matmul_if, cfg, device="K40")
        before = target.read_text()

        def boom(src, dst):
            raise OSError("kill -9 landed here")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            save_thresholds(
                str(target), matmul_if,
                {t: 32 for t in matmul_if.thresholds()}, device="K40",
            )
        assert target.read_text() == before

    def test_checkpoint_path_convention(self):
        assert checkpoint_path("out/m.tuning") == "out/m.tuning.ckpt.json"
