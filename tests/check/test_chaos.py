"""Chaos differential: fault injection must never change a result.

The in-process legs exercise the full matrix (serial chaos, checkpoint
resume, forced-path sweeps) over three benchmarks of different shape; the
subprocess tests are the real kill + ``--resume`` round-trip (an injected
``process_kill`` hard-exits the tuning process mid-search, exactly like
``kill -9``).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.check import chaos_plan, chaos_tune_check
from repro.check.chaos import DEFAULT_PROGRAMS
from repro.faults import FaultPlan, FaultRule

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def leg(report, name):
    return next(l for l in report.legs if l.name == name)


class TestChaosDifferential:
    @pytest.mark.parametrize("name", DEFAULT_PROGRAMS)
    def test_bit_identical_under_chaos(self, name):
        (report,) = chaos_tune_check(
            [name], seed=0, proposals=12, batch_size=4, max_paths=8,
        )
        detail = {l.name: l.detail for l in report.legs if not l.ok}
        assert report.ok, f"{name}: {detail}"
        assert [l.name for l in report.legs] == [
            "serial", "resume", "forced-paths"
        ]

    def test_unrecoverable_plan_is_rejected(self):
        bad = FaultPlan(rules=(
            FaultRule(site="sim.kernel", kind="launch", p=0.1),  # unbounded
        ))
        (report,) = chaos_tune_check(["matmul"], plan=bad)
        assert not report.ok
        assert "recoverable" in leg(report, "plan").detail

    def test_covers_at_least_three_benchmarks(self):
        assert len(DEFAULT_PROGRAMS) >= 3

    def test_chaos_plan_is_recoverable(self):
        plan = chaos_plan(seed=123)
        assert plan.max_total_fires() is not None
        assert plan.retries > plan.max_total_fires()


class TestKillResumeRoundTrip:
    """The subprocess analogue of CI's chaos smoke: a tuning process is
    hard-killed mid-search (exit 137), then ``--resume`` completes it to
    the bit-identical artifact an uninterrupted run produces."""

    def repro(self, *argv, cwd):
        env = dict(os.environ, PYTHONPATH=os.path.abspath(REPO_SRC))
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
        )

    def test_kill_resume_bit_identical(self, tmp_path):
        args = ("tune", "matmul", "--dataset", "n=32,m=1024",
                "--dataset", "n=1024,m=32", "--proposals", "16",
                "--checkpoint-every", "1")

        base = self.repro(*args, "--output", "base.tuning", cwd=tmp_path)
        assert base.returncode == 0, base.stderr

        kill_plan = tmp_path / "kill.json"
        kill_plan.write_text(json.dumps({
            "rules": [{"site": "tuner.batch", "kind": "process_kill",
                       "at": [6]}],
        }))
        killed = self.repro(*args, "--output", "out.tuning",
                            "--faults", str(kill_plan), cwd=tmp_path)
        assert killed.returncode == 137, (
            f"expected SIGKILL-style exit, got {killed.returncode}: "
            f"{killed.stderr}"
        )
        assert not (tmp_path / "out.tuning").exists()
        assert (tmp_path / "out.tuning.ckpt.json").exists()

        resumed = self.repro(*args, "--output", "out.tuning", "--resume",
                             cwd=tmp_path)
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming" in resumed.stdout

        a = json.loads((tmp_path / "base.tuning").read_text())
        b = json.loads((tmp_path / "out.tuning").read_text())
        assert a == b
        ta = json.loads((tmp_path / "base.tuning.telemetry.json").read_text())
        tb = json.loads((tmp_path / "out.tuning.telemetry.json").read_text())
        assert ta == tb
        # the successful resume cleans its checkpoint up
        assert not (tmp_path / "out.tuning.ckpt.json").exists()

    def test_checkpoint_survives_kill_during_write_window(self, tmp_path):
        # kill at the very first batch: the checkpoint may not exist yet,
        # in which case --resume must fail with a clear user error
        kill_plan = tmp_path / "kill.json"
        kill_plan.write_text(json.dumps({
            "rules": [{"site": "tuner.batch", "kind": "process_kill",
                       "at": [0]}],
        }))
        args = ("tune", "matmul", "--dataset", "n=32,m=1024",
                "--proposals", "8", "--output", "out.tuning")
        killed = self.repro(*args, "--faults", str(kill_plan), cwd=tmp_path)
        assert killed.returncode == 137
        ckpt = tmp_path / "out.tuning.ckpt.json"
        resumed = self.repro(*args, "--resume", cwd=tmp_path)
        if ckpt.exists():
            assert resumed.returncode == 0
        else:
            assert resumed.returncode == 2
            assert "repro: error:" in resumed.stderr
