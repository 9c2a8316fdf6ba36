"""CLI tests (direct main() invocation)."""

import json
from pathlib import Path

import pytest

from repro import config
from repro.cli import main
from tests.test_config import fresh


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        code, out = run(capsys, "list")
        assert code == 0
        for name in ("matmul", "LocVolCalib", "Heston", "Pathfinder"):
            assert name in out


class TestShow:
    def test_show_moderate(self, capsys):
        code, out = run(capsys, "show", "matmul", "--mode", "moderate")
        assert code == 0
        assert "segmap^1" in out
        assert "redomap" in out

    def test_show_incremental_tree(self, capsys):
        code, out = run(capsys, "show", "matmul", "--tree")
        assert code == 0
        assert "t0" in out and "V0" in out

    def test_case_insensitive(self, capsys):
        code, _ = run(capsys, "show", "locvolcalib", "--mode", "moderate")
        assert code == 0

    def test_unknown_program(self, capsys):
        assert main(["show", "does-not-exist"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "does-not-exist" in err
        assert len(err.strip().splitlines()) == 1  # one-line message

    def test_show_parsed_file(self, capsys, tmp_path):
        f = tmp_path / "sumsq.fut"
        f.write_text(
            "def sumsq(xss: [n][m]f32) =\n"
            "  map (\\row -> redomap (+) (\\x -> x * x) 0.0 row) xss\n"
        )
        code, out = run(capsys, "show", str(f))
        assert code == 0
        assert "segred" in out or "segmap" in out


class TestRun:
    def test_run_matmul(self, capsys):
        code, out = run(capsys, "run", "matmul", "--size", "n=3,m=4")
        assert code == 0
        assert "shape=(3, 3)" in out

    def test_run_deterministic_seed(self, capsys):
        _, a = run(capsys, "run", "matmul", "--size", "n=2,m=2", "--seed", "7")
        _, b = run(capsys, "run", "matmul", "--size", "n=2,m=2", "--seed", "7")
        assert a == b

    def test_run_with_thresholds(self, capsys):
        code, _ = run(
            capsys, "run", "matmul", "--size", "n=2,m=2",
            "--threshold", "t0=1",
        )
        assert code == 0

    def test_run_exec_engines_agree(self, capsys):
        _, a = run(capsys, "run", "matmul", "--size", "n=3,m=4",
                   "--exec", "scalar")
        _, b = run(capsys, "run", "matmul", "--size", "n=3,m=4",
                   "--exec", "vector")
        assert a == b  # printed heads are bit-identical


class TestSimulate:
    def test_simulate(self, capsys):
        code, out = run(capsys, "simulate", "matmul", "--size", "n=64,m=64")
        assert code == 0
        assert "ms" in out and "kernels" in out

    def test_simulate_vega(self, capsys):
        _, k40 = run(capsys, "simulate", "matmul", "--size", "n=64,m=64")
        _, vega = run(
            capsys, "simulate", "matmul", "--size", "n=64,m=64",
            "--device", "Vega64",
        )
        assert k40 != vega

    def test_kernel_breakdown(self, capsys):
        code, out = run(
            capsys, "simulate", "matmul", "--size", "n=64,m=64", "--kernels"
        )
        assert code == 0
        assert "lvl" in out

    def test_simulate_heals_recoverable_faults(self, capsys):
        # a bare simulate has no tuner above it to retry, so the CLI
        # self-heals transient injected faults; output must match fault-free
        _, clean = run(capsys, "simulate", "matmul", "--size", "n=64,m=64")
        plan = (
            '{"retries": 8, "rules": [{"site": "sim.kernel", '
            '"kind": "launch", "p": 0.3, "max_fires": 4}]}'
        )
        code, chaos = run(
            capsys, "simulate", "matmul", "--size", "n=64,m=64",
            "--faults", plan,
        )
        assert code == 0
        assert chaos == clean

    def test_bad_size_syntax(self, capsys):
        assert main(["simulate", "matmul", "--size", "n:64"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_non_integer_size(self, capsys):
        assert main(["simulate", "matmul", "--size", "n=big"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_missing_size_variable_exits_2(self, capsys):
        assert main(["simulate", "matmul", "--size", "bogus=64"]) == 2
        err = capsys.readouterr().err
        assert "m, n" in err and "bogus" in err

    def test_run_missing_size_variable_exits_2(self, capsys):
        assert main(["run", "matmul", "--size", "n=4"]) == 2
        assert "--size value(s) for m" in capsys.readouterr().err

    def test_tune_missing_dataset_variable_exits_2(self, capsys):
        assert main(["tune", "matmul", "--dataset", "n=64"]) == 2
        assert "--dataset value(s) for m" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_run_zero_extent_exits_2(self, capsys, engine):
        code = main(["run", "pathfinder", "--size", "numB=2,rows=4,cols=0",
                     "--exec", engine])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: error:") and "walls (cols=0)" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_negative_size_exits_2(self, capsys, command):
        assert main([command, "pathfinder", "--size", "numB=2,rows=4,cols=-3"]) == 2
        err = capsys.readouterr().err
        assert "non-negative" in err and "cols=-3" in err

    def test_tune_negative_dataset_exits_2(self, capsys):
        assert main(["tune", "matmul", "--dataset", "n=-1,m=4"]) == 2
        assert "--dataset values must be non-negative: n=-1" in capsys.readouterr().err

    def test_zero_loop_bound_still_runs(self, capsys):
        code, out = run(capsys, "run", "srad", "--size", "numB=1,H=4,W=4,numIter=0",
                        "--exec", "vector")
        assert code == 0 and "shape=(1, 4, 4)" in out


class TestFusionFlag:
    def test_show_reports_fusion_mode(self, capsys):
        for fusion in ("ilp", "off"):
            code, out = run(capsys, "show", "matmul", "--fusion", fusion)
            assert code == 0
            assert f"fusion={fusion}" in out

    def test_run_bit_identical_across_fusion_modes(self, capsys):
        outs = {
            fusion: run(capsys, "run", "NN", "--size", "numB=4,numP=16",
                        "--fusion", fusion)
            for fusion in ("ilp", "off")
        }
        assert all(code == 0 for code, _ in outs.values())
        assert outs["ilp"][1] == outs["off"][1]

    def test_bad_fusion_env_exits_2(self):
        # a fresh interpreter: this one resolved its config already
        proc = fresh({"REPRO_FUSION": "bogus"}, "-m", "repro", "show", "matmul")
        assert proc.returncode == 2
        assert proc.stderr == (
            "repro: error: REPRO_FUSION='bogus': expected one of ilp, off\n"
        )

    def test_greedy_is_not_a_user_fusion_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["show", "matmul", "--fusion", "greedy"])
        assert exc.value.code == 2
        assert "invalid choice: 'greedy'" in capsys.readouterr().err

    def test_stale_tuning_file_from_other_fusion_mode_exits_2(
        self, capsys, tmp_path, configure
    ):
        # the replay leg must resolve to the default (ilp) pipeline even
        # when the suite runs under an exported REPRO_FUSION
        configure(fusion="ilp")
        out_file = tmp_path / "m.tuning"
        assert main(["tune", "matmul", "--dataset", "n=32,m=1024",
                     "--proposals", "6", "--fusion", "off",
                     "--output", str(out_file)]) == 0
        capsys.readouterr()
        # replaying under the (default) ILP pipeline must refuse loudly
        # rather than silently applying mismatched thresholds
        code = main(["simulate", "matmul", "--size", "n=8,m=8",
                     "--tuning", str(out_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:")
        assert "fusion mode 'off'" in err and "'ilp'" in err
        assert "pass --fusion off" in err
        # the matching mode still accepts it
        assert main(["simulate", "matmul", "--size", "n=8,m=8",
                     "--fusion", "off", "--tuning", str(out_file)]) == 0

    def test_check_single_fusion_leg(self, capsys):
        code, out = run(
            capsys, "check", "matmul", "--mode", "incremental",
            "--exec", "scalar", "--max-paths", "8", "--fusion", "ilp",
        )
        assert code == 0
        assert "check: ok" in out


class TestTune:
    def test_exhaustive(self, capsys):
        code, out = run(
            capsys, "tune", "matmul",
            "--dataset", "n=4,m=65536", "--dataset", "n=1024,m=32",
            "--technique", "exhaustive",
        )
        assert code == 0
        assert "best thresholds" in out

    def test_exhaustive_over_cap_exits_2(self, capsys, monkeypatch):
        """The cap's refusal is a one-line user error, not a traceback."""
        import repro.tuning

        real = repro.tuning.exhaustive_tune
        monkeypatch.setattr(
            repro.tuning, "exhaustive_tune",
            lambda *a, **kw: real(*a, max_configs=2, **kw),
        )
        code = main(["tune", "matmul", "--technique", "exhaustive",
                     "--dataset", "n=4,m=65536", "--dataset", "n=1024,m=32"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "2 distinct" in err
        assert err.count("\n") == 1

    def test_stochastic(self, capsys):
        code, out = run(
            capsys, "tune", "matmul",
            "--dataset", "n=32,m=1024",
            "--technique", "random", "--proposals", "50",
        )
        assert code == 0
        assert "dedup" in out

    def test_requires_dataset(self, capsys):
        assert main(["tune", "matmul"]) == 2
        assert "--dataset" in capsys.readouterr().err

    def test_malformed_tuning_file_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.tuning"
        bad.write_text("{not json")
        code = main(["simulate", "matmul", "--size", "n=8,m=8",
                     "--tuning", str(bad)])
        assert code == 2
        assert "not a tuning file" in capsys.readouterr().err

    def test_device_mismatch_exits_2(self, capsys, tmp_path):
        out_file = tmp_path / "m.tuning"
        assert main(["tune", "matmul", "--dataset", "n=32,m=1024",
                     "--proposals", "6", "--output", str(out_file)]) == 0
        capsys.readouterr()
        code = main(["simulate", "matmul", "--size", "n=8,m=8",
                     "--device", "Vega64", "--tuning", str(out_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert "K40" in err and "Vega64" in err

    def test_non_integer_threshold_exits_2(self, capsys, tmp_path):
        out_file = tmp_path / "m.tuning"
        assert main(["tune", "matmul", "--dataset", "n=32,m=1024",
                     "--proposals", "6", "--output", str(out_file)]) == 0
        capsys.readouterr()
        doc = json.loads(out_file.read_text())
        doc["thresholds"]["t0"] = "x"
        out_file.write_text(json.dumps(doc))
        code = main(["simulate", "matmul", "--size", "n=8,m=8",
                     "--tuning", str(out_file)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and "malformed tuning file" in err
        assert err.count("\n") == 1

    def test_exhaustive_telemetry_lists_paths_per_dataset(self, capsys, tmp_path):
        out_file = tmp_path / "m.tuning"
        code, _ = run(capsys, "tune", "matmul", "--technique", "exhaustive",
                      "--dataset", "n=4,m=65536", "--dataset", "n=1024,m=32",
                      "--output", str(out_file))
        assert code == 0
        tele = json.loads((tmp_path / "m.tuning.telemetry.json").read_text())
        assert len(tele["path_counts"]) == 2
        assert all(tele["path_counts"]) and all(tele["distinct_paths"])
        assert tele["distinct_paths"] == [len(pc) for pc in tele["path_counts"]]
        # one measurement per distinct joint signature, each counted once
        # per dataset
        measured = len(tele["cost_curve"])
        assert [sum(pc.values()) for pc in tele["path_counts"]] == [measured] * 2

    def test_malformed_fault_plan_exits_2(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"rules": [{"site": "sim.kernel", "kind": "nope"}]}')
        code = main(["tune", "matmul", "--dataset", "n=8,m=8",
                     "--proposals", "2", "--faults", str(plan)])
        assert code == 2
        assert "unknown fault kind" in capsys.readouterr().err

    def test_worker_crash_fault_plan_exits_2(self, capsys, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            {"site": "worker.eval", "kind": "worker_crash", "p": 0.5,
             "max_fires": 1},
        ]}))
        code = main(["tune", "matmul", "--dataset", "n=8,m=8",
                     "--proposals", "2", "--faults", str(plan)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error:") and err.count("\n") == 1
        assert "unknown fault kind 'worker_crash'" in err

    @pytest.mark.parametrize("command", ["tune", "submit"])
    def test_workers_flag_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "matmul", "--dataset", "n=8,m=8", "--workers", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--proposal-timeout", "5"), ("--retries", "3"), ("--backoff", "0.1"),
    ])
    def test_removed_tune_flag_exits_2(self, capsys, flag, value):
        # a fault plan carries the retry policy; no watchdog remains
        with pytest.raises(SystemExit) as exc:
            main(["tune", "matmul", "--dataset", "n=8,m=8", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_2(self, capsys, tmp_path):
        out_file = tmp_path / "m.tuning"
        code = main(["tune", "matmul", "--dataset", "n=8,m=8",
                     "--resume", "--output", str(out_file)])
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_tune_under_recoverable_faults_matches_fault_free(
        self, capsys, tmp_path
    ):
        base, chaos = tmp_path / "a.tuning", tmp_path / "b.tuning"
        argv = ["tune", "matmul", "--dataset", "n=32,m=1024",
                "--proposals", "12"]
        assert main(argv + ["--output", str(base)]) == 0
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({
            "seed": 5, "retries": 8,
            "rules": [{"site": "sim.kernel", "kind": "launch",
                       "p": 0.2, "max_fires": 4}],
        }))
        assert main(argv + ["--output", str(chaos),
                            "--faults", str(plan)]) == 0
        a = json.loads(base.read_text())
        b = json.loads(chaos.read_text())
        assert a["thresholds"] == b["thresholds"]
        ta = json.loads((tmp_path / "a.tuning.telemetry.json").read_text())
        tb = json.loads((tmp_path / "b.tuning.telemetry.json").read_text())
        assert ta == tb

    def test_exhaustive_under_ci_chaos_plan_matches_fault_free(
        self, capsys, tmp_path
    ):
        plan = Path(__file__).resolve().parents[1] / "benchmarks" / "ci-chaos.json"
        argv = ["tune", "matmul", "--technique", "exhaustive"]
        assert main(argv + ["--output", str(tmp_path / "a.tuning")]) == 0
        code, out = run(capsys, *argv, "--output", str(tmp_path / "b.tuning"),
                        "--faults", str(plan))
        assert code == 0
        assert "transient-fault retries, 0 configuration(s)" in out
        for name in ("{}.tuning", "{}.tuning.telemetry.json"):
            assert (tmp_path / name.format("b")).read_bytes() == \
                (tmp_path / name.format("a")).read_bytes()

    def test_exhaustive_with_every_launch_failing_writes_defaults(
        self, capsys, tmp_path
    ):
        plan = tmp_path / "oom.json"
        plan.write_text(json.dumps({"rules": [
            {"site": "sim.kernel", "kind": "oom", "p": 1.0},
        ]}))
        out_file = tmp_path / "m.tuning"
        code, out = run(capsys, "tune", "matmul", "--technique", "exhaustive",
                        "--output", str(out_file), "--faults", str(plan))
        assert code == 0
        assert "  quarantined {" in out
        assert set(json.loads(out_file.read_text())["thresholds"].values()) \
            == {2**15}

    def test_checkpoint_deleted_after_successful_run(self, capsys, tmp_path):
        out_file = tmp_path / "m.tuning"
        assert main(["tune", "matmul", "--dataset", "n=32,m=1024",
                     "--proposals", "8", "--checkpoint-every", "1",
                     "--output", str(out_file)]) == 0
        assert out_file.exists()
        assert not (tmp_path / "m.tuning.ckpt.json").exists()

    def test_deadline_hit_retains_checkpoint_and_resume_completes(
        self, capsys, tmp_path
    ):
        # an injected delay on the first batch pushes the run past its
        # time budget after one checkpointed batch; the measurements in
        # that checkpoint are exactly what --resume needs, so the CLI
        # must keep it (deleting it here used to destroy them)
        out_file = tmp_path / "m.tuning"
        ckpt = tmp_path / "m.tuning.ckpt.json"
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"rules": [
            {"site": "tuner.batch", "kind": "delay",
             "at": [0], "delay_s": 0.3},
        ]}))
        argv = ["tune", "matmul", "--dataset", "n=32,m=1024",
                "--proposals", "12", "--batch-size", "4"]
        code, out = run(
            capsys, *argv, "--checkpoint-every", "1",
            "--time-budget", "0.05", "--output", str(out_file),
            "--faults", str(plan),
        )
        assert code == 0
        assert ckpt.exists()
        assert "time budget hit" in out and "--resume" in out

        # --resume finishes the search; only a *completed* run deletes
        # its checkpoint, and the result matches an uninterrupted run
        # byte for byte
        assert main(argv + ["--resume", "--output", str(out_file)]) == 0
        assert not ckpt.exists()
        baseline = tmp_path / "b.tuning"
        assert main(argv + ["--output", str(baseline)]) == 0
        assert out_file.read_text() == baseline.read_text()
        assert (tmp_path / "m.tuning.telemetry.json").read_text() == \
            (tmp_path / "b.tuning.telemetry.json").read_text()

    def test_output_writes_tuning_and_telemetry(self, capsys, tmp_path):
        out_file = tmp_path / "m.tuning"
        code, out = run(
            capsys, "tune", "matmul", "--dataset", "n=32,m=1024",
            "--proposals", "10", "--output", str(out_file),
        )
        assert code == 0
        assert out_file.exists()
        telemetry = tmp_path / "m.tuning.telemetry.json"
        assert telemetry.exists()
        doc = json.loads(telemetry.read_text())
        assert doc["kind"] == "tuning-telemetry"
        assert doc["proposals"] == 10
        assert len(doc["cost_curve"]) == 10


class TestProfile:
    def test_profile_writes_valid_chrome_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        code, out = run(
            capsys, "profile", "matmul", "--trace", str(trace),
            "--proposals", "12",
        )
        assert code == 0
        assert "trace summary" in out and "perf counters" in out
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert isinstance(events, list) and events
        names = {e["name"] for e in events}
        # spans for every compiler pass, ≥1 proposal, ≥1 kernel launch
        assert {"pass.normalize", "pass.fuse", "pass.simplify",
                "pass.flatten", "pass.codegen"} <= names
        assert "tuner.proposal" in names
        assert "kernel.launch" in names
        for ev in events:
            assert "ph" in ev and "ts" in ev or ev["ph"] == "M"

    def test_profile_without_trace_flag(self, capsys):
        code, out = run(capsys, "profile", "matmul", "--proposals", "6")
        assert code == 0
        assert "trace summary" in out

    def test_profile_table1_benchmark_default_datasets(self, capsys):
        code, out = run(capsys, "profile", "nw", "--proposals", "4")
        assert code == 0
        assert "tune[K40]" in out

    def test_profile_tracer_deactivated_afterwards(self, capsys):
        from repro import obs

        run(capsys, "profile", "matmul", "--proposals", "4")
        assert obs.current() is None

    def test_trace_flag_on_show(self, capsys, tmp_path):
        trace = tmp_path / "show.json"
        code, out = run(capsys, "show", "matmul", "--trace", str(trace))
        assert code == 0
        names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
        assert "pass.flatten" in names

    def test_trace_flag_on_tune(self, capsys, tmp_path):
        trace = tmp_path / "tune.json"
        code, _ = run(
            capsys, "tune", "matmul", "--dataset", "n=32,m=1024",
            "--proposals", "8", "--trace", str(trace),
        )
        assert code == 0
        names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
        assert "tuner.proposal" in names


class TestFigures:
    def test_fig2_subset(self, capsys):
        code, out = run(capsys, "figures", "fig2")
        assert code == 0
        assert "Figure 2" in out and "vendor" in out

    def test_code_subset(self, capsys):
        code, out = run(capsys, "figures", "code")
        assert code == 0
        assert "Code expansion" in out


class TestCheck:
    def test_check_single_program(self, capsys):
        code, out = run(capsys, "check", "matmul")
        assert code == 0
        assert "forced paths" in out and "check: ok" in out

    def test_check_with_fuzz_and_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out = run(
            capsys, "check", "nn", "--fuzz", "--max-examples", "5",
            "--report", str(report),
        )
        assert code == 0
        assert "no counterexample" in out
        doc = json.loads(report.read_text())
        assert doc["ok"] and doc["fuzz"]["examples"] == 5

    def test_check_fuzz_alone_fuzzes_only(self, capsys):
        code, out = run(capsys, "check", "--fuzz", "--max-examples", "1")
        assert code == 0
        assert "forced paths" not in out  # no benchmark listed
        assert "fuzz: 1 examples, no counterexample" in out

    def test_check_all_with_fuzz_checks_every_benchmark(self, capsys, tmp_path):
        from repro.bench.programs import MODULES

        report = tmp_path / "report.json"
        code, out = run(
            capsys, "check", "--all", "--fuzz", "--max-examples", "1",
            "--mode", "incremental", "--exec", "scalar", "--fusion", "ilp",
            "--max-paths", "1", "--report", str(report),
        )
        assert code == 0
        names = [m.lower() for m in MODULES]
        listed = [line.split()[0].lower() for line in out.splitlines()
                  if "forced paths" in line]
        assert listed == names
        doc = json.loads(report.read_text())
        assert [p["program"].lower() for p in doc["programs"]] == names
        assert doc["fuzz"]["examples"] == 1

    def test_check_unknown_program(self, capsys):
        assert main(["check", "not-a-benchmark"]) == 2
        assert "not-a-benchmark" in capsys.readouterr().err

    def test_check_exec_vector_only(self, capsys):
        code, out = run(capsys, "check", "matmul", "--exec", "vector")
        assert code == 0
        assert "check: ok" in out

    def test_check_fuzz_corpus_out(self, capsys, tmp_path):
        # a clean fuzz run writes no corpus entries but accepts the flag
        corpus = tmp_path / "corpus"
        code, _ = run(
            capsys, "check", "matmul", "--fuzz", "--max-examples", "2",
            "--corpus-out", str(corpus),
        )
        assert code == 0
        assert not list(corpus.glob("*.json")) if corpus.exists() else True


class TestCheckChaosExitCodes:
    """--chaos exit-code convention: divergence exits 1 (a *finding*),
    a crash in the harness itself exits 2 via ``repro: error:``."""

    def test_divergence_exits_1(self, capsys, monkeypatch):
        from repro.check import chaos as chaos_mod

        def fake(names, seed):
            rep = chaos_mod.ChaosReport(program="matmul", seed=seed)
            rep.add("serial", False, "thresholds diverged: baseline X vs Y")
            return [rep]

        monkeypatch.setattr(chaos_mod, "chaos_tune_check", fake)
        code = main(["check", "matmul", "--chaos", "--max-paths", "4",
                     "--exec", "scalar", "--fusion", "ilp"])
        cap = capsys.readouterr()
        assert code == 1
        assert "FAIL" in cap.out and "thresholds diverged" in cap.out
        assert "repro: error:" not in cap.err

    def test_harness_error_exits_2(self, capsys, monkeypatch):
        from repro.check import chaos as chaos_mod

        def boom(names, seed):
            raise RuntimeError("spool directory vanished")

        monkeypatch.setattr(chaos_mod, "chaos_tune_check", boom)
        code = main(["check", "matmul", "--chaos", "--max-paths", "4",
                     "--exec", "scalar", "--fusion", "ilp"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: error:")
        assert "chaos harness error" in err and "spool directory" in err

    def test_unknown_program_is_usage_error(self, capsys, monkeypatch):
        from repro.check import chaos as chaos_mod

        def unknown(names, seed):
            raise KeyError("unknown benchmark program 'nope'")

        monkeypatch.setattr(chaos_mod, "chaos_tune_check", unknown)
        code = main(["check", "matmul", "--chaos", "--max-paths", "4",
                     "--exec", "scalar", "--fusion", "ilp"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro: error:") and "nope" in err


class TestVerifyRate:
    def test_run_verify_rate_flag_pins_rate(self, monkeypatch):
        import repro.cli as cli

        seen = []
        monkeypatch.setattr(
            cli, "cmd_run", lambda args: seen.append(config.current()) or 0
        )
        assert main(["run", "matmul", "--size", "n=3,m=4",
                     "--exec", "codegen", "--verify-rate", "0.5"]) == 0
        assert [(c.verify_rate, c.engine) for c in seen] == [(0.5, "codegen")]

    def test_verify_rate_lasts_only_for_its_command(self, capsys):
        assert config.current().verify_rate == 0.0
        code, _ = run(capsys, "run", "matmul", "--size", "n=4,m=3",
                      "--exec", "codegen", "--verify-rate", "1")
        assert code == 0
        assert config.current().verify_rate == 0.0

    def test_verify_rate_outside_unit_interval_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "matmul", "--size", "n=3,m=4", "--verify-rate", "1.5"])
        assert exc.value.code == 2
        assert "expected a fraction in [0, 1]" in capsys.readouterr().err

    def test_verified_run_stays_correct(self, capsys):
        code, out1 = run(capsys, "run", "Heston", "--size",
                         "numQuotes=16,numCand=4,numInt=8",
                         "--exec", "codegen", "--verify-rate", "1.0")
        assert code == 0
        code, out2 = run(capsys, "run", "Heston", "--size",
                         "numQuotes=16,numCand=4,numInt=8",
                         "--exec", "scalar")
        assert code == 0
        assert out1 == out2  # sampled oracle re-runs change nothing
