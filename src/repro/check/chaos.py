"""Chaos differential: injected faults must not change any result.

The robustness guarantee (``docs/robustness.md``) is that under any
*recoverable* seeded fault schedule — every transient rule carries a
``max_fires`` budget and the plan's retry budget exceeds the schedule's
total (:meth:`FaultPlan.max_total_fires`) — the runtime heals itself
completely: retries re-run the lost work, and a killed tuning run resumed
from its checkpoint replays to the same state.  Because every recovery
re-computes a value that is a deterministic function of its inputs, the
*observable results are bit-identical to a fault-free run*.

:func:`chaos_tune_check` asserts exactly that, per benchmark, across three
legs compared as serialized JSON (thresholds document + telemetry
document):

* ``serial`` — a tuning run under the fault plan;
* ``resume`` — a checkpointed tuning run abandoned halfway under the
  plan, then resumed (fresh tuner, measurements preloaded from the
  checkpoint) to completion;
* ``forced-paths`` — the differential harness's forced-path sweep run
  under the plan, compared report-for-report against the fault-free
  sweep (the executors' ``interp.kernel``/``exec.kernel`` retry wrappers
  must self-heal every injected launch failure).

The nightly CI job rotates the plan seed, so over time the assertion is
exercised against many distinct fault schedules.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace

from repro import faults
from repro.bench.datasets import training_datasets
from repro.compiler import CompiledProgram, compile_program
from repro.gpu import K40
from repro.gpu.device import DeviceSpec
from repro.request import builtin_program
from repro.tuning.tuner import Autotuner
from repro.tuning import persist

__all__ = ["ChaosLeg", "ChaosReport", "chaos_plan", "chaos_tune_check"]

#: benchmarks the chaos differential covers by default (≥ 3, mixed shape)
DEFAULT_PROGRAMS = ("matmul", "Heston", "Pathfinder")


def chaos_plan(seed: int = 0) -> "faults.FaultPlan":
    """The default recoverable schedule, plus bounded guarded-launch
    failures (the execution guard's demotion ladder must heal those
    bit-identically, ``docs/guarded-execution.md``)."""
    base = faults.default_chaos_plan(seed)
    plan = faults.FaultPlan(
        seed=base.seed,
        rules=base.rules + (
            faults.FaultRule(
                site="exec.launch.*", kind="launch", p=0.25, max_fires=6
            ),
        ),
        retries=base.retries,
        backoff_s=base.backoff_s,
    )
    # keep the plan recoverable by construction: the retry budget must
    # exceed the schedule's total bounded fires even as rules are added
    fires = plan.max_total_fires()
    if fires is not None and plan.retries <= fires:
        plan = replace(plan, retries=fires + 1)
    return plan


@dataclass
class ChaosLeg:
    name: str
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        doc = {"name": self.name, "ok": self.ok}
        if self.detail:
            doc["detail"] = self.detail
        return doc


@dataclass
class ChaosReport:
    program: str
    seed: int
    ok: bool = True
    legs: list[ChaosLeg] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.legs.append(ChaosLeg(name, ok, detail))
        self.ok = self.ok and ok

    def to_json(self) -> dict:
        return {
            "program": self.program,
            "seed": self.seed,
            "ok": self.ok,
            "legs": [leg.to_json() for leg in self.legs],
        }


def _tune_docs(
    cp: CompiledProgram,
    datasets,
    device: DeviceSpec,
    seed: int,
    proposals: int,
    batch_size: int,
    *,
    plan=None,
) -> tuple[str, str]:
    """(thresholds JSON, telemetry JSON) of one tuning run, optionally
    under a fault plan (``plan=None`` runs with injection suspended)."""
    tuner = Autotuner(cp, datasets, device, seed=seed)
    ctx = faults.injected(plan) if plan is not None else faults.suspended()
    with ctx:
        res = tuner.tune(max_proposals=proposals, batch_size=batch_size)
    return (
        json.dumps(res.best_thresholds, sort_keys=True),
        json.dumps(res.telemetry(), sort_keys=True),
    )


def _resume_docs(
    cp: CompiledProgram,
    datasets,
    device: DeviceSpec,
    seed: int,
    proposals: int,
    batch_size: int,
    plan,
) -> tuple[str, str]:
    """Abandon a checkpointed chaos run halfway, then resume it fault-free
    from the checkpoint — the in-process analogue of kill + ``--resume``."""
    fd, ckpt = tempfile.mkstemp(suffix=".ckpt.json")
    os.close(fd)
    try:
        first = Autotuner(cp, datasets, device, seed=seed)
        with faults.injected(plan):
            first.tune(
                max_proposals=max(1, proposals // 2),
                batch_size=batch_size,
                checkpoint_path=ckpt,
                checkpoint_every=1,
            )
        doc = persist.load_checkpoint(ckpt, cp, device=device.name,
                                      datasets=datasets)
        resumed = Autotuner(cp, datasets, device, seed=doc["seed"])
        resumed.preload_measurements(doc["measurements"], doc["quarantined"])
        with faults.suspended():
            res = resumed.tune(max_proposals=proposals, batch_size=batch_size)
        return (
            json.dumps(res.best_thresholds, sort_keys=True),
            json.dumps(res.telemetry(), sort_keys=True),
        )
    finally:
        try:
            os.unlink(ckpt)
        except OSError:
            pass


def _forced_paths_doc(name: str, seed: int, max_paths: int, plan=None) -> str:
    """The differential harness's report for ``name`` as JSON, optionally
    under a fault plan (restricted to incremental mode for wall-clock)."""
    from repro.check.differential import check_all

    ctx = faults.injected(plan) if plan is not None else faults.suspended()
    with ctx:
        reports = check_all(
            [name], modes=("incremental",), seed=seed, max_paths=max_paths
        )
    return json.dumps([r.to_json() for r in reports], sort_keys=True)


def chaos_tune_check(
    names=None,
    *,
    seed: int = 0,
    proposals: int = 32,
    batch_size: int = 4,
    max_paths: int = 32,
    device: DeviceSpec = K40,
    plan=None,
) -> list[ChaosReport]:
    """Assert bit-identical results between fault-free and chaos runs.

    Returns one :class:`ChaosReport` per benchmark; ``report.ok`` is the
    conjunction of all legs.  ``plan`` defaults to :func:`chaos_plan`
    seeded with ``seed`` — any *recoverable* plan is a valid argument, and
    the assertion must hold for every seed.
    """
    plan = chaos_plan(seed) if plan is None else plan
    unrecoverable = plan.max_total_fires() is None
    reports: list[ChaosReport] = []
    for name in names or DEFAULT_PROGRAMS:
        rep = ChaosReport(program=name, seed=plan.seed)
        if unrecoverable:
            rep.add(
                "plan", False,
                "fault plan is not provably recoverable (a transient rule "
                "has no max_fires); the bit-identity guarantee needs a "
                "bounded schedule",
            )
            reports.append(rep)
            continue
        datasets = training_datasets(name)
        cp = compile_program(builtin_program(name), "incremental")
        base_th, base_tel = _tune_docs(
            cp, datasets, device, seed, proposals, batch_size
        )

        th, tel = _tune_docs(
            cp, datasets, device, seed, proposals, batch_size, plan=plan
        )
        rep.add("serial", th == base_th and tel == base_tel,
                _diff_detail(base_th, th, base_tel, tel))

        th, tel = _resume_docs(
            cp, datasets, device, seed, proposals, batch_size, plan
        )
        rep.add("resume", th == base_th and tel == base_tel,
                _diff_detail(base_th, th, base_tel, tel))

        base_paths = _forced_paths_doc(name, seed, max_paths)
        chaos_paths = _forced_paths_doc(name, seed, max_paths, plan=plan)
        rep.add(
            "forced-paths", chaos_paths == base_paths,
            "" if chaos_paths == base_paths
            else "forced-path reports differ under injection",
        )
        reports.append(rep)
    return reports


def _diff_detail(base_th: str, th: str, base_tel: str, tel: str) -> str:
    if th != base_th:
        return f"thresholds diverged: baseline {base_th} vs chaos {th}"
    if tel != base_tel:
        return "telemetry diverged from the fault-free run"
    return ""
