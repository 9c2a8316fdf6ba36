"""Fault plans: declarative, seeded schedules of injected failures.

A :class:`FaultPlan` is a list of :class:`FaultRule`\\ s plus a seed and a
retry policy.  Each rule targets an injection *site* (a dotted name such as
``sim.kernel`` or ``tuner.batch``; shell-style wildcards are allowed) and
fires either probabilistically (``p``), on explicit invocation indices
(``at``, 0-based per site and per process), or both.  ``max_fires`` bounds
the total number of times a rule fires in one process — the knob that makes
a transient schedule *recoverable*: once a rule's budget is spent, retries
of the same work succeed, so a chaos run converges to the fault-free
result (see ``docs/robustness.md``).

Plans are plain JSON::

    {"seed": 7, "retries": 8, "rules": [
      {"site": "sim.kernel", "kind": "launch", "p": 0.05, "max_fires": 4},
      {"site": "sim.kernel", "kind": "device_lost", "at": [3]},
      {"site": "tuner.batch", "kind": "process_kill", "at": [6]}
    ]}

and are activated via ``repro ... --faults PLAN`` (a path, or inline
JSON starting with ``{``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

__all__ = [
    "FAULT_KINDS",
    "TRANSIENT_KINDS",
    "DETERMINISTIC_KINDS",
    "FaultPlanError",
    "FaultRule",
    "FaultPlan",
    "load_plan",
    "default_chaos_plan",
]

#: transient kinds: a retry of the same work may succeed
TRANSIENT_KINDS = ("launch", "device_lost", "timeout")
#: deterministic kinds: the same configuration always fails (drawn from a
#: stable per-site key, not the invocation counter)
DETERMINISTIC_KINDS = ("oom",)
#: process-level kinds: process_kill hard-exits the current process (for
#: kill/--resume tests); delay sleeps without failing (exercises wall-clock
#: budgets such as ``repro tune --time-budget``)
FAULT_KINDS = TRANSIENT_KINDS + DETERMINISTIC_KINDS + ("process_kill", "delay")


class FaultPlanError(Exception):
    """A fault plan file or document is malformed."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule; see the module docstring for the semantics."""

    site: str
    kind: str
    #: per-invocation fire probability (seeded, deterministic)
    p: float = 0.0
    #: explicit 0-based invocation indices to fire on (per site, per process)
    at: tuple[int, ...] = ()
    #: total fires allowed in one process (None = unlimited)
    max_fires: int | None = None
    #: seconds to sleep when the rule fires (before the fault effect)
    delay_s: float = 0.0

    def validate(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} "
                f"(expected one of {', '.join(FAULT_KINDS)})"
            )
        if not self.site:
            raise FaultPlanError("fault rule needs a site pattern")
        if not (0.0 <= self.p <= 1.0):
            raise FaultPlanError(f"fault probability out of range: {self.p}")
        if self.max_fires is not None and self.max_fires < 0:
            raise FaultPlanError(f"max_fires must be >= 0, got {self.max_fires}")
        if self.delay_s < 0:
            raise FaultPlanError(f"delay_s must be >= 0, got {self.delay_s}")

    def to_json(self) -> dict:
        doc: dict = {"site": self.site, "kind": self.kind}
        if self.p:
            doc["p"] = self.p
        if self.at:
            doc["at"] = list(self.at)
        if self.max_fires is not None:
            doc["max_fires"] = self.max_fires
        if self.delay_s:
            doc["delay_s"] = self.delay_s
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "FaultRule":
        if not isinstance(doc, dict):
            raise FaultPlanError(f"fault rule must be an object, got {doc!r}")
        unknown = set(doc) - {"site", "kind", "p", "at", "max_fires", "delay_s"}
        if unknown:
            raise FaultPlanError(f"unknown fault rule field(s): {sorted(unknown)}")
        try:
            rule = cls(
                site=str(doc["site"]),
                kind=str(doc["kind"]),
                p=float(doc.get("p", 0.0)),
                at=tuple(int(i) for i in doc.get("at", ())),
                max_fires=(
                    None if doc.get("max_fires") is None else int(doc["max_fires"])
                ),
                delay_s=float(doc.get("delay_s", 0.0)),
            )
        except KeyError as exc:
            raise FaultPlanError(f"fault rule missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault rule: {exc}") from None
        rule.validate()
        return rule


@dataclass(frozen=True)
class FaultPlan:
    """A seeded fault schedule plus the retry policy recoveries should use."""

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()
    #: bounded-retry budget runtimes apply to transient faults
    retries: int = 8
    #: base backoff (seconds) between retries; doubles per attempt
    backoff_s: float = 0.0

    def validate(self) -> None:
        for rule in self.rules:
            rule.validate()
        if self.retries < 0:
            raise FaultPlanError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise FaultPlanError(f"backoff_s must be >= 0, got {self.backoff_s}")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "rules": [r.to_json() for r in self.rules],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "FaultPlan":
        if not isinstance(doc, dict):
            raise FaultPlanError(f"fault plan must be an object, got {type(doc).__name__}")
        unknown = set(doc) - {"seed", "rules", "retries", "backoff_s"}
        if unknown:
            raise FaultPlanError(f"unknown fault plan field(s): {sorted(unknown)}")
        rules = doc.get("rules", [])
        if not isinstance(rules, list):
            raise FaultPlanError("fault plan 'rules' must be a list")
        try:
            plan = cls(
                seed=int(doc.get("seed", 0)),
                rules=tuple(FaultRule.from_json(r) for r in rules),
                retries=int(doc.get("retries", 8)),
                backoff_s=float(doc.get("backoff_s", 0.0)),
            )
        except (TypeError, ValueError) as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from None
        plan.validate()
        return plan

    def reseeded(self, seed: int) -> "FaultPlan":
        """The same schedule shape under a different seed (rotating chaos)."""
        return replace(self, seed=seed)

    def max_total_fires(self, kinds: tuple[str, ...] = TRANSIENT_KINDS) -> int | None:
        """Upper bound on total fires of ``kinds``, or None if unbounded.

        A transient schedule is *provably recoverable* by a retry budget
        strictly larger than this bound (every attempt that fails consumes
        one fire from a finite budget).
        """
        total = 0
        for rule in self.rules:
            if rule.kind not in kinds:
                continue
            if rule.max_fires is None and (rule.p or rule.at):
                if rule.p:
                    return None
                total += len(rule.at)
            elif rule.max_fires is not None:
                total += rule.max_fires
        return total


def load_plan(source: str) -> FaultPlan:
    """Load a fault plan from a JSON file path or an inline JSON string."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source) as fh:
                text = fh.read()
        except OSError as exc:
            raise FaultPlanError(f"cannot read fault plan {source!r}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FaultPlanError(f"{source}: not a fault plan ({exc})") from None
    return FaultPlan.from_json(doc)


def default_chaos_plan(seed: int = 0) -> FaultPlan:
    """A bounded transient-fault schedule for chaos testing.

    Every rule carries a ``max_fires`` budget, so the schedule is
    recoverable by construction: the total transient budget is small and
    the plan's ``retries`` exceeds it, which is what lets the chaos
    differential assert bit-identical results against a fault-free run for
    *any* seed (the nightly leg rotates it).
    """
    rules = (
        FaultRule(site="sim.kernel", kind="launch", p=0.05, max_fires=3),
        FaultRule(site="sim.kernel", kind="device_lost", p=0.02, max_fires=2),
        FaultRule(site="sim.kernel", kind="timeout", p=0.02, max_fires=2),
        FaultRule(site="interp.kernel", kind="launch", p=0.05, max_fires=3),
        FaultRule(site="exec.kernel", kind="launch", p=0.05, max_fires=3),
    )
    plan = FaultPlan(seed=seed, rules=rules, retries=16)
    assert plan.max_total_fires() is not None
    assert plan.retries > (plan.max_total_fires() or 0)
    return plan
