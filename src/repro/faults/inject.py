"""The fault injector: deterministic, seeded failure at named sites.

Components that can fail on real hardware call :func:`check` at their
failure boundary (a *site*); when a plan is active and one of its rules
fires, the mapped :mod:`repro.faults.errors` exception is raised there.
With no active plan the fast path is a single module-global ``None`` test,
so production code pays nothing.

Determinism
-----------
A transient rule's draw is seeded by ``(plan seed, rule index, site,
invocation count)`` — a retry of the same work is a *new* invocation and
gets a fresh draw, which is what lets bounded schedules recover.  A
deterministic rule's draw is seeded by ``(plan seed, rule index, site,
stable key)`` supplied by the site (e.g. a kernel identity plus the
threshold values it observed), so the same configuration fails the same
way on every attempt, in every process — the property quarantine relies
on.

Observability: every fire bumps a ``faults.injected.<kind>`` perf counter
and records an instant event on the active tracer; every recovery made by
:func:`retrying` bumps ``faults.retries``.
"""

from __future__ import annotations

import fnmatch
import os
import random
import threading
import time
from typing import Callable, TypeVar

from repro import perf
from repro.obs import trace as obs
from repro.faults.errors import (
    DeviceLostFault,
    Fault,
    InjectedOOMFault,
    KernelLaunchFault,
    KernelTimeoutFault,
    TransientFault,
)
from repro.faults.plan import DETERMINISTIC_KINDS, FaultPlan

__all__ = [
    "Injector",
    "activate",
    "deactivate",
    "active_plan",
    "enabled",
    "injected",
    "suspended",
    "check",
    "retrying",
]

T = TypeVar("T")

_ERRORS: dict[str, type[Fault]] = {
    "launch": KernelLaunchFault,
    "device_lost": DeviceLostFault,
    "timeout": KernelTimeoutFault,
    "oom": InjectedOOMFault,
}

_MESSAGES = {
    "launch": "kernel launch rejected by the driver",
    "device_lost": "device lost (transient driver fault)",
    "timeout": "kernel exceeded its watchdog deadline",
    "oom": "workgroup local memory exceeds the device (no fallback left)",
}


class Injector:
    """Per-process fault-injection state for one active plan."""

    def __init__(self, plan: FaultPlan):
        plan.validate()
        self.plan = plan
        self._lock = threading.Lock()
        #: per-site invocation counters (0-based, per process)
        self._invocations: dict[str, int] = {}
        #: per-rule-index fire counters
        self._fires: dict[int, int] = {}

    # -- statistics ----------------------------------------------------------

    def fires(self) -> int:
        """Total fires so far in this process (all rules)."""
        with self._lock:
            return sum(self._fires.values())

    # -- the injection point -------------------------------------------------

    def check(self, site: str, key: object = None) -> None:
        """Raise a fault at ``site`` if a rule of the active plan fires."""
        with self._lock:
            invocation = self._invocations.get(site, 0)
            self._invocations[site] = invocation + 1
            firing: list = []
            for idx, rule in enumerate(self.plan.rules):
                if not fnmatch.fnmatchcase(site, rule.site):
                    continue
                fired = self._fires.get(idx, 0)
                if rule.max_fires is not None and fired >= rule.max_fires:
                    continue
                if not self._draw(idx, rule, site, invocation, key):
                    continue
                self._fires[idx] = fired + 1
                firing.append(rule)
        for rule in firing:
            self._fire(rule, site, invocation)

    def _draw(self, idx: int, rule, site: str, invocation: int, key) -> bool:
        if invocation in rule.at:
            return True
        if not rule.p:
            return False
        if rule.kind in DETERMINISTIC_KINDS and key is not None:
            token = f"{self.plan.seed}|{idx}|{site}|{key!r}"
        else:
            token = f"{self.plan.seed}|{idx}|{site}|{invocation}"
        return random.Random(token).random() < rule.p

    def _fire(self, rule, site: str, invocation: int) -> None:
        perf.inc(f"faults.injected.{rule.kind}")
        obs.instant(
            "fault", cat="faults",
            site=site, kind=rule.kind, invocation=invocation,
        )
        if rule.delay_s:
            time.sleep(rule.delay_s)
        if rule.kind == "delay":
            return
        if rule.kind == "process_kill":
            # simulate `kill -9` of the current process (used by the
            # checkpoint/--resume round-trip tests); 137 = 128 + SIGKILL
            os._exit(137)
        msg = _MESSAGES.get(rule.kind, rule.kind)
        raise _ERRORS[rule.kind](f"[injected at {site}#{invocation}] {msg}")


# -- module-global activation --------------------------------------------------

_INJECTOR: Injector | None = None


def activate(plan: FaultPlan) -> Injector:
    """Install ``plan`` as this process's active fault plan."""
    global _INJECTOR
    _INJECTOR = Injector(plan)
    return _INJECTOR


def deactivate() -> None:
    """Remove the active fault plan (no-op when none is active)."""
    global _INJECTOR
    _INJECTOR = None


def active_plan() -> FaultPlan | None:
    """The active plan, or None (the tuner reads its retry policy)."""
    return _INJECTOR.plan if _INJECTOR is not None else None


def current() -> Injector | None:
    return _INJECTOR


def enabled() -> bool:
    return _INJECTOR is not None


class injected:
    """Context manager activating ``plan`` for the dynamic extent (and
    restoring whatever was active before on exit)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._saved: Injector | None = None

    def __enter__(self) -> Injector:
        global _INJECTOR
        self._saved = _INJECTOR
        return activate(self.plan)

    def __exit__(self, *exc) -> None:
        global _INJECTOR
        _INJECTOR = self._saved


class suspended:
    """Context manager deactivating injection for the dynamic extent —
    used by chaos checks to compute fault-free baselines."""

    def __init__(self):
        self._saved: Injector | None = None

    def __enter__(self) -> None:
        global _INJECTOR
        self._saved = _INJECTOR
        _INJECTOR = None

    def __exit__(self, *exc) -> None:
        global _INJECTOR
        _INJECTOR = self._saved


# -- site helpers --------------------------------------------------------------


def check(site: str, key: object = None) -> None:
    """Fault-check ``site``; the no-plan fast path is one global load."""
    inj = _INJECTOR
    if inj is not None:
        inj.check(site, key)


def retrying(site: str, thunk: Callable[[], T]) -> T:
    """Run ``thunk`` behind a fault check with bounded transient retry.

    This is the self-healing wrapper the executors put around kernel
    launches: transient faults are retried up to the plan's ``retries``
    budget with exponential backoff (``backoff_s``), deterministic faults
    propagate immediately.  The retried work must be pure (kernel
    evaluation is).
    """
    inj = _INJECTOR
    if inj is None:
        return thunk()
    attempt = 0
    while True:
        try:
            inj.check(site)
            return thunk()
        except TransientFault:
            attempt += 1
            perf.inc("faults.retries")
            obs.instant("fault.retry", cat="faults", site=site, attempt=attempt)
            if attempt > inj.plan.retries:
                raise
            if inj.plan.backoff_s:
                time.sleep(min(inj.plan.backoff_s * (2 ** (attempt - 1)), 1.0))
