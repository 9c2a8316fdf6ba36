"""Deterministic, seeded fault injection for the runtime (``docs/robustness.md``).

The paper's autotuner runs against a real GPU where kernel launches fail,
hang, or take the driver down; our simulator never fails, so this package
*makes* it fail — deterministically, from a seeded :class:`FaultPlan` —
and the rest of the runtime (tuner retry/quarantine/checkpointing,
executor kernel retry) is hardened against every fault kind and
chaos-tested for bit-identical results against fault-free runs.

Usage::

    from repro import faults

    plan = faults.load_plan("plan.json")        # or default_chaos_plan(seed)
    with faults.injected(plan):
        ...                                      # faults fire at their sites

    faults.check("sim.kernel", key=...)          # at a failure boundary
    faults.retrying("exec.kernel", thunk)        # self-healing boundary
"""

from repro.faults.errors import (
    DeterministicFault,
    DeviceLostFault,
    Fault,
    InjectedOOMFault,
    KernelLaunchFault,
    KernelTimeoutFault,
    TransientFault,
)
from repro.faults.inject import (
    Injector,
    activate,
    active_plan,
    check,
    current,
    deactivate,
    enabled,
    injected,
    retrying,
    suspended,
)
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    default_chaos_plan,
    load_plan,
)

__all__ = [
    "Fault",
    "TransientFault",
    "DeterministicFault",
    "KernelLaunchFault",
    "DeviceLostFault",
    "KernelTimeoutFault",
    "InjectedOOMFault",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultPlanError",
    "FaultRule",
    "default_chaos_plan",
    "load_plan",
    "Injector",
    "activate",
    "active_plan",
    "check",
    "current",
    "deactivate",
    "enabled",
    "injected",
    "retrying",
    "suspended",
]
