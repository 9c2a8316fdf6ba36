"""The fault taxonomy of the injection layer (``docs/robustness.md``).

Two recovery classes matter to the runtime:

* :class:`TransientFault` — a retry of the *same* work may succeed (kernel
  launch failure, device loss, watchdog timeout).  Runtimes handle these
  with bounded retry + exponential backoff.
* :class:`DeterministicFault` — the same configuration will fail the same
  way every time (e.g. a version whose workgroup needs more local memory
  than the device has, with no fallback left).  Retrying is pointless; the
  tuner quarantines the configuration and scores it with a penalty cost,
  mirroring OpenTuner's handling of failed measurements.
"""

from __future__ import annotations

__all__ = [
    "Fault",
    "TransientFault",
    "KernelLaunchFault",
    "DeviceLostFault",
    "KernelTimeoutFault",
    "DeterministicFault",
    "InjectedOOMFault",
]


class Fault(Exception):
    """Base class of every injected (or modelled) runtime fault."""

    #: short machine-readable fault kind (mirrors the plan's rule kinds)
    kind = "fault"


class TransientFault(Fault):
    """A fault where retrying the same work may succeed."""

    kind = "transient"


class KernelLaunchFault(TransientFault):
    """A kernel launch was rejected by the driver (transient)."""

    kind = "launch"


class DeviceLostFault(TransientFault):
    """The device was lost mid-operation (transient driver fault)."""

    kind = "device_lost"


class KernelTimeoutFault(TransientFault):
    """A kernel exceeded its watchdog deadline (hang, treated as transient)."""

    kind = "timeout"


class DeterministicFault(Fault):
    """A fault that the same configuration will always reproduce."""

    kind = "deterministic"


class InjectedOOMFault(DeterministicFault):
    """Local-memory exhaustion beyond ``DeviceSpec.local_mem`` with no
    remaining §4.1 fallback version — deterministic per configuration."""

    kind = "oom"
