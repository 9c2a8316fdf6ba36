"""Lightweight performance instrumentation for the evaluation engine.

The tune/simulate hot path is layered with caches (see
``docs/performance.md``); this module provides the counters and timers that
make their effectiveness observable, plus the global cache kill-switch.
It is the metrics backbone of the observability layer
(``docs/observability.md``): while a tracer is active
(:mod:`repro.obs.trace`), every :func:`timer` block also records a span.

* :func:`inc` / :func:`counters` — named monotonic counters (cache hits and
  misses, simulations, AST nodes visited, ...).  Thread-safe.
* :func:`timer` — a context manager accumulating wall time per stage.
  Thread-safe and reentrant: when the same stage name nests (directly or
  indirectly) in one thread, only the outermost block adds its elapsed
  time, so accumulated time never exceeds wall time.
* :func:`caching_enabled` — ``False`` when the config's ``cache`` is off
  (``REPRO_NO_CACHE=1``), which disables every cache layer for debugging;
  in-process callers switch it with :func:`repro.config.use`.
* :func:`register_cache` / :func:`clear_caches` — modules register their
  cache dicts here so all layers can be dropped in one call.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, MutableMapping

from repro import config as _config
from repro.obs import trace as _trace

__all__ = [
    "inc",
    "counters",
    "timers",
    "timer",
    "snapshot",
    "reset",
    "caching_enabled",
    "register_cache",
    "clear_caches",
]

_LOCK = threading.Lock()
_COUNTERS: defaultdict[str, float] = defaultdict(float)
_TIMERS: defaultdict[str, float] = defaultdict(float)
_CACHES: dict[str, MutableMapping] = {}
#: per-thread {stage name: nesting depth} for reentrant timers
_ACTIVE = threading.local()


def inc(name: str, n: float = 1) -> None:
    """Increment the counter ``name`` by ``n`` (thread-safe)."""
    with _LOCK:
        _COUNTERS[name] += n


def counters() -> dict[str, float]:
    """Current counter values (a copy)."""
    with _LOCK:
        return dict(_COUNTERS)


def timers() -> dict[str, float]:
    """Accumulated wall seconds per timed stage (a copy)."""
    with _LOCK:
        return dict(_TIMERS)


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Accumulate the wall time of the ``with`` block under ``name``.

    Reentrant per thread: nested blocks with the same name contribute
    nothing of their own (the outermost block's elapsed time already
    covers them), so a stage's accumulated time never exceeds its wall
    time.  While a tracer is active the block is also recorded as a span
    (category ``perf``), including reentered inner blocks.
    """
    depths = getattr(_ACTIVE, "depths", None)
    if depths is None:
        depths = _ACTIVE.depths = {}
    outermost = not depths.get(name)
    depths[name] = depths.get(name, 0) + 1
    tracer = _trace.current()
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.span(name, cat="perf"):
                yield
        else:
            yield
    finally:
        elapsed = time.perf_counter() - t0
        depths[name] -= 1
        if outermost:
            with _LOCK:
                _TIMERS[name] += elapsed


def snapshot() -> dict[str, dict[str, float]]:
    """Counters, timers and cache sizes in one structure (for reports)."""
    return {
        "counters": counters(),
        "timers": timers(),
        "cache_sizes": {name: len(c) for name, c in _CACHES.items()},
    }


def reset() -> None:
    """Zero all counters and timers (caches are left intact)."""
    with _LOCK:
        _COUNTERS.clear()
        _TIMERS.clear()


# -- cache registry -----------------------------------------------------------


def caching_enabled() -> bool:
    """Global cache switch: ``REPRO_NO_CACHE=1`` disables every layer."""
    return _config.current().cache


def register_cache(name: str, cache: MutableMapping) -> MutableMapping:
    """Register a module-level cache dict so :func:`clear_caches` finds it."""
    _CACHES[name] = cache
    return cache


def clear_caches() -> None:
    """Empty every registered cache (cold-start state for benchmarks)."""
    for cache in _CACHES.values():
        cache.clear()
