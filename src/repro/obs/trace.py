"""The span tracer: structured, nested, thread-safe timing events.

A :class:`Tracer` records *spans* — named intervals with a category and a
mutable ``args`` dict — and *instants* (zero-duration markers).  Spans nest
naturally through the ``with`` statement; nesting per thread is recovered
by trace viewers from the (start, duration, thread) triple, so no explicit
parent links are stored.

Tracing is off by default and costs one global read per instrumentation
point when off: :func:`span` returns one shared, reentrant null context
manager, whose ``with`` block gets the shared :data:`NULL_SPAN` (which
swallows attribute writes); nothing is allocated but the call's keyword
arguments.  Hot paths that must not even build their argument dicts
should guard on :func:`current` / :func:`enabled` instead.

The module-level functions (:func:`start`, :func:`stop`, :func:`tracing`,
:func:`span`, :func:`instant`) operate on one process-global active
tracer; exporters live in :mod:`repro.obs.chrome` and
:mod:`repro.obs.summary`.
"""

from __future__ import annotations

import threading
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from typing import Any, Iterator

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "start",
    "stop",
    "current",
    "enabled",
    "tracing",
    "span",
    "instant",
]


class Span:
    """One named interval.  ``sp["key"] = value`` attaches an attribute."""

    __slots__ = ("name", "cat", "ts", "dur", "tid", "args")

    def __init__(self, name: str, cat: str, ts: float, tid: int, args: dict):
        self.name = name
        self.cat = cat
        self.ts = ts  # seconds since the tracer's epoch
        self.dur = 0.0  # seconds; set when the span closes
        self.tid = tid
        self.args = args

    def __setitem__(self, key: str, value: Any) -> None:
        self.args[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, ts={self.ts:.6f}, "
            f"dur={self.dur:.6f}, args={self.args!r})"
        )


class _NullSpan:
    """Attribute sink yielded by :func:`span` when tracing is off."""

    __slots__ = ()

    def __setitem__(self, key: str, value: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


#: what :func:`span` returns when tracing is off: one shared instance,
#: entered any number of times, nested or not
_NULL_CONTEXT = nullcontext(NULL_SPAN)


class Tracer:
    """Collects spans and instant events for one tracing session."""

    def __init__(self, process_name: str = "repro"):
        self.process_name = process_name
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.instants: list[Span] = []
        #: free-form session metadata (program name, CLI args, ...)
        self.metadata: dict[str, Any] = {}
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "repro", **args: Any) -> Iterator[Span]:
        """Record the ``with`` block as a span.  Yields the (mutable) span."""
        sp = Span(
            name,
            cat,
            ts=time.perf_counter() - self.epoch,
            tid=threading.get_ident(),
            args=dict(args),
        )
        try:
            yield sp
        finally:
            sp.dur = time.perf_counter() - self.epoch - sp.ts
            with self._lock:
                self.spans.append(sp)

    def instant(self, name: str, cat: str = "repro", **args: Any) -> None:
        """Record a zero-duration marker event."""
        sp = Span(
            name,
            cat,
            ts=time.perf_counter() - self.epoch,
            tid=threading.get_ident(),
            args=dict(args),
        )
        with self._lock:
            self.instants.append(sp)

    # -- reading -------------------------------------------------------------

    def find(self, name: str) -> list[Span]:
        """All closed spans called ``name`` (recording order)."""
        with self._lock:
            return [sp for sp in self.spans if sp.name == name]

    def categories(self) -> set[str]:
        with self._lock:
            return {sp.cat for sp in self.spans} | {
                sp.cat for sp in self.instants
            }


# -- the process-global active tracer ---------------------------------------

_ACTIVE: Tracer | None = None
_ACTIVE_LOCK = threading.Lock()


def start(process_name: str = "repro") -> Tracer:
    """Install a fresh tracer as the active one and return it."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = Tracer(process_name)
        return _ACTIVE


def stop() -> Tracer | None:
    """Deactivate and return the active tracer (``None`` if none)."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        tr, _ACTIVE = _ACTIVE, None
        return tr


def current() -> Tracer | None:
    """The active tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def enabled() -> bool:
    return _ACTIVE is not None


@contextmanager
def tracing(process_name: str = "repro") -> Iterator[Tracer]:
    """``with tracing() as tr:`` — scoped start/stop (tests, CLI)."""
    tr = start(process_name)
    try:
        yield tr
    finally:
        global _ACTIVE
        with _ACTIVE_LOCK:
            if _ACTIVE is tr:
                _ACTIVE = None


def span(
    name: str, cat: str = "repro", **args: Any
) -> AbstractContextManager[Span | _NullSpan]:
    """Span on the active tracer, for a ``with`` statement; when off, the
    shared null context, whose block gets :data:`NULL_SPAN`."""
    tr = _ACTIVE
    if tr is None:
        return _NULL_CONTEXT
    return tr.span(name, cat, **args)


def instant(name: str, cat: str = "repro", **args: Any) -> None:
    """Instant event on the active tracer; no-op when off."""
    tr = _ACTIVE
    if tr is not None:
        tr.instant(name, cat, **args)
