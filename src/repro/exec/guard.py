"""Guarded kernel execution: demotion ladder + per-kernel circuit breakers.

The paper's branching tree dispatches among semantically-equivalent code
versions guarded by cheap runtime predicates; this module applies the
same principle one level up, to the engine stack itself.  The three
executors — generated-source Python (codegen), batched NumPy closures
(vector), and the per-lane scalar oracle — are proven bit-identical by
the differential harness, so any launch that fails on one tier can be
*demoted* one rung and re-executed with identical results
(``docs/guarded-execution.md``).

For every emitted codegen kernel the guard assembles a ladder of launch
rungs, highest tier first::

    codegen  ->  vector  ->  scalar

and wraps each launch:

* a launch failure — a raised exception, or a fault injected at the
  ``exec.launch.<tier>`` site (``launch``/``device_lost``/``oom``) —
  records a failure against that kernel fingerprint's circuit breaker
  and re-executes on the next rung down (one ``exec.guard.demotions``
  per hop; the bottom rung has no net and propagates);
* ``guard_trip`` consecutive failures (:mod:`repro.config`,
  ``REPRO_GUARD_TRIP``) trip the breaker: the fingerprint is
  *quarantined* to the lower tier and the failing rung is skipped
  outright (no fault boundary, no re-raise churn);
* after :data:`COOLDOWN` quarantined launches the breaker goes *half-open*:
  the next launch probes the higher tier again, re-closing the breaker
  on success and re-opening it (cooldown restarted) on failure;
* breaker state persists crash-safely next to the compile cache
  (:func:`repro.exec.compile_cache.breaker_path`, atomic writes on every
  state transition), so a restarted process does not re-discover the
  same bad kernel.  Files stamped with a stale codegen ``CACHE_VERSION``
  or another device signature are *discarded*, never an error —
  mirroring the tuning-file staleness rules.

Opt-in spot verification (``--verify-rate p``) re-runs a
deterministically sampled fraction of higher-tier launches on the vector
oracle and compares bit-exactly; a divergence counts as a launch failure
(breaker + demotion), returns the oracle's values, and lands the
offending kernel source + inputs as a JSON document the fuzzer corpus
tooling recognises (``tests/corpus/`` format, ``kind:
"guard-divergence"``).

The steady-state cost per launch is one dict probe, one fault-site check
(a single global ``None`` test without an active plan) and a counter
increment.  The committed ``BENCH_guard.json`` (``benchmarks/bench_guard.py``)
is a smoke run over two programs, Heston and SRAD, at a 1.25 floor ratio;
it reads +0.56 %.  ``REPRO_GUARD=0`` removes the wrapper entirely.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import threading

import numpy as np

from repro import config, faults, perf
from repro.obs import trace as obs

__all__ = [
    "COOLDOWN",
    "wrap_kernel",
    "Breaker",
    "demotion_count",
    "snapshot",
    "flush",
    "load",
    "reset",
    "device_sig",
    "corpus_dir",
]

#: breaker-file schema version.  Format 2 dropped a tier from the ladder:
#: a format-1 file may hold breakers for a tier no rung probes any more,
#: which would never close, so it is discarded as stale
BREAKER_FORMAT = 2

#: interned fault-site names for the standard tiers (wrap-time lookup)
_SITES = {t: f"exec.launch.{t}" for t in ("codegen", "vector", "scalar")}

#: quarantined launches before an open breaker probes its tier again
COOLDOWN = 16

_lock = threading.RLock()
_breakers: dict[tuple[str, str], "Breaker"] = {}
_launches: dict[str, int] = {}  # per-kernel launch count (verify sampling)
_demotions = 0  # process-wide demotion events (ladder hops + quarantine)
_loaded = False


# -- configuration -----------------------------------------------------------


def device_sig() -> str:
    """The execution-substrate signature stamped into breaker files.

    Breakers quarantine *this* machine's miscompilations; a file from a
    different architecture or Python (different codegen behaviour) is
    stale and discarded on load.
    """
    return (
        f"{platform.machine() or 'unknown'}"
        f"-py{sys.version_info[0]}.{sys.version_info[1]}"
    )


def corpus_dir() -> str:
    """Where verify-divergence counterexamples land.

    The configured ``corpus_dir`` (``REPRO_CORPUS_DIR``) wins; otherwise
    ``tests/corpus`` when invoked from a checkout that has one, else a
    ``corpus/`` directory next to the compile cache.
    """
    configured = config.current().corpus_dir
    if configured:
        return configured
    checkout = os.path.join(os.getcwd(), "tests", "corpus")
    if os.path.isdir(checkout):
        return checkout
    from repro.exec import compile_cache

    return os.path.join(compile_cache.shared_dir(), "corpus")


# -- circuit breaker ---------------------------------------------------------


class Breaker:
    """Per-(kernel fingerprint, tier) circuit breaker.

    States: ``closed`` (tier serves; failures count toward the trip
    threshold), ``open`` (tier quarantined; launches skip it and count
    toward the cooldown), ``half_open`` (cooldown elapsed; the next
    launch probes the tier — success re-closes, failure re-opens).
    """

    __slots__ = ("key", "tier", "state", "fails", "skips", "trips", "probes")

    def __init__(self, key: str, tier: str):
        self.key = key
        self.tier = tier
        self.state = "closed"
        self.fails = 0  # consecutive failures while closed
        self.skips = 0  # quarantined launches since the trip
        self.trips = 0  # times this breaker has tripped (telemetry)
        self.probes = 0  # half-open probes attempted (telemetry)

    def allow(self) -> bool:
        """May the guarded tier be attempted for this launch?"""
        if self.state == "closed" or self.state == "half_open":
            return True
        self.skips += 1
        if self.skips >= COOLDOWN:
            self.state = "half_open"
            perf.inc("exec.guard.half_open")
            _persist_locked()
            return True
        return False

    def record_failure(self) -> None:
        if self.state == "half_open":
            # failed probe: back to quarantine, cooldown restarted
            self.state = "open"
            self.skips = 0
            perf.inc("exec.guard.reopened")
            _persist_locked()
            return
        self.fails += 1
        if self.state == "closed" and self.fails >= config.current().guard_trip:
            self.state = "open"
            self.skips = 0
            self.trips += 1
            perf.inc("exec.guard.tripped")
            obs.instant(
                "exec.guard.tripped", cat="exec",
                key=self.key[:12], tier=self.tier, fails=self.fails,
            )
            _persist_locked()

    def record_success(self) -> None:
        if self.state == "half_open":
            self.state = "closed"
            self.fails = 0
            self.skips = 0
            perf.inc("exec.guard.reclosed")
            obs.instant(
                "exec.guard.reclosed", cat="exec",
                key=self.key[:12], tier=self.tier,
            )
            _persist_locked()
        elif self.fails:
            self.fails = 0  # intermittent failure healed without a trip

    def interesting(self) -> bool:
        """Worth persisting / reporting (not a pristine closed breaker)?"""
        return self.state != "closed" or self.fails > 0 or self.trips > 0

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "tier": self.tier,
            "state": self.state,
            "fails": self.fails,
            "skips": self.skips,
            "trips": self.trips,
            "probes": self.probes,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "Breaker":
        br = cls(str(doc["key"]), str(doc["tier"]))
        state = str(doc.get("state", "closed"))
        # a crash mid-probe must not lose the quarantine: resume half-open
        # as open with the cooldown elapsed (the next launch re-probes)
        br.state = state if state in ("closed", "open", "half_open") else "closed"
        br.fails = int(doc.get("fails", 0))
        br.skips = int(doc.get("skips", 0))
        br.trips = int(doc.get("trips", 0))
        br.probes = int(doc.get("probes", 0))
        return br


def _breaker(key: str, tier: str) -> Breaker:
    br = _breakers.get((key, tier))
    if br is None:
        br = _breakers[(key, tier)] = Breaker(key, tier)
    return br


# -- persistence (crash-safe, beside the compile cache) ----------------------


def _cache_version() -> int:
    from repro.exec.codegen import CACHE_VERSION

    return CACHE_VERSION


def _path() -> str:
    from repro.exec import compile_cache

    return compile_cache.breaker_path()


def _persist_locked() -> None:
    """Atomically write the breaker table (caller holds ``_lock``)."""
    doc = {
        "kind": "guard-breakers",
        "format": BREAKER_FORMAT,
        "cache_version": _cache_version(),
        "device": device_sig(),
        "breakers": [
            br.to_json() for br in _breakers.values() if br.interesting()
        ],
    }
    try:
        from repro.ioutil import atomic_write_json

        atomic_write_json(_path(), doc)
    except (OSError, TypeError, ValueError):
        pass  # persistence is best-effort; the in-memory state still guards


def load() -> int:
    """Load persisted breakers (idempotent); returns how many resumed.

    A missing file starts clean; a torn, foreign, or *stale* file — wrong
    ``format``/``kind``, another codegen ``CACHE_VERSION``, another
    device signature — is discarded (``exec.guard.breaker_stale``), never
    an error: a stale quarantine is worse than re-discovering a bad
    kernel.
    """
    global _loaded
    with _lock:
        if _loaded:
            return 0
        _loaded = True
        try:
            with open(_path(), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(doc, dict)
            or doc.get("kind") != "guard-breakers"
            or doc.get("format") != BREAKER_FORMAT
            or doc.get("cache_version") != _cache_version()
            or doc.get("device") != device_sig()
        ):
            perf.inc("exec.guard.breaker_stale")
            obs.instant("exec.guard.breaker_stale", cat="exec")
            return 0
        n = 0
        for bdoc in doc.get("breakers", []):
            try:
                br = Breaker.from_json(bdoc)
            except (KeyError, TypeError, ValueError):
                continue
            _breakers[(br.key, br.tier)] = br
            n += 1
        if n:
            perf.inc("exec.guard.breaker_resumed", n)
        return n


def flush() -> None:
    """Persist the full breaker table now (daemon drain path).

    State transitions persist eagerly, but plain fail counts — including
    the result of a half-open probe that *closed* a breaker between two
    transitions — only reach disk here or at the next transition; the
    daemon calls this after its runners drain so a shutdown never loses
    an in-flight probe's outcome.
    """
    with _lock:
        load()
        _persist_locked()


def reset(*, drop_disk: bool = False) -> None:
    """Forget all in-memory guard state (tests).

    With ``drop_disk`` the persisted breaker file is removed as well;
    otherwise the next :func:`load` re-reads it.
    """
    global _loaded, _demotions
    with _lock:
        _breakers.clear()
        _launches.clear()
        _demotions = 0
        _loaded = False
        if drop_disk:
            try:
                os.unlink(_path())
            except OSError:
                pass


# -- introspection -----------------------------------------------------------


def demotion_count() -> int:
    """Process-wide demotion events (ladder hops + quarantined launches)."""
    return _demotions


def snapshot() -> dict:
    """Breaker states + guard counters (the daemon's ``health`` op)."""
    with _lock:
        load()
        breakers = [
            br.to_json() for br in _breakers.values() if br.interesting()
        ]
    counters = {
        k: v for k, v in perf.counters().items() if k.startswith("exec.guard.")
    }
    cfg = config.current()
    return {
        "active": cfg.guard,
        "verify_rate": cfg.verify_rate,
        "demotions": _demotions,
        "breakers": sorted(breakers, key=lambda b: (b["key"], b["tier"])),
        "counters": counters,
    }


# -- the launch wrapper ------------------------------------------------------


def _bits(vals) -> tuple:
    """A bit-exact comparison key for a launch's value tuple."""
    out = []
    for v in vals:
        if isinstance(v, np.ndarray):
            out.append((v.shape, str(v.dtype), v.tobytes()))
        elif isinstance(v, np.generic):
            out.append((str(v.dtype), v.tobytes()))
        else:
            out.append((type(v).__name__, repr(v)))
    return tuple(out)


def _verify_due(key: str, p: float) -> bool:
    """Deterministic sampling at rate ``p``: launch ``i`` of a kernel
    verifies iff ``floor(i*p)`` advanced — no RNG, so a verified run stays
    replayable."""
    if p <= 0.0:
        return False
    i = _launches.get(key, 0) + 1
    _launches[key] = i
    return int(i * p) > int((i - 1) * p)


def _land_corpus(key: str, tier: str, source, env, n, detail: str, lanes=()) -> None:
    """Write a divergence counterexample for the fuzzer corpus.

    A name in ``lanes`` is bound by reference, as ``(base, rows)``: the
    document holds its lanes' own values, ``base[rows]``.
    """
    inputs = {}
    for name, v in sorted(env.items()):
        arr = v[0][v[1]] if name in lanes else np.asarray(v)
        if arr.dtype.kind in "fiub" and arr.size <= 4096:
            inputs[name] = {
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "data": arr.tolist(),
            }
    doc = {
        "kind": "guard-divergence",
        "note": f"spot-verification divergence at the {tier} tier",
        "key": key,
        "tier": tier,
        "detail": detail,
        "device": device_sig(),
        "cache_version": _cache_version(),
        "source": source,
        "n": n if isinstance(n, int) else None,
        "inputs": inputs,
    }
    try:
        from repro.ioutil import atomic_write_json

        d = corpus_dir()
        os.makedirs(d, exist_ok=True)
        atomic_write_json(
            os.path.join(d, f"guard_{key[:16]}_{tier}.json"), doc, indent=2
        )
        perf.inc("exec.guard.corpus_landed")
    except (OSError, TypeError, ValueError):
        pass


def wrap_kernel(
    key: str, rungs, *, source: str | None = None, lanes=(),
    rate: list[float] | None = None,
):
    """Wrap a kernel's launch ladder; returns a ``(env, n) -> tuple``.

    ``rungs`` is an ordered list of ``(tier, fn)`` pairs, highest tier
    first.  Every rung but the last is breaker-guarded and demotes on
    failure; the last rung (the scalar oracle) is the safety net and
    propagates.  ``lanes`` names the environment entries the kernel reads
    by reference (``docs/execution.md``).  ``rate`` is a one-element list
    holding the spot-verification rate, which a launch reads instead of
    the config: the evaluator that owns the kernel sets it when a run
    starts (``CodegenEvaluator.eval``).  Without it, the rate configured
    when the kernel is wrapped applies.
    """
    if rate is None:
        rate = [config.current().verify_rate]
    rungs = list(rungs)
    oracle = None
    for tier, fn in rungs:
        if tier == "vector":
            oracle = fn
            break
    # hot-path precomputation: fault-site strings and breaker keys are
    # per-(kernel, tier) constants, so build them once per wrap, not per
    # launch; the last rung is the bare safety net
    guarded = tuple(
        [
            (
                tier,
                fn,
                _SITES.get(tier) or f"exec.launch.{tier}",
                (key, tier),
            )
            for tier, fn in rungs[:-1]
        ]
    )
    # hot-path locals bound at wrap time as defaults (the dicts are only
    # ever mutated in place, never rebound): the happy path below must stay
    # in the hundreds of nanoseconds — launch counts scale with the data on
    # batched programs, so every global lookup here is multiplied by the
    # workload.  Each wrap owns its closure: two evaluators that emit the
    # same kernel key launch their own generated functions, which read
    # their own thresholds and counters.
    def launch(
        env,
        n,
        _guarded=guarded,
        _last_fn=rungs[-1][1],
        _oracle=oracle,
        _source=source,
        _lanes=frozenset(lanes),
        _br_get=_breakers.get,
        _faults=faults.inject,
        _rate=rate,
    ):
        global _demotions
        if not _loaded:
            load()
        for tier, fn, site, bkey in _guarded:
            # lock-free probe: dict.get is atomic under the GIL, and a
            # healthy kernel has no breaker — the steady state takes no
            # lock at all.  A breaker racing into existence mid-launch
            # is picked up on the next launch.
            br = _br_get(bkey)
            if br is not None:
                with _lock:
                    if not br.allow():
                        # quarantined: serve the lower tier untried
                        _demotions += 1
                        perf.inc("exec.guard.quarantined")
                        continue
                    if br.state == "half_open":
                        br.probes += 1
                        perf.inc("exec.guard.probes")
            try:
                # inlined faults.check fast path: an attribute read beats
                # a call, and this line runs once per launch
                inj = _faults._INJECTOR
                if inj is not None:
                    inj.check(site, key)
                vals = fn(env, n)
            except Exception as exc:  # noqa: BLE001 - any launch failure demotes
                with _lock:
                    _breaker(key, tier).record_failure()
                    _demotions += 1
                perf.inc("exec.guard.demotions")
                perf.inc(f"exec.guard.demotions.{tier}")
                obs.instant(
                    "exec.guard.demoted", cat="exec", key=key[:12],
                    tier=tier, error=f"{type(exc).__name__}: {exc}",
                )
                continue
            if (
                _oracle is not None
                and fn is not _oracle
                and (p := _rate[0]) > 0.0
                and _verify_due(key, p)
            ):
                perf.inc("exec.guard.verified")
                with obs.span(
                    "exec.guard.verify", cat="exec", key=key[:12], tier=tier
                ):
                    expected = _oracle(env, n)
                if _bits(vals) != _bits(expected):
                    detail = (
                        f"{tier} tier diverged from the vector oracle on a "
                        f"sampled launch"
                    )
                    perf.inc("exec.guard.verify_divergence")
                    obs.instant(
                        "exec.guard.verify_divergence", cat="exec",
                        key=key[:12], tier=tier,
                    )
                    _land_corpus(key, tier, _source, env, n, detail, _lanes)
                    with _lock:
                        _breaker(key, tier).record_failure()
                        _demotions += 1
                    perf.inc("exec.guard.demotions")
                    perf.inc(f"exec.guard.demotions.{tier}")
                    return expected  # the oracle's values are the semantics
            if br is not None:
                with _lock:
                    br.record_success()
            return vals
        return _last_fn(env, n)

    launch._guard_wrapped = True  # introspection for tests
    return launch
