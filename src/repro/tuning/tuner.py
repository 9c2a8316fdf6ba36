"""The threshold autotuner (paper §4.2).

Given a compiled (incrementally flattened) program and a set of training
datasets, searches the threshold space for the assignment minimising a cost
function over the simulated run times.  The default cost is the sum of the
runtimes across datasets ("which favours improvements on large datasets"),
but any callable over the per-dataset times may be supplied.

The duplicate-path cache is the paper's key optimisation: before simulating,
the tuner computes the configuration's *path signature* for each dataset
(see :mod:`repro.tuning.tree`); a signature already measured returns its
recorded runtime immediately.  Two further layers make the hot path fast
(see ``docs/performance.md``): signatures are evaluated against a
per-dataset precompiled decision tree (:class:`~repro.tuning.tree.
SignatureEngine`) with a configuration→signature memo in front, and the
kernel-cost cache inside :mod:`repro.gpu.cost` prices repeated kernels
once.  With those caches a proposal usually costs microseconds, so
proposals are evaluated in-process, one after another.

Every configuration — a :meth:`Autotuner.tune` proposal, its fallback, or
an :meth:`Autotuner.measure` call from the exhaustive technique — takes one
path: :meth:`~Autotuner._evaluate` reads the caches and simulates on a
miss without writing tuner state (the fault boundary), and
:meth:`~Autotuner._commit` does the accounting, in proposal order.
:meth:`~Autotuner._attempt` wraps the two in the failure policy
(``docs/robustness.md``): quarantine, watchdog, transient-fault retries.
"""

from __future__ import annotations

import concurrent.futures
import math
import random
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro import faults, perf
from repro.obs import trace as obs
from repro.compiler import CompiledProgram
from repro.gpu.device import DeviceSpec
from repro.tuning.params import ParameterSpace
from repro.tuning.search import make_technique
from repro.tuning.tree import SignatureEngine

#: failure-aware score of a configuration that could not be measured
#: (quarantined or out of retry budget) — never improves on any real cost
PENALTY_COST = float("inf")

__all__ = ["Autotuner", "TuningResult"]

CostFn = Callable[[Sequence[float]], float]

#: path signature type (as produced by :func:`repro.tuning.tree.path_signature`)
Sig = tuple

#: what :meth:`Autotuner._evaluate` found, per dataset: the signature-memo
#: key (``None`` when the memo hit), the signature, the time, and whether
#: the path cache hit
Evaluation = list[tuple[tuple | None, Sig, float, bool]]


def sum_cost(times: Sequence[float]) -> float:
    """The paper's default cost function: total runtime over all datasets."""
    return float(sum(times))


@dataclass
class TuningResult:
    best_thresholds: dict[str, int]
    best_cost: float
    proposals: int
    simulations: int
    cache_hits: int
    #: improving proposals only: (proposal number, new best cost)
    history: list[tuple[int, float]] = field(default_factory=list)
    #: every evaluation in order: (configuration, cost) — the true
    #: convergence curve, including non-improving proposals
    full_history: list[tuple[dict[str, int], float]] = field(default_factory=list)
    #: per dataset: path signature -> number of evaluations that took it
    path_counts: list[dict[Sig, int]] = field(default_factory=list)
    #: transient-fault retries performed while measuring
    retries: int = 0
    #: configurations that failed deterministically: (thresholds, reason)
    quarantined: list[tuple[dict[str, int], str]] = field(default_factory=list)
    #: the search stopped because ``time_budget_s`` expired, not because
    #: the proposal budget was spent — callers deciding whether a
    #: checkpoint is safe to delete need this (a deadline-ended run's
    #: checkpoint still holds measurements a later ``--resume`` can
    #: extend).  Deliberately NOT part of :meth:`telemetry`: a recovered
    #: chaos run must stay byte-identical to its fault-free twin.
    deadline_hit: bool = False

    @property
    def dedup_ratio(self) -> float:
        total = self.simulations + self.cache_hits
        return self.cache_hits / total if total else 0.0

    def telemetry(self) -> dict:
        """Convergence telemetry as one JSON-serialisable document.

        Contains the best-so-far curve, the full cost curve, per-threshold
        proposal trajectories, and branching-tree path counts per dataset
        — persisted alongside tuning files (see
        :func:`repro.tuning.persist.save_telemetry`).
        """
        names = sorted({n for cfg, _ in self.full_history for n in cfg})
        doc = {
            "kind": "tuning-telemetry",
            "format": 1,
            "proposals": self.proposals,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "dedup_ratio": self.dedup_ratio,
            "best_cost": _json_cost(self.best_cost),
            "best_thresholds": dict(self.best_thresholds),
            "best_curve": [[p, _json_cost(c)] for p, c in self.history],
            "cost_curve": [_json_cost(c) for _, c in self.full_history],
            "threshold_trajectories": {
                n: [cfg.get(n) for cfg, _ in self.full_history] for n in names
            },
            "path_counts": [
                {repr(sig): n for sig, n in pc.items()}
                for pc in self.path_counts
            ],
            "distinct_paths": [len(pc) for pc in self.path_counts],
        }
        # Present only when something was actually quarantined: a recovered
        # chaos run's telemetry stays byte-identical to a fault-free run's
        # (the chaos differential asserts exactly this).  Retries are
        # likewise reported via perf counters, not here.
        if self.quarantined:
            doc["quarantined"] = [
                [dict(cfg), reason] for cfg, reason in self.quarantined
            ]
        return doc


def _json_cost(c: float) -> float | None:
    """A cost as JSON: the penalty (``inf``) maps to null, real costs pass
    through (``json.dumps`` would emit non-standard ``Infinity`` otherwise)."""
    return c if math.isfinite(c) else None


class Autotuner:
    """Stochastic threshold search with duplicate-path caching."""

    def __init__(
        self,
        compiled: CompiledProgram,
        datasets: Sequence[Mapping[str, int]],
        device: DeviceSpec,
        cost_fn: CostFn = sum_cost,
        seed: int = 0,
        lo: int = 1,
        hi: int = 2**30,
        noise: float = 0.0,
    ):
        """``noise`` adds multiplicative Gaussian measurement noise (the
        paper reports up to 3 % run-to-run standard deviation); the cache
        then stores the *observed* runtime, as real measurements would.
        Noise is derived deterministically from ``(seed, dataset, path
        signature)`` so the observed time of a path does not depend on
        evaluation order — which is what lets a resumed run replay
        checkpointed measurements bit for bit.

        The caches follow :mod:`repro.config`: under ``REPRO_NO_CACHE=1``
        every proposal is simulated from scratch.
        """
        self.compiled = compiled
        self.datasets = [dict(d) for d in datasets]
        self.device = device
        self.cost_fn = cost_fn
        self.seed = seed
        self.rng = random.Random(seed)
        self.noise = noise
        self.cache = perf.caching_enabled()
        self.space = ParameterSpace(compiled.thresholds(), lo, hi)
        #: per-dataset precompiled decision trees (fused signature walk)
        self._engines = [
            SignatureEngine(compiled.body, d, device) for d in self.datasets
        ]
        # per-dataset: restricted configuration -> path signature
        self._sig_memo: list[dict[tuple, Sig]] = [{} for _ in self.datasets]
        # per-dataset: path signature -> simulated time
        self._cache: list[dict[Sig, float]] = [{} for _ in self.datasets]
        # per-dataset: path signature -> evaluation count (telemetry)
        self.path_counts: list[dict[Sig, int]] = [{} for _ in self.datasets]
        self.simulations = 0
        self.cache_hits = 0
        self.retries = 0
        # per-dataset: path signature -> time preloaded from a checkpoint;
        # consulted before simulating, so a resumed run replays recorded
        # measurements instead of re-measuring
        self._recorded: list[dict[Sig, float]] = [{} for _ in self.datasets]
        # deterministically failing configurations, never re-evaluated:
        # sorted-items key -> (thresholds, reason)
        self._quarantine: dict[tuple, tuple[dict[str, int], str]] = {}
        # lazy single-thread watchdog for per-proposal timeouts
        self._watchdog: concurrent.futures.ThreadPoolExecutor | None = None

    # -- measurement -----------------------------------------------------------

    def _noise_factor(self, i: int, sig: Sig) -> float:
        """Deterministic per-(dataset, path) measurement noise."""
        rng = random.Random(f"{self.seed}|{self.noise}|{i}|{sig!r}")
        return max(0.0, 1.0 + rng.gauss(0.0, self.noise))

    def _evaluate(self, thresholds: Mapping[str, int]) -> Evaluation:
        """Evaluate one configuration without touching tuner state.

        The time comes from the path cache, then from the checkpointed
        measurements, and only then from a simulation.

        This is the fault boundary: an injected fault aborts it with
        nothing to undo, so a retried or abandoned proposal leaves the
        tuner exactly as if it had never been attempted.  What it returns
        is folded in by :meth:`_commit`.
        """
        out: Evaluation = []
        for i, engine in enumerate(self._engines):
            key: tuple | None = None
            if self.cache:
                key = engine.config_key(thresholds)
                sig = self._sig_memo[i].get(key)
                if sig is None:
                    sig = engine.signature(thresholds)
                else:
                    key = None
                t = self._cache[i].get(sig)
                if t is not None:
                    out.append((key, sig, t, True))
                    continue
                t = self._recorded[i].get(sig)
                if t is not None:
                    out.append((key, sig, t, False))
                    continue
            else:
                sig = engine.signature(thresholds)
            t = self.compiled.simulate(
                self.datasets[i], self.device, thresholds=thresholds
            ).time
            if self.noise:
                t *= self._noise_factor(i, sig)
            out.append((key, sig, t, False))
        return out

    def _commit(self, evaluated: Evaluation) -> list[float]:
        """Fold one configuration's :meth:`_evaluate` output into the
        signature memo, the path cache, the path counts and the counters;
        returns its per-dataset times.

        Commits happen in proposal order, so the counts match a fault-free
        run's.  A checkpointed measurement counts as a simulation, so a
        resumed run also reports an uninterrupted run's counts.
        """
        times: list[float] = []
        for i, (key, sig, t, hit) in enumerate(evaluated):
            counts = self.path_counts[i]
            counts[sig] = counts.get(sig, 0) + 1
            times.append(t)
            if self.cache:
                if key is None:
                    perf.inc("signature.cache_hits")
                else:
                    self._sig_memo[i][key] = sig
                    perf.inc("signature.cache_misses")
                if hit:
                    self.cache_hits += 1
                    perf.inc("tuner.path_cache.hits")
                    continue
                self._cache[i][sig] = t
                perf.inc("tuner.path_cache.misses")
            self.simulations += 1
            perf.inc("tuner.simulations")
        return times

    def _timed_eval(
        self, thresholds: Mapping[str, int], timeout_s: float
    ) -> Evaluation:
        """:meth:`_evaluate` under a wall-clock watchdog.

        A proposal overrunning ``timeout_s`` raises
        :class:`~repro.faults.KernelTimeoutFault` (transient, so the retry
        policy applies).  The overrun evaluation keeps running in its
        watchdog thread — threads cannot be killed — so the watchdog is
        abandoned and a fresh one is built for the next proposal; stray
        completions only warm process-global caches, which is harmless."""
        if self._watchdog is None:
            self._watchdog = concurrent.futures.ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="tuner-watchdog"
            )
        fut = self._watchdog.submit(self._evaluate, thresholds)
        try:
            return fut.result(timeout=timeout_s)
        except concurrent.futures.TimeoutError:
            fut.cancel()
            self._watchdog.shutdown(wait=False)
            self._watchdog = None
            raise faults.KernelTimeoutFault(
                f"proposal exceeded its {timeout_s}s deadline"
            ) from None

    def _close_watchdog(self) -> None:
        if self._watchdog is not None:
            self._watchdog.shutdown(wait=False)
            self._watchdog = None

    def _attempt(
        self,
        thresholds: Mapping[str, int],
        timeout_s: float | None,
        retries: int,
        backoff_s: float,
    ) -> list[float] | None:
        """Measure and commit one configuration under the failure policy.

        Returns its per-dataset times, or ``None`` when it cannot be
        measured.  Deterministic faults fail at once (same configuration,
        same fault — retrying is wasted work); transient faults (injected,
        or a watchdog timeout past ``timeout_s``) are retried up to
        ``retries`` times with exponential ``backoff_s``.  A configuration
        that fails is quarantined and never evaluated again; the caller
        scores it :data:`PENALTY_COST`."""
        if self._quarantine and (
            tuple(sorted(thresholds.items())) in self._quarantine
        ):
            return None
        attempt = 0
        while True:
            try:
                if timeout_s is None:
                    evaluated = self._evaluate(thresholds)
                else:
                    evaluated = self._timed_eval(thresholds, timeout_s)
            except faults.DeterministicFault as exc:
                reason = str(exc)
                break
            except faults.TransientFault as exc:
                attempt += 1
                self.retries += 1
                perf.inc("tuner.retries")
                obs.instant(
                    "tuner.retry", cat="tuner", attempt=attempt, error=str(exc)
                )
                if attempt > retries:
                    reason = (
                        f"transient-fault retry budget exhausted "
                        f"({retries}): {exc}"
                    )
                    break
                if backoff_s:
                    _time.sleep(min(backoff_s * (2 ** (attempt - 1)), 1.0))
                continue
            return self._commit(evaluated)
        self._quarantine[tuple(sorted(thresholds.items()))] = (
            dict(thresholds), reason
        )
        perf.inc("tuner.quarantined")
        obs.instant(
            "tuner.quarantine", cat="tuner",
            thresholds=dict(thresholds), reason=reason,
        )
        return None

    def measure(self, thresholds: Mapping[str, int]) -> float:
        """Cost of one configuration, via the duplicate-path cache, under
        the active fault plan's retry policy; :data:`PENALTY_COST` (and
        quarantine) when it cannot be measured."""
        times = self._attempt(thresholds, None, *_retry_policy())
        return PENALTY_COST if times is None else self.cost_fn(times)

    # -- checkpoints and quarantine ----------------------------------------------

    def measurements(self) -> list[dict[Sig, float]]:
        """Per-dataset signature→time maps covering everything measured so
        far, including measurements preloaded from a checkpoint — what a
        checkpoint of *this* run must contain."""
        return [
            {**rec, **cache} for rec, cache in zip(self._recorded, self._cache)
        ]

    def quarantine_list(self) -> list[tuple[dict[str, int], str]]:
        """Quarantined configurations as (thresholds, reason) pairs."""
        return [(dict(cfg), reason) for cfg, reason in self._quarantine.values()]

    def preload_measurements(
        self,
        measurements: Sequence[Mapping[Sig, float]],
        quarantined: Sequence[tuple[Mapping[str, int], str]] = (),
    ) -> None:
        """Load recorded measurements (and quarantine decisions) from a
        checkpoint before :meth:`tune` — the resume half of crash-safe
        tuning.  The search itself is a deterministic function of the seed,
        so replaying it against these measurements reproduces the original
        run bit for bit (see ``docs/robustness.md``)."""
        if len(measurements) != len(self.datasets):
            raise ValueError(
                f"checkpoint has {len(measurements)} datasets, "
                f"tuner has {len(self.datasets)}"
            )
        for rec, entries in zip(self._recorded, measurements):
            rec.update(entries)
        for cfg, reason in quarantined:
            self._quarantine.setdefault(
                tuple(sorted(cfg.items())), (dict(cfg), str(reason))
            )

    # -- search ------------------------------------------------------------------

    def tune(
        self,
        max_proposals: int = 300,
        technique: str = "bandit",
        time_budget_s: float | None = None,
        batch_size: int = 1,
        proposal_timeout_s: float | None = None,
        retries: int | None = None,
        backoff_s: float | None = None,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 10,
        progress: Callable[[int, float], None] | None = None,
    ) -> TuningResult:
        """Search for the best threshold assignment, starting from the
        default configuration.

        ``time_budget_s`` caps wall-clock search time (the paper lets the
        tuner run for at most 20 minutes per benchmark, §5.1); the deadline
        is checked both before proposing and after measuring, so a slow
        measurement ends the search instead of starting another round.

        Proposals are processed in batches of ``batch_size``: a batch is
        proposed against the incumbent best, evaluated, then fed back in
        order.  ``batch_size`` is a search parameter, not a parallelism
        knob: proposals inside a batch do not see each other's feedback,
        so it changes the proposal sequence and therefore the result.
        ``batch_size=1`` (the default) is the classic one-at-a-time
        search.

        Robustness (``docs/robustness.md``): every proposal — and the
        default-configuration fallback when no proposal was measured —
        goes through the one evaluation path that :meth:`measure` uses
        too.  ``proposal_timeout_s`` puts a wall-clock watchdog on each
        proposal; a timeout counts as a transient fault.  Transient faults
        are retried up to ``retries`` times with exponential ``backoff_s``
        (both default to the active fault plan's policy, or 8 retries / no
        backoff without one); configurations failing deterministically —
        or out of retry budget — score :data:`PENALTY_COST`, are
        quarantined, and are never re-evaluated.  ``checkpoint_path``
        atomically persists recoverable state every ``checkpoint_every``
        proposals, and a tuner whose measurements were preloaded via
        :meth:`preload_measurements` replays a checkpointed run to the
        bit-identical result.

        ``progress`` is called after each batch with ``(proposals,
        best_cost)`` — the service daemon streams these to clients.  An
        exception raised by the callback propagates out of :meth:`tune`
        (after the final checkpoint), which is how job cancellation
        interrupts a running search without losing its measurements.
        """
        retries, backoff_s = _retry_policy(retries, backoff_s)
        deadline = (
            _time.monotonic() + time_budget_s
            if time_budget_s is not None
            else None
        )
        tech = make_technique(technique)
        best_cfg: dict[str, int] | None = None
        best_cost = float("inf")
        deadline_hit = False
        history: list[tuple[int, float]] = []
        full_history: list[tuple[dict[str, int], float]] = []

        proposals = 0
        last_checkpoint = 0

        def checkpoint(force: bool = False) -> None:
            nonlocal last_checkpoint
            if checkpoint_path is None:
                return
            if not force and proposals - last_checkpoint < checkpoint_every:
                return
            from repro.tuning import persist as _persist

            _persist.save_checkpoint(
                checkpoint_path, self, proposals, best_cfg, best_cost
            )
            last_checkpoint = proposals

        try:
            with perf.timer("tune"), obs.span(
                "tune", cat="tuner",
                program=self.compiled.prog.name, technique=technique,
                max_proposals=max_proposals, batch_size=batch_size,
                datasets=len(self.datasets),
            ) as tsp:
                while proposals < max_proposals:
                    if deadline is not None and _time.monotonic() >= deadline:
                        deadline_hit = True
                        break
                    # the batch-granular fault site: plans target it with
                    # process_kill (the kill/--resume round-trip) or delay
                    faults.check("tuner.batch")
                    batch: list[dict[str, int]] = []
                    while (
                        len(batch) < batch_size
                        and proposals + len(batch) < max_proposals
                    ):
                        if proposals + len(batch) == 0:
                            batch.append(self.space.default_config())
                        else:
                            batch.append(tech.propose(self.space, self.rng, best_cfg))
                    with obs.span("tuner.eval_batch", cat="tuner",
                                  size=len(batch)):
                        all_times = [
                            self._attempt(cfg, proposal_timeout_s, retries, backoff_s)
                            for cfg in batch
                        ]
                    for cfg, times in zip(batch, all_times):
                        with obs.span("tuner.proposal", cat="tuner") as psp:
                            cost = (
                                self.cost_fn(times)
                                if times is not None
                                else PENALTY_COST
                            )
                            proposals += 1
                            full_history.append((dict(cfg), cost))
                            improved = cost < best_cost
                            tech.feedback(improved)
                            if improved:
                                best_cfg, best_cost = dict(cfg), cost
                                history.append((proposals, cost))
                            psp["proposal"] = proposals
                            psp["cost"] = cost if times is not None else "penalty"
                            psp["improved"] = improved
                            psp["best_cost"] = _json_cost(best_cost)
                            psp["thresholds"] = dict(cfg)
                            if times is None:
                                psp["failed"] = True
                    checkpoint()
                    if progress is not None:
                        try:
                            progress(proposals, best_cost)
                        except BaseException:
                            # a cancelling callback must not lose this
                            # batch's measurements: checkpoint, then let
                            # the exception interrupt the search
                            checkpoint(force=True)
                            raise
                    if deadline is not None and _time.monotonic() >= deadline:
                        deadline_hit = True
                        break
                tsp["proposals"] = proposals
                tsp["simulations"] = self.simulations
                tsp["cache_hits"] = self.cache_hits

            if best_cfg is None:
                # nothing was measured (the deadline struck first, or every
                # proposal failed): fall back to the defaults, and account
                # the fallback like any other proposal
                best_cfg = self.space.default_config()
                times = self._attempt(
                    best_cfg, proposal_timeout_s, retries, backoff_s
                )
                best_cost = PENALTY_COST if times is None else self.cost_fn(times)
                proposals += 1
                full_history.append((dict(best_cfg), best_cost))
                history.append((proposals, best_cost))
                checkpoint(force=True)
        finally:
            self._close_watchdog()
        return TuningResult(
            best_thresholds=best_cfg,
            best_cost=best_cost,
            proposals=proposals,
            simulations=self.simulations,
            cache_hits=self.cache_hits,
            history=history,
            full_history=full_history,
            path_counts=self.path_counts,
            retries=self.retries,
            quarantined=self.quarantine_list(),
            deadline_hit=deadline_hit,
        )


def _retry_policy(
    retries: int | None = None, backoff_s: float | None = None
) -> tuple[int, float]:
    """Fill unset retry settings from the active fault plan's policy, or
    8 retries and no backoff without a plan."""
    plan = faults.active_plan()
    if retries is None:
        retries = plan.retries if plan is not None else 8
    if backoff_s is None:
        backoff_s = plan.backoff_s if plan is not None else 0.0
    return retries, backoff_s
