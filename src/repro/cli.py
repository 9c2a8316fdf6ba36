"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------

* ``list`` — the built-in benchmark programs and their datasets.
* ``show PROG [--mode MODE] [--tree]`` — compile and print the target code
  (and optionally the branching tree) for a built-in benchmark or a
  ``.fut``-style source file.
* ``run PROG --size n=4 --size m=3 [--seed S] [--threshold t0=V]
  [--exec scalar|vector] [--online TABLE [--device D]]`` — run a program
  on random inputs with the reference interpreter or the vectorizing
  executor (``docs/execution.md``); ``--online`` takes the thresholds
  from ``TABLE``'s entry for the dataset's shape class, tuning the class
  on the device model ``D`` and persisting it to ``TABLE`` when the
  table has no entry yet (``docs/online-tuning.md``).
* ``simulate PROG --size ... [--device K40|Vega64] [--threshold t0=V]
  [--exec scalar|vector]`` — estimate the run time with the GPU cost
  model; with ``--exec`` also execute the program with that engine and
  report the measured wall time alongside the modeled time.
* ``tune PROG --dataset n=...,m=... [--dataset ...] [--device D]
  [--technique bandit|random|hillclimb|exhaustive] [--batch-size B]
  [--time-budget S] [--proposal-timeout S] [--retries N] [--backoff S]
  [--checkpoint-every N] [--resume]`` — autotune thresholds.
  ``--batch-size`` is a search parameter: proposals in one batch are
  drawn before any of them is fed back, so it changes the result.
  With ``--output`` the run checkpoints its measurements to
  ``<output>.ckpt.json`` every N proposals; after a crash or kill,
  ``--resume`` replays the checkpoint to the bit-identical result an
  uninterrupted run produces (``docs/robustness.md``).
* ``figures [NAMES...]`` — regenerate the paper's tables (fig2, fig7, fig8,
  ablation, code, autotuner-free).
* ``check [PROGS...] [--fuzz] [--max-examples N] [--report out.json]
  [--exec scalar|vector|both] [--fusion ilp|off|both]
  [--chaos]`` — differential correctness harness: validate the IR after
  every pass and assert every forced code-version path computes
  bit-identical results to the source interpreter, under the selected
  executor(s) (default: both) and fusion mode(s) (default: ``both`` =
  ILP fusion and fusion off); ``--fuzz`` additionally checks N generated
  programs (``--fuzz-style fusion`` weights generation toward fusable
  chains; ``--corpus-out DIR`` writes shrunk counterexamples as
  ``tests/corpus/``-format files); ``--chaos``
  additionally runs the chaos differential — tuning and forced-path
  results under a recoverable injected-fault schedule must be
  bit-identical to fault-free runs.  Exits nonzero on any failure.
* ``profile PROG [--trace out.json] [--proposals N]`` — run the whole
  pipeline (parse → passes → flatten → codegen → tune → simulate) under
  the span tracer and print an aggregated summary; ``--trace`` writes a
  Chrome-trace JSON file for ``chrome://tracing`` / Perfetto (see
  ``docs/observability.md``).
* ``serve --socket PATH | --port N [--spool DIR] [--runners N]
  [--max-depth N]`` — run the tuning service daemon: accepts
  tune/compile/run jobs over a JSON-lines socket API with per-tenant
  fair-share scheduling, admission control and a content-addressed
  artifact store; SIGTERM drains in-flight jobs before exiting
  (``docs/service.md``).
* ``submit PROG [--kind tune|compile|run|online] [--tenant T] [--priority
  high|normal] [--stream | --wait S] ...`` — submit a job to a running
  daemon; ``--stream`` prints the job's progress events as JSON lines.
  ``--kind online`` runs the program with daemon-side online threshold
  dispatch: the tenant's shape-class table gains a class whenever a
  submission brings a new one, and persists in the spool, so a restarted
  daemon resumes warm.
* ``jobs`` / ``cancel JOB`` / ``fetch JOB [--output F]`` — list a
  daemon's jobs, cancel one, or fetch a finished job's artifact.
* ``health`` — query a running daemon's health document: queue wait
  EWMA, admission/shedding state, and the execution guard's circuit
  breakers and demotion/verification counters
  (``docs/guarded-execution.md``).

Settings come from :mod:`repro.config`: the ``REPRO_*`` environment
variables (README.md, "Configuration"), with a command's flags applied on
top for that command only.  ``show``, ``run``, ``simulate``, ``tune`` and
``profile`` accept ``--fusion ilp|off`` to select the fusion pass
(``docs/fusion.md``); a ``.tuning`` file records the fusion mode it was
tuned under and is rejected when replayed under a different one.

``show``, ``simulate``, ``tune`` and ``check`` also accept
``--trace out.json`` to capture a trace of that command.

``run``, ``simulate``, ``tune``, ``check`` and ``profile`` accept
``--faults PLAN`` (a fault-plan JSON file or inline JSON) to run under
seeded fault injection — see ``docs/robustness.md`` for the fault
model, sites and plan format.

Exit codes: 0 success, 1 check/run failure, 2 user error (unknown
program, malformed file, device mismatch, malformed ``REPRO_*``
variable, ...) reported as a single ``repro: error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import json as _json
import os
import sys
from dataclasses import replace

from repro import config

__all__ = ["main", "UserError"]


class UserError(Exception):
    """A problem with what the user asked for (bad program name, malformed
    file, mismatched device, ...).  :func:`main` reports these as a single
    line on stderr and exit code 2 — the same code argparse uses for bad
    flags — distinguishing them from check failures (1) and crashes."""


_DEVICES = None


def _devices():
    global _DEVICES
    if _DEVICES is None:
        from repro.gpu import K40, VEGA64

        _DEVICES = {"K40": K40, "Vega64": VEGA64, "VEGA64": VEGA64}
    return _DEVICES


def _resolve_program(name: str):
    from repro.bench.programs import MODULES, program_constructor

    for key in MODULES:
        if key.lower() == name.lower():
            return program_constructor(key)()
    if os.path.exists(name):
        from repro.parser import parse_program

        with open(name) as fh:
            return parse_program(fh.read())
    raise UserError(
        f"unknown program {name!r}: not a built-in benchmark "
        f"({', '.join(MODULES)}) and not a file"
    )


def _parse_kv(items: list[str] | None) -> dict[str, int]:
    out: dict[str, int] = {}
    for item in items or []:
        for part in item.split(","):
            if not part:
                continue
            k, _, v_ = part.partition("=")
            if not _:
                raise UserError(f"expected key=value, got {part!r}")
            try:
                out[k.strip()] = int(v_)
            except ValueError:
                raise UserError(
                    f"expected an integer value in {part!r}"
                ) from None
    return out


def _check_sizes(prog, sizes: dict[str, int], flag: str = "--size") -> None:
    """User-supplied size bindings must cover the program's size variables
    (extras are allowed: scalar parameters are bound the same way) and be
    non-negative."""
    missing = sorted(prog.size_vars() - sizes.keys())
    if missing:
        raise UserError(
            f"{prog.name} needs {flag} value(s) for "
            f"{', '.join(missing)} (got: {', '.join(sorted(sizes)) or 'none'})"
        )
    negative = [f"{k}={v_}" for k, v_ in sorted(sizes.items()) if v_ < 0]
    if negative:
        raise UserError(f"{flag} values must be non-negative: {', '.join(negative)}")


def _check_runnable(prog, sizes: dict[str, int]) -> None:
    """A run needs every array input non-empty (a zero loop bound is fine)."""
    empty = prog.empty_inputs(sizes)
    if empty:
        raise UserError(
            f"--size gives {prog.name} an input with a zero extent: "
            f"{'; '.join(empty)}"
        )


def _random_inputs(prog, sizes: dict[str, int], seed: int):
    import numpy as np

    from repro.ir.types import ArrayType

    rng = np.random.default_rng(seed)
    inputs = {}
    for name, t in prog.params:
        if isinstance(t, ArrayType):
            shape = tuple(d.eval(sizes) for d in t.shape)
            if t.elem.is_float:
                inputs[name] = rng.standard_normal(shape).astype(
                    np.float32 if t.elem.nbytes == 4 else np.float64
                )
            else:
                inputs[name] = rng.integers(0, 4, shape).astype(np.int64)
        else:
            inputs[name] = sizes.get(name, 1)
    return inputs


def cmd_list(_args) -> int:
    from repro.bench.datasets import TABLE1
    from repro.bench.programs import MODULES

    print("built-in benchmark programs:")
    for name in MODULES:
        datasets = TABLE1.get(name)
        if datasets:
            extra = "; ".join(f"{k}: {v_}" for k, v_ in datasets.items())
        elif name == "LocVolCalib":
            extra = "small / medium / large (paper §5.2)"
        else:
            extra = "Fig. 2 sweep (n, m)"
        print(f"  {name:15} {extra}")
    return 0


def cmd_show(args) -> int:
    from repro.compiler import compile_program
    from repro.flatten import branching_trees, render_tree

    prog = _resolve_program(args.program)
    cp = compile_program(prog, args.mode)
    print(
        f"-- {prog.name}: mode={args.mode}, fusion={cp.fusion}, "
        f"{len(cp.registry)} thresholds, {cp.code_size()} AST nodes"
    )
    print(cp.body)
    if args.tree:
        print("\nbranching tree:")
        print(render_tree(branching_trees(cp.body)) or "  (no guards)")
    return 0


def cmd_run(args) -> int:
    import numpy as np

    from repro.compiler import compile_program

    prog = _resolve_program(args.program)
    sizes = _parse_kv(args.size)
    _check_sizes(prog, sizes)
    _check_runnable(prog, sizes)
    cp = compile_program(prog, args.mode)
    inputs = _random_inputs(prog, sizes, args.seed)
    th = _parse_kv(args.threshold)
    tuner = None
    if args.online:
        if th:
            raise UserError("--online and --threshold are mutually exclusive")
        from repro.tuning.online import OnlineTuner

        device = _devices()[args.device]
        tuner = OnlineTuner(cp, device, table_path=args.online)
        if os.path.exists(args.online):
            tuner.load(args.online)
        outs = cp.run(inputs, online=tuner, sizes=sizes)
        d = tuner.last_decision
        print(
            f"online: shape={d.shape} "
            f"{'explore' if d.explored else 'exploit'} "
            f"thresholds={d.thresholds} "
            f"classes={len(tuner.classes())}"
        )
    else:
        outs = cp.run(inputs, thresholds=th or None, sizes=sizes)
    for i, out in enumerate(outs):
        if hasattr(out, "shape"):
            print(f"result[{i}]: shape={out.shape} dtype={out.dtype}")
            flat = np.asarray(out).ravel()
            print(f"  head: {flat[:8]}")
        else:
            print(f"result[{i}]: {out}")
    return 0


def cmd_simulate(args) -> int:
    from repro import faults
    from repro.compiler import compile_program

    prog = _resolve_program(args.program)
    sizes = _parse_kv(args.size)
    _check_sizes(prog, sizes)
    if args.exec:
        _check_runnable(prog, sizes)
    device = _devices()[args.device]
    cp = compile_program(prog, args.mode)
    th = _parse_kv(args.threshold)
    if args.tuning:
        from repro.tuning import load_thresholds

        th = dict(load_thresholds(args.tuning, cp, device=device.name), **th)
    # self-heal transient injected faults like the executors do (the tuner
    # has its own retry so it can account and quarantine; a bare simulate
    # has nothing above it to recover) — deterministic faults propagate
    rep = faults.retrying(
        "cli.simulate", lambda: cp.simulate(sizes, device, thresholds=th or None)
    )
    print(
        f"{prog.name} on {device.name}: {rep.time*1e3:.4f} ms "
        f"({rep.num_kernels} kernels, {rep.total_gbytes/1e6:.2f} MB global "
        f"traffic, peak local {rep.peak_local_mem} B)"
    )
    if args.exec:
        import time as _time

        inputs = _random_inputs(prog, sizes, 0)
        t0 = _time.perf_counter()
        cp.run(inputs, thresholds=th or None, engine=args.exec)
        wall = _time.perf_counter() - t0
        print(f"executed with engine={args.exec}: {wall*1e3:.2f} ms wall")
    if args.kernels:
        for k in rep.kernels:
            print(
                f"  {k.kind:8} lvl{k.level} threads={k.threads:<9} "
                f"G={k.group_size:<5} t={k.time*1e6:9.2f}us"
            )
    return 0


def cmd_tune(args) -> int:
    from repro.compiler import compile_program
    from repro.tuning import Autotuner, TooManySignatures, exhaustive_tune
    from repro.tuning import persist

    prog = _resolve_program(args.program)
    datasets = [_parse_kv([d]) for d in args.dataset]
    for ds in datasets:
        _check_sizes(prog, ds, flag="--dataset")
    if not datasets:
        if args.resume or args.output:
            try:
                from repro.bench.datasets import training_datasets

                datasets = training_datasets(prog.name)
            except ValueError:
                raise UserError(
                    "tune needs at least one --dataset n=...,m=..."
                ) from None
        else:
            raise UserError("tune needs at least one --dataset n=...,m=...")
    device = _devices()[args.device]
    cp = compile_program(prog, "incremental")
    if args.technique == "exhaustive":
        try:
            res = exhaustive_tune(cp, datasets, device)
        except TooManySignatures as exc:
            raise UserError(str(exc)) from None
        ckpt = None
    else:
        # crash-safe search: checkpoint beside the output file (atomic
        # temp-file+rename), delete it once the results are fully written
        ckpt = persist.checkpoint_path(args.output) if args.output else None
        if args.resume:
            if ckpt is None or not os.path.exists(ckpt):
                raise UserError(
                    f"--resume needs a checkpoint at "
                    f"{ckpt or '<--output>.ckpt.json'} (none found)"
                )
            doc = persist.load_checkpoint(
                ckpt, cp, device=device.name, datasets=datasets
            )
            tuner = Autotuner(cp, datasets, device, seed=doc["seed"])
            tuner.preload_measurements(doc["measurements"], doc["quarantined"])
            print(
                f"resuming from {ckpt}: {doc['proposals_done']} proposals "
                f"checkpointed, "
                f"{sum(len(m) for m in doc['measurements'])} measurements"
            )
        else:
            tuner = Autotuner(cp, datasets, device, seed=args.seed)
        res = tuner.tune(
            max_proposals=args.proposals,
            technique=args.technique,
            time_budget_s=args.time_budget,
            batch_size=args.batch_size,
            proposal_timeout_s=args.proposal_timeout,
            retries=args.retries,
            backoff_s=args.backoff,
            checkpoint_path=ckpt,
            checkpoint_every=args.checkpoint_every,
        )
    print(f"best thresholds: {res.best_thresholds}")
    print(
        f"cost {res.best_cost*1e3:.4f} ms over {len(datasets)} dataset(s); "
        f"{res.simulations} simulations, {res.cache_hits} cache hits "
        f"(dedup {res.dedup_ratio:.0%})"
    )
    if res.retries or res.quarantined:
        print(
            f"robustness: {res.retries} transient-fault retries, "
            f"{len(res.quarantined)} configuration(s) quarantined"
        )
        for cfg, reason in res.quarantined:
            print(f"  quarantined {cfg}: {reason}")
    if args.output:
        from repro.tuning import save_telemetry, save_thresholds, telemetry_path

        save_thresholds(
            args.output, cp, res.best_thresholds,
            device=device.name, datasets=datasets,
        )
        print(f"wrote {args.output}")
        tpath = telemetry_path(args.output)
        save_telemetry(tpath, res, cp, device=device.name)
        print(f"wrote {tpath}")
        if ckpt is not None and os.path.exists(ckpt):
            if res.deadline_hit:
                # the time budget — not the proposal budget — ended the
                # search: the checkpoint still holds measurements a later
                # --resume can extend, so deleting it here would destroy
                # real (on hardware: irreproducible) observations
                print(
                    f"time budget hit at {res.proposals} proposal(s): "
                    f"keeping {ckpt} (use --resume to continue)"
                )
            else:
                os.unlink(ckpt)
    return 0


def cmd_figures(args) -> int:
    from repro.bench import runner

    wanted = set(args.names or ["fig2", "fig7", "fig8", "ablation", "code"])
    if "fig2" in wanted:
        from repro.gpu import K40

        for k in (20, 25):
            print(f"\n== Figure 2 (k={k}, K40) ==")
            for r in runner.fig2_rows(K40, k_eval=k):
                print(
                    f"  e={r.e:<2} MF={r.moderate*1e3:10.4f} "
                    f"IF={r.incremental*1e3:10.4f} AIF={r.tuned*1e3:10.4f} "
                    f"vendor={r.vendor*1e3:10.4f}  (ms)"
                )
    if "fig7" in wanted:
        print("\n== Figure 7 (LocVolCalib) ==")
        for r in runner.fig7_rows():
            sp = r.speedups()
            print(
                f"  {r.device:7} {r.dataset:7} "
                + " ".join(f"{k_}={v_:5.2f}" for k_, v_ in sp.items())
            )
    if "fig8" in wanted:
        print("\n== Figure 8 (bulk) ==")
        for r in runner.fig8_rows():
            sp = r.speedups()
            ref = f"{sp['Reference']:6.2f}" if "Reference" in sp else "   n/a"
            print(
                f"  {r.device:7} {r.benchmark:14} {r.dataset} "
                f"IF={sp['IF']:8.2f} AIF={sp['AIF']:8.2f} ref={ref}"
            )
    if "ablation" in wanted:
        from repro.gpu import K40

        print("\n== Full-flattening ablation (K40) ==")
        for b, d, ratio in runner.fullflat_rows(K40):
            print(f"  {b:14} {d}: FF/IF = {ratio:6.2f}")
    if "code" in wanted:
        print("\n== Code expansion ==")
        for name, tr, sr, lr, nk in runner.code_expansion_rows():
            print(
                f"  {name:14} compile x{tr:5.2f}  AST x{sr:5.2f}  "
                f"genLOC x{lr:5.2f}  ({nk} kernels)"
            )
    return 0


def _default_datasets(name: str) -> list[dict[str, int]]:
    """Built-in training datasets for a benchmark (profile convenience)."""
    from repro.bench.datasets import training_datasets

    try:
        return training_datasets(name)
    except ValueError as exc:
        raise UserError(str(exc)) from None


def cmd_profile(args) -> int:
    """Trace the whole pipeline for one program and summarise it."""
    from repro import obs, perf
    from repro.codegen.opencl import generate_opencl
    from repro.compiler import compile_program
    from repro.tuning import Autotuner

    prog = _resolve_program(args.program)
    datasets = [_parse_kv([d]) for d in args.dataset] or _default_datasets(
        prog.name
    )
    for ds in datasets:
        _check_sizes(prog, ds, flag="--dataset")
    device = _devices()[args.device]

    cp = compile_program(prog, args.mode)
    code = generate_opencl(cp)
    tuner = Autotuner(cp, datasets, device, seed=args.seed)
    res = tuner.tune(max_proposals=args.proposals)
    rep = cp.simulate(datasets[0], device, thresholds=res.best_thresholds)

    print(
        f"{prog.name}: mode={args.mode}, fusion={cp.fusion}, "
        f"{len(cp.registry)} thresholds, "
        f"{cp.code_size()} AST nodes, {code.num_kernels} kernels, "
        f"{code.loc} generated LOC"
    )
    print(
        f"tune[{device.name}]: {res.proposals} proposals, "
        f"{res.simulations} simulations, {res.cache_hits} cache hits "
        f"(dedup {res.dedup_ratio:.0%}), best {res.best_cost*1e3:.4f} ms"
    )
    print(
        f"simulate[{device.name}] at best thresholds: {rep.time*1e3:.4f} ms "
        f"({rep.num_kernels} kernels)"
    )
    if args.exec:
        import time as _time

        inputs = _random_inputs(prog, datasets[0], args.seed)
        t0 = _time.perf_counter()
        cp.run(inputs, thresholds=res.best_thresholds, engine=args.exec)
        wall = _time.perf_counter() - t0
        print(f"execute[{args.exec}] on {datasets[0]}: {wall*1e3:.2f} ms wall")
    tracer = obs.current()
    if tracer is not None:
        tracer.metadata.update(
            program=prog.name, mode=args.mode, device=device.name
        )
        print()
        print(obs.render_summary(tracer))
    snap = perf.snapshot()
    fallback = {
        k[len("exec.fallback."):]: v
        for k, v in sorted(snap["counters"].items())
        if k.startswith("exec.fallback.")
    }
    if args.exec:
        print()
        print("scalar-fallback histogram (per construct):")
        if fallback:
            for construct, v in fallback.items():
                print(f"  {construct:32} {v:12.0f}")
        else:
            print("  (none — every construct ran vectorized)")
    interesting = {
        k: v for k, v in sorted(snap["counters"].items())
        if not k.endswith("_nodes")
    }
    print()
    print("perf counters:")
    for k, v in interesting.items():
        print(f"  {k:32} {v:12.0f}")
    return 0


def cmd_check(args) -> int:
    import json

    from repro.check import check_all, run_fuzz

    names = args.programs or None
    modes = tuple(args.mode) if args.mode else ("moderate", "incremental", "full")
    if args.exec == "all":
        engines = ("scalar", "vector", "codegen")
    elif args.exec == "both":
        engines = ("scalar", "vector")
    else:
        engines = (args.exec,)
    fusions = config.FUSIONS if args.fusions == "both" else (args.fusions,)
    # --fuzz alone fuzzes only; naming programs or --all checks them too
    fuzz_only = args.fuzz and not names and not args.all
    try:
        reports = [] if fuzz_only else check_all(
            names, modes=modes, seed=args.seed, max_paths=args.max_paths,
            engines=engines, fusions=fusions,
        )
    except KeyError as ex:
        raise UserError(ex.args[0]) from None
    ok = True
    for rep in reports:
        status = "ok" if rep.ok else "FAIL"
        print(f"  {rep.program:15} {rep.paths_checked:4} forced paths  {status}")
        if not rep.ok:
            ok = False
            for ds in rep.datasets:
                if ds.error:
                    print(f"    {ds.sizes}: {ds.error}")
                for mr in ds.modes:
                    leg = f"{mr.mode}/{mr.fusion}"
                    if mr.error:
                        print(f"    {leg} {ds.sizes}: {mr.error}")
                    for po in mr.failures:
                        print(f"    {leg} {ds.sizes}: path "
                              f"{po.thresholds}: {po.detail}")
    doc = {
        "kind": "check",
        "ok": ok,
        "programs": [rep.to_json() for rep in reports],
    }

    if args.fuzz:
        print(f"fuzzing {args.max_examples} generated programs "
              f"(seed {args.seed}, style {args.fuzz_style}) ...")
        frep = run_fuzz(args.max_examples, args.seed, modes=modes,
                        max_paths=args.max_paths, engines=engines,
                        fusions=fusions, style=args.fuzz_style,
                        corpus_dir=args.corpus_out)
        doc["fuzz"] = frep.to_json()
        if frep.ok:
            print(f"  fuzz: {frep.examples} examples, no counterexample")
        else:
            ok = False
            doc["ok"] = False
            for f in frep.failures:
                print(f"  fuzz FAIL (example {f.index}): {f.error}")
                print(f"    shrunk recipe: {json.dumps(f.shrunk)}")

    if args.chaos:
        from repro.check.chaos import chaos_tune_check

        try:
            chaos_reports = chaos_tune_check(
                args.programs or None, seed=args.seed
            )
        except KeyError as ex:
            raise UserError(ex.args[0]) from None
        except Exception as ex:
            # a crash in the harness itself is NOT a differential
            # divergence: report it as a usage/infrastructure error
            # (exit 2, "repro: error:") so CI can tell the two apart
            raise UserError(
                f"chaos harness error: {type(ex).__name__}: {ex}"
            ) from None
        doc["chaos"] = [r.to_json() for r in chaos_reports]
        for crep in chaos_reports:
            status = "ok" if crep.ok else "FAIL"
            legs = " ".join(
                f"{leg.name}={'ok' if leg.ok else 'FAIL'}"
                for leg in crep.legs
            )
            print(f"  chaos {crep.program:15} seed {crep.seed}: "
                  f"{legs}  {status}")
            if not crep.ok:
                ok = False
                doc["ok"] = False
                for leg in crep.legs:
                    if not leg.ok and leg.detail:
                        print(f"    {leg.name}: {leg.detail}")

    if args.report:
        from repro.ioutil import atomic_write_json

        atomic_write_json(args.report, doc, indent=2)
        print(f"wrote {args.report}")
    print("check:", "ok" if ok else "FAILED")
    return 0 if ok else 1


# -- tuning service (docs/service.md) ------------------------------------------


def _service_client(args):
    from repro.service import ServiceClient

    if args.socket is None and args.port is None:
        raise UserError("need --socket PATH or --port N to reach the daemon")
    return ServiceClient(socket_path=args.socket, host=args.host,
                         port=args.port)


def cmd_serve(args) -> int:
    import signal

    from repro.service import ServiceDaemon

    if args.socket is None and args.port is None:
        raise UserError("serve needs --socket PATH and/or --port N")

    def log(msg: str) -> None:
        print(f"[serve] {msg}", flush=True)

    daemon = ServiceDaemon(
        args.spool,
        socket_path=args.socket,
        port=args.port,
        host=args.host,
        runners=args.runners,
        max_depth=args.max_depth,
        retry_after_s=args.retry_after,
        store_dir=args.store,
        store_max=args.store_max,
        shed_watermark_s=args.shed_watermark,
        log=log,
    )
    daemon.start()
    # clean shutdown on SIGTERM/SIGINT: stop admitting, drain in-flight
    # jobs, then exit 0 — a kill -9 instead leaves the spool behind and
    # the next start resumes interrupted jobs from their checkpoints
    signal.signal(signal.SIGTERM, lambda *_: daemon.request_shutdown())
    signal.signal(signal.SIGINT, lambda *_: daemon.request_shutdown())
    return daemon.serve_until_shutdown()


def _submit_spec(args) -> dict:
    """The job-spec document for ``repro submit``'s flags."""
    job: dict = {"kind": args.kind, "mode": args.mode}
    if os.path.exists(args.program):
        with open(args.program) as fh:
            job["source"] = fh.read()
    else:
        job["program"] = args.program
    if args.kind == "tune":
        datasets = [_parse_kv([d]) for d in args.dataset]
        if not datasets:
            try:
                from repro.bench.datasets import training_datasets

                datasets = [dict(d) for d in training_datasets(args.program)]
            except ValueError:
                raise UserError(
                    "submit needs at least one --dataset n=...,m=..."
                ) from None
        job.update(
            datasets=datasets, device=args.device, technique=args.technique,
            proposals=args.proposals, seed=args.seed,
            batch_size=args.batch_size,
        )
    elif args.kind == "run":
        job.update(
            sizes=_parse_kv(args.size), seed=args.seed, engine=args.job_engine,
            thresholds=_parse_kv(args.threshold),
        )
    elif args.kind == "online":
        if args.threshold:
            raise UserError(
                "--kind online chooses thresholds itself; drop --threshold"
            )
        job.update(
            sizes=_parse_kv(args.size), seed=args.seed, engine=args.job_engine,
            device=args.device,
        )
    return job


def cmd_submit(args) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    job = _submit_spec(args)
    try:
        if args.stream:
            # every line is one JSON document: the admission reply, then
            # the job's event stream through its terminal event
            final = None
            for doc in client.submit_stream(job, tenant=args.tenant,
                                            priority=args.priority):
                print(_json.dumps(doc, sort_keys=True), flush=True)
                if doc.get("event") in ("done", "failed", "canceled"):
                    final = doc["event"]
            return 0 if final == "done" else 1
        reply = client.submit(job, tenant=args.tenant, priority=args.priority)
        job_id = reply["job"]
        if args.wait is not None:
            res = client.result(job_id, wait=args.wait)
            state = res.get("state")
            print(f"job {job_id} {state}"
                  + (" (cached)" if res.get("cached") else ""))
            return 0 if state == "done" else 1
        print(f"job {job_id} queued (depth {reply.get('depth')})")
        return 0
    except ServiceError as exc:
        if exc.code in (429, 503):
            why = "rejected" if exc.code == 429 else "shed (overloaded)"
            print(f"repro: submit {why}: {exc} "
                  f"(retry after {exc.retry_after_s:g}s)", file=sys.stderr)
            return 1
        raise UserError(str(exc)) from None


def cmd_jobs(args) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        ping = client.ping()
        jobs = client.jobs()
    except ServiceError as exc:
        raise UserError(str(exc)) from None
    if args.json:
        print(_json.dumps({"ping": ping, "jobs": jobs}, indent=2,
                          sort_keys=True))
        return 0
    queue = ping.get("queue", {})
    print(f"queue depth {queue.get('depth', 0)}; "
          f"served per tenant: {queue.get('served') or '{}'}")
    for s in jobs:
        flags = " cached" if s.get("cached") else ""
        err = f"  ({s['error']})" if s.get("error") else ""
        print(f"  {s['id']:>4} {s['tenant']:>10} {s['priority']:>6} "
              f"{s['kind']:>7} {s['program']:<14} {s['state']}{flags}{err}")
    return 0


def cmd_health(args) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        doc = client.health()
    except ServiceError as exc:
        raise UserError(str(exc)) from None
    if args.json:
        print(_json.dumps(doc, indent=2, sort_keys=True))
        return 0
    queue = doc.get("queue", {})
    adm = doc.get("admission", {})
    print(f"queue: depth {queue.get('depth', 0)} "
          f"wait_ewma {queue.get('wait_ewma_s', 0.0):.3f}s")
    print(f"admission: max_depth {adm.get('max_depth')} "
          f"watermark {adm.get('watermark_s')}s "
          f"shedding {'YES' if adm.get('shedding') else 'no'}")
    g = doc.get("guard", {})
    print(f"guard: active {'yes' if g.get('active') else 'no'} "
          f"verify_rate {g.get('verify_rate', 0.0):g} "
          f"demotions {g.get('demotions', 0)}")
    breakers = g.get("breakers", [])
    if breakers:
        print("breakers:")
        for b in breakers:
            print(f"  {b['key'][:16]:>16} {b['tier']:>8} {b['state']:>9} "
                  f"fails={b['fails']} trips={b['trips']} "
                  f"probes={b['probes']}")
    else:
        print("breakers: none tripped")
    counters = doc.get("counters", {})
    for name in sorted(counters):
        print(f"  {name} = {counters[name]}")
    return 0


def cmd_cancel(args) -> int:
    from repro.service import ServiceError

    try:
        reply = _service_client(args).cancel(args.job)
    except ServiceError as exc:
        raise UserError(str(exc)) from None
    if reply.get("cancel_requested"):
        print(f"job {args.job}: cancellation requested "
              f"(interrupts at the next batch)")
    else:
        print(f"job {args.job}: {reply.get('state')}")
    return 0


def cmd_fetch(args) -> int:
    from repro.service import ServiceError

    try:
        res = _service_client(args).result(args.job, wait=args.wait)
    except ServiceError as exc:
        raise UserError(str(exc)) from None
    if res.get("state") != "done":
        raise UserError(
            f"job {args.job} is {res.get('state')}"
            + (f": {res['error']}" if res.get("error") else "")
        )
    artifact = res.get("artifact")
    if artifact is None:
        raise UserError(f"job {args.job} has no artifact "
                        f"(store evicted or corrupted?)")
    if args.output:
        from repro.ioutil import atomic_write_json

        atomic_write_json(args.output, artifact, indent=2, sort_keys=True)
        print(f"wrote {args.output}")
    else:
        print(_json.dumps(artifact, indent=2, sort_keys=True))
    return 0


BATCH_SIZE_HELP = ("proposals drawn per search round before any is fed back "
                   "(a search parameter: results depend on it)")


def _rate(text: str) -> float:
    p = float(text)  # argparse reports a ValueError as an invalid value
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a fraction in [0, 1], got {text!r}")
    return p


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="Incremental flattening for nested data parallelism "
        "(PPoPP 2019 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list built-in benchmark programs")

    def fusion_flag(sp_):
        sp_.add_argument("--fusion", default=None, choices=config.FUSIONS,
                         help="fusion pass: ILP-based global fusion or none "
                         "(default: REPRO_FUSION or ilp)")

    sp = sub.add_parser("show", help="compile and print target code")
    sp.add_argument("program")
    sp.add_argument("--mode", default="incremental",
                    choices=("moderate", "incremental", "full"))
    fusion_flag(sp)
    sp.add_argument("--tree", action="store_true", help="print branching tree")
    sp.add_argument("--trace", help="write a Chrome-trace JSON file")

    rp = sub.add_parser("run", help="run on random inputs (interpreter)")
    rp.add_argument("program")
    rp.add_argument("--mode", default="incremental",
                    choices=("moderate", "incremental", "full"))
    fusion_flag(rp)
    rp.add_argument("--size", action="append", help="size binding n=4")
    rp.add_argument("--threshold", action="append", help="threshold t0=128")
    rp.add_argument("--seed", type=int, default=0)
    rp.add_argument("--online", metavar="TABLE",
                    help="choose thresholds with the online tuner, "
                    "persisting its shape-class table to this file "
                    "(docs/online-tuning.md)")
    rp.add_argument("--device", default="K40", choices=("K40", "Vega64"),
                    help="device model an online class tune simulates")
    rp.add_argument("--exec", dest="engine", default=None, choices=config.ENGINES,
                    help="executor (default: REPRO_EXEC or scalar)")
    rp.add_argument("--verify-rate", type=_rate, default=None, metavar="P",
                    help="spot-verify this fraction of guarded kernel "
                    "launches against the vector oracle "
                    "(docs/guarded-execution.md)")
    rp.add_argument("--faults", metavar="PLAN",
                    help="inject faults from a plan (JSON file or inline)")

    mp = sub.add_parser("simulate", help="estimate run time on a device model")
    mp.add_argument("program")
    mp.add_argument("--mode", default="incremental",
                    choices=("moderate", "incremental", "full"))
    fusion_flag(mp)
    mp.add_argument("--size", action="append", help="size binding n=4096")
    mp.add_argument("--threshold", action="append")
    mp.add_argument("--device", default="K40", choices=("K40", "Vega64"))
    mp.add_argument("--kernels", action="store_true", help="per-kernel stats")
    mp.add_argument("--tuning", help="read thresholds from a .tuning file")
    mp.add_argument("--exec", default=None, choices=config.ENGINES,
                    help="also execute with this engine and report wall time")
    mp.add_argument("--faults", metavar="PLAN",
                    help="inject faults from a plan (JSON file or inline)")
    mp.add_argument("--trace", help="write a Chrome-trace JSON file")

    tp = sub.add_parser("tune", help="autotune thresholds")
    tp.add_argument("program")
    fusion_flag(tp)
    tp.add_argument("--dataset", action="append", default=[],
                    help="one dataset: n=4096,m=32 (repeatable; with "
                    "--output/--resume defaults to the benchmark's "
                    "built-in training datasets)")
    tp.add_argument("--device", default="K40", choices=("K40", "Vega64"))
    tp.add_argument("--technique", default="bandit",
                    choices=("bandit", "random", "hillclimb", "exhaustive"))
    tp.add_argument("--proposals", type=int, default=300)
    tp.add_argument("--seed", type=int, default=0)
    tp.add_argument("--batch-size", type=int, default=1,
                    help=BATCH_SIZE_HELP)
    tp.add_argument("--time-budget", type=float, default=None, metavar="S",
                    help="wall-clock budget for the search (seconds)")
    tp.add_argument("--proposal-timeout", type=float, default=None,
                    metavar="S", help="watchdog deadline per proposal "
                    "(a timeout counts as a transient fault)")
    tp.add_argument("--retries", type=int, default=None,
                    help="transient-fault retries per proposal "
                    "(default: the fault plan's policy, or 8)")
    tp.add_argument("--backoff", type=float, default=None, metavar="S",
                    help="base retry backoff in seconds (doubles per attempt)")
    tp.add_argument("--checkpoint-every", type=int, default=10, metavar="N",
                    help="checkpoint the search every N proposals "
                    "(needs --output; see docs/robustness.md)")
    tp.add_argument("--resume", action="store_true",
                    help="resume from <--output>.ckpt.json, replaying the "
                    "checkpointed run to a bit-identical result")
    tp.add_argument("--faults", metavar="PLAN",
                    help="inject faults from a plan (JSON file or inline)")
    tp.add_argument("--output", help="write a .tuning JSON file "
                    "(+ a .telemetry.json convergence file)")
    tp.add_argument("--trace", help="write a Chrome-trace JSON file")

    fp = sub.add_parser("figures", help="regenerate the paper's tables")
    fp.add_argument("names", nargs="*",
                    help="subset of: fig2 fig7 fig8 ablation code")

    cp = sub.add_parser("check", help="differential correctness harness")
    cp.add_argument("programs", nargs="*",
                    help="benchmarks to check (default: all, or none "
                    "with --fuzz)")
    cp.add_argument("--all", action="store_true",
                    help="check all built-in benchmarks (the default "
                    "without --fuzz; with --fuzz, check them before "
                    "fuzzing)")
    cp.add_argument("--fuzz", action="store_true",
                    help="fuzz with generated programs, after checking "
                    "the benchmarks named or --all")
    cp.add_argument("--max-examples", type=int, default=200,
                    help="number of generated programs for --fuzz")
    cp.add_argument("--max-paths", type=int, default=4096,
                    help="cap on forced paths per (program, mode, dataset)")
    cp.add_argument("--mode", action="append",
                    choices=("moderate", "incremental", "full"),
                    help="restrict to a flattening mode (repeatable)")
    cp.add_argument("--seed", type=int, default=0)
    cp.add_argument("--exec", default="all",
                    choices=("scalar", "vector", "codegen", "both", "all"),
                    help="executor(s) for forced paths: one engine, 'both' "
                    "(scalar+vector) or 'all' (default: all three)")
    cp.add_argument("--fusion", dest="fusions", default="both",
                    choices=(*config.FUSIONS, "both"),
                    help="fusion mode(s) for forced paths: one mode or "
                    "'both' (ilp+off, the default); every leg must be "
                    "bit-identical to the source interpreter")
    cp.add_argument("--fuzz-style", default="default",
                    choices=("default", "fusion"),
                    help="recipe grammar weighting for --fuzz ('fusion' "
                    "biases toward fusable producer/consumer chains)")
    cp.add_argument("--corpus-out", default=None, metavar="DIR",
                    help="write shrunk fuzz counterexamples to DIR "
                    "(tests/corpus/ format)")
    cp.add_argument("--chaos", action="store_true",
                    help="also run the chaos differential: tuning and "
                    "forced paths under injected faults must produce "
                    "bit-identical results (docs/robustness.md)")
    cp.add_argument("--faults", metavar="PLAN",
                    help="inject faults from a plan (JSON file or inline)")
    cp.add_argument("--report", help="write a JSON report to this file")
    cp.add_argument("--trace", help="write a Chrome-trace JSON file")

    pp = sub.add_parser(
        "profile", help="trace the whole pipeline and summarise spans"
    )
    pp.add_argument("program")
    pp.add_argument("--mode", default="incremental",
                    choices=("moderate", "incremental", "full"))
    fusion_flag(pp)
    pp.add_argument("--dataset", action="append", default=[],
                    help="one dataset: n=4096,m=32 (repeatable; "
                    "defaults to the benchmark's built-in datasets)")
    pp.add_argument("--device", default="K40", choices=("K40", "Vega64"))
    pp.add_argument("--proposals", type=int, default=48,
                    help="tuner proposals for the traced tuning run")
    pp.add_argument("--seed", type=int, default=0)
    pp.add_argument("--exec", default=None, choices=config.ENGINES,
                    help="also execute the program with this engine under "
                    "the tracer (adds exec.* spans and counters)")
    pp.add_argument("--faults", metavar="PLAN",
                    help="inject faults from a plan (JSON file or inline)")
    pp.add_argument("--trace", help="write a Chrome-trace JSON file")

    def conn(sp_):
        sp_.add_argument("--socket", metavar="PATH",
                         help="daemon unix socket path")
        sp_.add_argument("--port", type=int, metavar="N",
                         help="daemon TCP port")
        sp_.add_argument("--host", default="127.0.0.1",
                         help="daemon TCP host (default 127.0.0.1)")

    sv = sub.add_parser("serve", help="run the tuning service daemon")
    conn(sv)
    sv.add_argument("--spool", default="repro-spool", metavar="DIR",
                    help="durable state: job records, checkpoints, artifact "
                    "store (default: ./repro-spool)")
    sv.add_argument("--runners", type=int, default=2,
                    help="concurrent job runner threads (default 2)")
    sv.add_argument("--max-depth", type=int, default=64, metavar="N",
                    help="queue depth bound for admission control")
    sv.add_argument("--retry-after", type=float, default=1.0, metavar="S",
                    help="retry-after hint on 429 rejections (seconds)")
    sv.add_argument("--store", metavar="DIR",
                    help="artifact store directory (default: <spool>/store)")
    sv.add_argument("--store-max", type=int, default=None, metavar="N",
                    help="artifact store LRU bound (default 256)")
    sv.add_argument("--shed-watermark", type=float, default=5.0, metavar="S",
                    help="shed normal-priority jobs while queue wait EWMA "
                    "is over S seconds (0 disables; default 5)")
    sv.add_argument("--verify-rate", type=_rate, default=None, metavar="P",
                    help="spot-verify this fraction of guarded kernel "
                    "launches against the vector oracle")
    sv.add_argument("--faults", metavar="PLAN",
                    help="inject faults from a plan (JSON file or inline)")
    sv.add_argument("--trace", help="write a Chrome-trace JSON file")

    sb = sub.add_parser("submit", help="submit a job to a running daemon")
    conn(sb)
    sb.add_argument("program", help="built-in benchmark name or source file")
    sb.add_argument("--kind", default="tune",
                    choices=("tune", "compile", "run", "online"))
    sb.add_argument("--mode", default="incremental",
                    choices=("moderate", "incremental", "full"))
    sb.add_argument("--tenant", default="default")
    sb.add_argument("--priority", default="normal",
                    choices=("high", "normal"))
    sb.add_argument("--dataset", action="append", default=[],
                    help="tune: one dataset n=4096,m=32 (repeatable; "
                    "defaults to the benchmark's training datasets)")
    sb.add_argument("--device", default="K40", choices=("K40", "Vega64"))
    sb.add_argument("--technique", default="bandit",
                    choices=("bandit", "random", "hillclimb"))
    sb.add_argument("--proposals", type=int, default=300)
    sb.add_argument("--seed", type=int, default=0)
    sb.add_argument("--batch-size", type=int, default=1,
                    help="tune: " + BATCH_SIZE_HELP)
    sb.add_argument("--size", action="append",
                    help="run: size binding n=4 (repeatable)")
    sb.add_argument("--threshold", action="append",
                    help="run: threshold t0=128 (repeatable)")
    sb.add_argument("--engine", dest="job_engine", default="scalar",
                    choices=config.ENGINES, help="run: executor engine")
    sb.add_argument("--stream", action="store_true",
                    help="stream the job's progress events as JSON lines")
    sb.add_argument("--wait", type=float, default=None, metavar="S",
                    help="block up to S seconds for the job to finish")

    jp = sub.add_parser("jobs", help="list a running daemon's jobs")
    conn(jp)
    jp.add_argument("--json", action="store_true", help="raw JSON output")

    hp = sub.add_parser(
        "health", help="query a running daemon's health and guard state"
    )
    conn(hp)
    hp.add_argument("--json", action="store_true", help="raw JSON output")

    xp = sub.add_parser("cancel", help="cancel a submitted job")
    conn(xp)
    xp.add_argument("job", help="job id (from submit)")

    gp = sub.add_parser("fetch", help="fetch a finished job's artifact")
    conn(gp)
    gp.add_argument("job", help="job id (from submit)")
    gp.add_argument("--wait", type=float, default=60.0, metavar="S",
                    help="block up to S seconds for the job to finish")
    gp.add_argument("--output", help="write the artifact JSON to this file")
    return p


#: flags whose argparse destination is the config field they set
CONFIG_FLAGS = ("fusion", "engine", "verify_rate")


def _run_command(args) -> int:
    from repro import faults

    handler = {
        "list": cmd_list,
        "show": cmd_show,
        "run": cmd_run,
        "simulate": cmd_simulate,
        "tune": cmd_tune,
        "figures": cmd_figures,
        "check": cmd_check,
        "profile": cmd_profile,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "health": cmd_health,
        "cancel": cmd_cancel,
        "fetch": cmd_fetch,
    }[args.command]
    # the command's flags apply on top of the process config for this
    # command only; repro check validates after every pass.  The previous
    # config and fault injector are restored afterwards, so in-process
    # callers (tests) do not leak either between invocations
    flags = {name: getattr(args, name) for name in CONFIG_FLAGS
             if getattr(args, name, None) is not None}
    if args.command == "check":
        flags["validate"] = True
    saved = faults.current()
    try:
        plan_src = getattr(args, "faults", None)
        if plan_src:
            try:
                faults.activate(faults.load_plan(plan_src))
            except faults.FaultPlanError as exc:
                raise UserError(str(exc)) from None

        with config.use(replace(config.current(), **flags)):
            trace_path = getattr(args, "trace", None)
            if trace_path or args.command == "profile":
                from repro import obs

                with obs.tracing(process_name=f"repro {args.command}") as tracer:
                    code = handler(args)
                if trace_path:
                    obs.write_chrome_trace(tracer, trace_path)
                    print(f"wrote {trace_path}")
                return code
            return handler(args)
    finally:
        if saved is not None:
            faults.activate(saved.plan)
        else:
            faults.deactivate()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except (UserError, config.ConfigError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        from repro.tuning.persist import TuningFileError

        # malformed/mismatched user-supplied files are user errors too
        if isinstance(exc, TuningFileError):
            print(f"repro: error: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
