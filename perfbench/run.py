"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exec-warm --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including
the tracing overhead.  Every line but the last is for people; the last
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

The run is hermetic: inherited ``REPRO_*`` variables are dropped, and
the compile cache, breaker file, fuzz corpus, daemon spool and tuning
outputs live in a fresh directory under ``.perfbench/`` that is removed
at exit.  Only the span file of a traced run stays there.  Without the
program's sources next to this directory the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: end-to-end metrics: name -> unit (BENCHMARK.json holds their bounds)
E2E_UNITS = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_rps": "1/s",
    "served_frac": "ratio",
    "peak_rss_mb": "MB",
    "sim_cost_ms": "sim_ms",
    "code_nodes": "nodes",
}


def hermetic_env(workdir: str) -> dict[str, str]:
    """The environment for this process and its children: no inherited
    ``REPRO_*`` setting, every writable location inside ``workdir``."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    settings = {
        "REPRO_CODEGEN_CACHE": os.path.join(workdir, "cache"),
        "REPRO_CORPUS_DIR": os.path.join(workdir, "corpus"),
        "TMPDIR": os.path.join(workdir, "tmp"),
    }
    for path in settings.values():
        os.makedirs(path, exist_ok=True)
    os.environ.update(settings)
    tempfile.tempdir = settings["TMPDIR"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    return env


def end_to_end(run) -> dict[str, float]:
    """The end-to-end metrics; every time is at the reference host speed."""
    from perfbench.stats import hd_quantile

    lat = run.reference_latencies()
    if len(lat) < 2:
        raise RuntimeError(f"only {len(lat)} request(s) completed")
    return {
        "setup_s": run.setup_s,
        "latency_ms_p50": hd_quantile(lat, 0.5) * 1e3,
        "latency_ms_p90": hd_quantile(lat, 0.9) * 1e3,
        "throughput_rps": len(run.latencies) / run.elapsed_ref,
        "served_frac": (run.attempted - len(run.failures)) / run.attempted,
        **run.e2e,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    # a terminated run still stops its children and removes its directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import repro

    if os.path.dirname(os.path.abspath(repro.__file__)) != os.path.join(SRC, "repro"):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench.spans import LAYER_UNITS
    from perfbench.workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})")
    outdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=outdir)
    try:
        env = hermetic_env(workdir)
        run = Run(ROOT, workdir, args.seed, args.seconds, bool(args.trace), env)
        WORKLOADS[args.workload](run)
        if args.trace:
            metrics, units = run.layer, LAYER_UNITS
            run.tracer.dump(
                os.path.join(outdir, f"{args.workload}-seed{args.seed}.spans.json"),
                {"workload": args.workload, "seed": args.seed})
        else:
            metrics, units = end_to_end(run), E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: {run.attempted} requests, "
          f"{len(run.failures)} failed, {run.elapsed:.2f} s measured")
    print("settings: " + json.dumps({k: v for k, v in sorted(env.items())
                                     if k.startswith("REPRO_")}))
    for msg in run.failures[:10] + run.errors[:20] + run.notes:
        print(f"  {msg}")
    for name, unit in units.items():
        print(f"  {name:36s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
