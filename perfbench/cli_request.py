"""One ``cli-cold`` request: a fresh interpreter doing what ``repro run``
or ``repro tune --output`` does, then printing one JSON line.

Usage: ``python3 perfbench/cli_request.py '<request json>'`` with
``src`` and the repository root on ``PYTHONPATH``.  The request names
the program, ``kind`` (``run`` or ``tune``), ``sizes``, ``seed``, the
tuning ``output`` path and ``trace``.  A traced request wraps the layer
entry points (``perfbench.spans``) and runs a ``run`` request's program
a second time, so first-run cost can be separated from warm cost.
"""

import time

T_START = time.perf_counter()  # before any import the request pays for

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    req = json.loads(argv[1])
    t0 = time.perf_counter()
    import repro.cli as cli
    import repro.compiler as compiler
    from repro import perf

    out: dict = {"t_start": T_START, "import_s": time.perf_counter() - t0}
    tracer = None
    if req.get("trace"):
        from perfbench.spans import Tracer, install_program_layers

        tracer = Tracer()
        install_program_layers(tracer)
    before = perf.counters()
    prog = cli._resolve_program(req["program"])
    cp = compiler.compile_program(prog, "incremental")
    out["code_nodes"] = cp.code_size()
    if req["kind"] == "run":
        sizes = req["sizes"]
        inputs = cli._random_inputs(prog, sizes, req["seed"])
        t1 = time.perf_counter()
        outs = cp.run(inputs, engine="codegen", sizes=sizes)
        out["first_run_s"] = time.perf_counter() - t1
        from perfbench.gate import digest

        out["outputs"] = digest(outs)
        if tracer is not None:
            t1 = time.perf_counter()
            cp.run(inputs, engine="codegen", sizes=sizes)
            out["second_run_s"] = time.perf_counter() - t1
    else:
        import repro.tuning.persist as persist
        from repro.bench.datasets import training_datasets
        from repro.gpu import K40
        from repro.tuning import Autotuner

        datasets = training_datasets(req["program"])
        res = Autotuner(cp, datasets, K40, seed=req["seed"]).tune(max_proposals=300)
        persist.save_thresholds(req["output"], cp, res.best_thresholds,
                                device=K40.name, datasets=datasets)
        out["thresholds"] = res.best_thresholds
        out["best_cost"] = res.best_cost
        out["datasets"] = datasets
    after = perf.counters()
    out["counters"] = {k: v - before.get(k, 0) for k, v in after.items()
                       if v != before.get(k, 0)}
    if tracer is not None:
        tracer.unwrap()
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
