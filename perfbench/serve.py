"""A traced ``repro serve``: wraps the daemon's per-job compile, artifact
store and spool calls, runs the daemon, and writes the spans at exit.

Usage: ``python3 perfbench/serve.py SPANS.json serve --socket ...`` with
``src`` and the repository root on ``PYTHONPATH``; every argument after
the spans path goes to ``repro`` unchanged.
"""

import sys


def main(argv: list[str]) -> int:
    from perfbench.spans import Tracer, install_daemon_layers
    from repro.cli import main as repro_main

    tracer = Tracer()
    install_daemon_layers(tracer)
    try:
        return repro_main(argv[2:])
    finally:
        tracer.unwrap()
        tracer.dump(argv[1], {"process": "daemon"})


if __name__ == "__main__":
    sys.exit(main(sys.argv))
