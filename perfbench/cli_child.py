"""Run the causalqca CLI in a child process with the benchmark's tracer installed.

Usage (the benchmark starts it with ``-X importtime`` and ``PYTHONPATH=src``)::

    python -X importtime perfbench/cli_child.py SPANS_JSON -- run --recipe NAME ...

Exit code and output files are those of ``python -m causalqca.cli``.  When
the CLI returns or raises, the spans and counters are written to SPANS_JSON
together with the child's own start and finish times on the monotonic clock,
from which the parent derives interpreter start-up and shut-down time.
"""

import time

STARTED = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import tracer as bench_tracer  # noqa: E402


def main() -> int:
    spans_path = sys.argv[1]
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py SPANS_JSON -- ARGS...")
    import causalqca.cli

    tracer = bench_tracer.Tracer()
    tracer.install()
    try:
        return causalqca.cli.main(sys.argv[3:])
    finally:
        tracer.uninstall()
        finished = time.monotonic()
        with open(spans_path, "w") as fh:
            json.dump({"started": STARTED, "finished": finished, "tracer": tracer.dump()}, fh)


if __name__ == "__main__":
    sys.exit(main())
