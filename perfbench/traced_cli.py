"""Run the blochvec command line with spans around its public functions.

    python perfbench/traced_cli.py SPANS_OUT ARG...

behaves like ``python -m blochvec ARG...`` (same output, same exit code,
same uncaught exceptions) and writes the spans it recorded, plus the time
``import blochvec.cli`` took, to SPANS_OUT as JSON.
"""

import os
import sys
from time import perf_counter

t0 = perf_counter()
import blochvec.cli  # noqa: E402  (timed: the import is what cli.import_ms reports)

import_ms = (perf_counter() - t0) * 1e3

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench import tracing  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.notes.append(("cli.import", -1, "ms", import_ms))
    tracing.instrument(tracer)
    try:
        return blochvec.cli.main(argv)
    finally:
        tracing.dump(out_path, tracer.to_json())


if __name__ == "__main__":
    sys.exit(main())
