"""One workload sample: a fresh process that calls ``thermion.cli.main`` once.

Usage: python3 perfbench/sample.py RESULT_JSON TRACE_JSON|- CLI_ARG...

The parent passes its ``time.monotonic()`` reading from just before the
spawn in ``PERFBENCH_SPAWNED``; CLOCK_MONOTONIC is shared by all processes,
so ``setup_s`` runs from process creation (interpreter start, imports of
numpy, scipy and thermion, tracer installation) to the entry of ``main``.
With a TRACE_JSON path the layer modules are traced and the span summary
is written there.  The result JSON always gets written unless this harness
itself breaks; what the pipeline does (exit code, exception) goes into it.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    result_path, trace_path, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    spawned = float(os.environ["PERFBENCH_SPAWNED"])

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import thermion.cli

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(thermion.cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"thermion imported from {thermion.cli.__file__}, "
                           f"not from {src}")

    tracer = None
    if trace_path != "-":
        from layer_trace import Tracer
        tracer = Tracer()
        tracer.install()

    entered = time.monotonic()
    error = None
    try:
        code = thermion.cli.main(cli_args)
    except Exception:
        code = None
        error = traceback.format_exc()
    returned = time.monotonic()

    result = {"code": code, "error": error,
              "setup_s": entered - spawned,
              "wall_s": returned - entered,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(trace_path)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
