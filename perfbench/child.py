"""One benchmark job in a fresh interpreter.

Usage: python3 perfbench/child.py '<job spec as JSON>'

The spec holds `calls` (lists of CLI arguments), `trace` (0 or 1) and
`probe` (import only).  The job imports `fsocdma.cli`, stamps the
system-wide monotonic clock so the parent can compute set-up time from
the moment it spawned this process, runs the calls through
`fsocdma.cli.main` and prints one JSON line with the timings, the exit
codes, the peak resident memory and, when traced, the per-layer values.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import fsocdma.cli  # noqa: E402  (the import is part of the measured set-up)

ready = time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"ready": ready}
    if spec.get("probe"):
        import numpy
        import scipy

        result["versions"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "fsocdma": fsocdma.__version__,
        }
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    codes = []
    sink = io.StringIO()
    start = time.perf_counter()
    for argv in spec["calls"]:
        try:
            with contextlib.redirect_stdout(sink):
                code = fsocdma.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
            traceback.print_exc()
            code = -1
        codes.append(code)
    result["wall_s"] = time.perf_counter() - start
    result["codes"] = codes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
