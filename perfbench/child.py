"""One fresh benchmark process: build a workload's inputs, run it once, report.

    python3 child.py <workload> <seed> <size> <mode>

`mode` is `setup` (build the inputs and stop), `time` (run the workload
once, untraced) or `trace` (run it once with spans at the layer boundaries,
then probe the enumeration).  The package must be importable
(`PYTHONPATH=src`).  Prints one JSON line: `ready` is the `perf_counter`
reading when the inputs were built, which the parent compares with its own
reading at spawn time (both read the system-wide monotonic clock).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import workloads


def main(argv: list[str]) -> int:
    name, seed, size, mode = argv
    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(int(seed), size)
    out: dict = {"ready": time.perf_counter()}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    tracer = restore = None
    run = wl.run
    if mode == "trace":
        import spans  # untraced children never load the tracer
        tracer = spans.Tracer(f"{name}/{seed}/{size}/{os.getpid()}")
        restore = tracer.install()
        run = tracer.span("workload", run)
    start = time.perf_counter()
    result = run(inp)
    out["wall_s"] = time.perf_counter() - start
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        restore()
        out["trace"] = tracer.export()
        out["probe"] = tracer.probe()
    out["record"] = wl.encode(inp, result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
