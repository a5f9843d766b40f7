"""One workload run in a fresh interpreter; run.py starts it.

    child.py <t0_ns> <result.json> <workload> <seed> <trace 0|1> <out_dir>

t0_ns is the parent's time.monotonic_ns() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so setup_s runs from
interpreter start to `glassey_lab.cli` imported, numpy and scipy included.
The result is written as JSON to result.json.
"""

import time

import glassey_lab.cli

IMPORTED_NS = time.monotonic_ns()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_workload(name, seed, traced, out_dir):
    workload = WORKLOADS[name]
    calls = workload.invocations(seed, out_dir)
    main = glassey_lab.cli.main
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.wrap("cli.main", main)
    start = time.perf_counter()
    for call in calls:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            call.exit_code = main(call.argv)
        call.stdout = captured.getvalue()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = workload.check(calls)
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
    }
    if tracer:
        result["spans"] = os.path.join(out_dir, "spans.jsonl")
        tracer.write(result["spans"])
    return result


def main(argv):
    t0_ns, result_path = int(argv[0]), argv[1]
    name, seed, traced, out_dir = argv[2], int(argv[3]), argv[4] == "1", argv[5]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    package = os.path.realpath(os.path.dirname(glassey_lab.cli.__file__))
    if package != os.path.realpath(os.path.join(root, "src", "glassey_lab")):
        raise SystemExit(f"glassey_lab imported from {package}, not from this checkout")
    result = {"setup_s": (IMPORTED_NS - t0_ns) * 1e-9}
    result.update(run_workload(name, seed, traced, out_dir))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
