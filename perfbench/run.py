"""glassey-lab benchmark: real CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload lifespan-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  Each workload run happens in a fresh interpreter
(perfbench/child.py) with one BLAS thread, writing into a temporary directory
under the checkout that is deleted afterwards.  Runs repeat until the next
one would not end within --seconds; medians are reported.

--trace 0 reports the end-to-end metrics of BENCHMARK.json:
  wall_s       all CLI invocations of one workload run, median over runs
  setup_s      interpreter start to `glassey_lab.cli` imported, median over runs
  peak_rss_mb  ru_maxrss of a workload run's process, median over runs
--trace 1 alternates untraced runs with traced ones (at least two) and
reports the per-layer metrics of BENCHMARK.json (see tracing.layer_metrics;
solver.node_steps is computed, not counted); trace.overhead_s is the median
traced wall time minus the median untraced one.

Every run's CSV outputs pass the correctness gates in workloads.py; the
fail share is printed, and the last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Exit code 0 when correct,
1 when an output failed a gate or a count did not repeat, 2 when the
benchmark could not measure (no package in the checkout, a layer's wrapper
never fired, a run crashed or overran).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
MIN_TRACED = 2
DEADLINE_S = 170.0
# per-layer metrics in these units are exact counts that must repeat
EXACT_UNITS = ("count", "B")


class BenchError(Exception):
    """The benchmark could not take its measurements."""


class Runner:
    """Starts workload runs one at a time and keeps to the time budget."""

    def __init__(self, workload, seed, tmp):
        self.workload, self.seed, self.tmp = workload, seed, tmp
        self.started = time.monotonic()
        self.durations = []
        self.env = dict(os.environ)
        self.env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )

    def fits(self, seconds):
        """Whether one more run of the slowest kind so far ends within seconds."""
        return time.monotonic() - self.started + max(self.durations) <= seconds

    def run(self, k, traced):
        """One workload run in a fresh interpreter; its result dict."""
        out = os.path.join(self.tmp, f"run-{k}")
        result_path = os.path.join(self.tmp, f"run-{k}.json")
        os.makedirs(out)
        remaining = self.started + DEADLINE_S - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before the run could start")
        begin = time.monotonic()
        t0_ns = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, str(t0_ns), result_path, self.workload.name,
                 str(self.seed), "1" if traced else "0", out],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"run {k} overran the {DEADLINE_S:.0f} s budget") from None
        self.durations.append(time.monotonic() - begin)
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(
                f"run {k} exited with {proc.returncode}:\n"
                + proc.stderr.decode(errors="replace")[-4000:]
            )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if traced:
            result["layers"], result["span_counts"] = tracing.layer_metrics(
                tracing.read_spans(result["spans"])
            )
        shutil.rmtree(out)
        return result


def measure(runner, seconds, traced):
    """Untraced runs, and with traced=True at least MIN_TRACED traced ones."""
    plan = [False] + [True] * MIN_TRACED if traced else [False]
    plain, marked = [], []
    k = 0
    while plan or runner.fits(seconds):
        with_trace = plan.pop(0) if plan else (traced and len(marked) <= len(plain))
        (marked if with_trace else plain).append(runner.run(k, with_trace))
        k += 1
    return plain, marked


def check_layers(workload, runs):
    for run in runs:
        counts = run["span_counts"]
        quiet = [name for name in workload.layers if not counts.get(name)]
        if quiet:
            raise BenchError(f"{workload.name}: no spans for {quiet}; was a name in src/ renamed?")
        loud = [name for name in workload.silent if counts.get(name)]
        if loud:
            raise BenchError(f"{workload.name}: spans for {loud} should not fire here")


def layer_report(spec, plain, marked, problems):
    """Medians of per-layer times; counts taken once after checking they repeat."""
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    measured = set(marked[0]["layers"]) | {"trace.overhead_s"}
    if measured != set(units):
        raise BenchError(f"BENCHMARK.json per_layer differs from the measured metrics "
                         f"by {sorted(measured ^ set(units))}")
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = (statistics.median(r["wall_s"] for r in marked)
                             - statistics.median(r["wall_s"] for r in plain))
            continue
        values = [r["layers"][name] for r in marked]
        if unit in EXACT_UNITS:
            if len(set(values)) != 1:
                problems.append(f"{name} did not repeat across traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    return metrics, units


def end_to_end_report(spec, plain):
    samples = {name: [r[name] for r in plain] for name in ("wall_s", "setup_s", "peak_rss_mb")}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(units) != set(samples):
        raise BenchError(f"BENCHMARK.json end_to_end {sorted(units)} != {sorted(samples)}")
    for name, values in samples.items():
        print(f"{name:<12} median {statistics.median(values):.6g} {units[name]}  "
              f"min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")
    return {name: statistics.median(values) for name, values in samples.items()}, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if not os.path.isfile(os.path.join(ROOT, "src", "glassey_lab", "cli.py")):
        print(f"error: no src/glassey_lab package under {ROOT}", file=sys.stderr)
        return 2
    os.makedirs(TMP_PARENT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        runner = Runner(workload, args.seed, tmp)
        for call in workload.invocations(args.seed, "OUT"):
            print("glassey-lab " + " ".join(call.argv))
        plain, marked = measure(runner, args.seconds, bool(args.trace))
        runs = plain + marked
        problems = [p for r in runs for p in r["problems"]]
        if args.trace:
            check_layers(workload, marked)
            metrics, units = layer_report(spec, plain, marked, problems)
            for name, value in metrics.items():
                print(f"{name:<32} {value:.6g} {units[name]}")
        else:
            metrics, units = end_to_end_report(spec, plain)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_PARENT)
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"fail_share   {failed / attempted:.6g} ({failed}/{attempted} operations, "
          f"{len(plain)} untraced and {len(marked)} traced runs)")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
