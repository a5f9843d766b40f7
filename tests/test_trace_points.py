"""The benchmark's tracer (perfbench/tracing.py) wraps package names where
their callers look them up, so renaming or removing one of them stops a
traced benchmark run.  This runs a small call of each benchmark workload
under `tracing.install` and checks that every layer the workload lists
fires, and that its silent layers do not.  It also checks the tracer's
node-step count, which re-derives evolve's step formula, against the steps
evolve takes.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys

import pytest

import glassey_lab
from glassey_lab import solver

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small versions of the workloads' CLI calls
CALLS = {
    "picard-contraction": [
        ["picard", "--n", "3", "--p", "2.5", "--eps", "0.05", "--assigns", "split",
         "--rmax", "14", "--cells", "350", "--t-end", "4"],
    ],
    "ineq-suite": [
        ["ineq", "--lemma", "hardy", "--n", "3", "--s", "1.0", "--samples", "4",
         "--cells", "600"],
        ["ineq", "--lemma", "trace_variant", "--n", "2", "--s", "0.125", "--samples", "4",
         "--cells", "600"],
    ],
    "lifespan-sweep": [
        ["lifespan", "--n", "3", "--p", "1.5", "--eps", "1.4,2.0,2.8,4.0", "--horizon", "15",
         "--rmax", "23", "--ladder", "460,920", "--assigns", "split"],
    ],
}

SCRIPT = """
import contextlib, io, json, os, sys
perfbench, calls, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
sys.path.insert(0, perfbench)
import glassey_lab.cli
import tracing
from workloads import WORKLOADS

tracer = tracing.Tracer()
tracing.install(tracer)
main = tracer.wrap("cli.main", glassey_lab.cli.main)
report = {}
for name, argvs in calls.items():
    start = len(tracer.spans)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [main(argv + ["--out", os.path.join(out, f"{name}-{k}")])
                 for k, argv in enumerate(argvs)]
    fired = {span[2] for span in tracer.spans[start:]}
    report[name] = {
        "codes": codes,
        "missing": [layer for layer in WORKLOADS[name].layers if layer not in fired],
        "loud": [layer for layer in WORKLOADS[name].silent if layer in fired],
    }
print(json.dumps(report))
"""


def test_every_workload_layer_fires_under_the_tracer(tmp_path):
    src = os.path.dirname(os.path.dirname(glassey_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "perfbench"),
         json.dumps(CALLS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == set(CALLS)
    for name, result in report.items():
        assert result == {"codes": [0] * len(CALLS[name]), "missing": [], "loud": []}, name


@pytest.fixture
def tracing(monkeypatch):
    """perfbench/tracing.py, imported through sys.path without writing
    bytecode there, and dropped from sys.modules afterwards."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    yield importlib.import_module("tracing")
    for name in ("tracing", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("eps, status", [(0.5, "completed"), (5.0, "blew_up")])
def test_traced_node_steps_are_the_steps_evolve_takes(tracing, monkeypatch, eps, status):
    # solver.node_steps rebuilds evolve's step formula from its arguments;
    # here the steps are counted from the RK4 stages (4 nonlinear slopes each)
    stages = []
    real = solver._add_nonlinearity

    def counting(*args):
        stages.append(None)
        return real(*args)

    monkeypatch.setattr(solver, "_add_nonlinearity", counting)
    spec = glassey_lab.ProblemSpec(n_dim=3, p=1.5, a=1.0, b=0.0)
    grid = glassey_lab.RadialGrid(r_max=16.0, num_cells=320)
    data = glassey_lab.make_profile(glassey_lab.DataProfile(
        family="gaussian", epsilon=eps, width=1.0, center=0.0, assigns="to_u1"), grid)
    # 7 does not divide the 320 cfl steps, so the stride rounding counts
    call = (spec, data.u0, data.u1, grid, 4.0)
    outcome = solver.evolve(*call, cfl=0.25, sample_stride=7)
    assert outcome.status == status

    bound = inspect.signature(solver.evolve).bind(*call, cfl=0.25, sample_stride=7)
    bound.apply_defaults()
    attrs = tracing._evolve_attrs(bound.arguments, outcome)
    steps = len(stages) // 4
    assert len(stages) == 4 * steps
    assert outcome.steps == steps
    planned = solver.step_count(4.0, grid, 0.25, 7)
    if status == "completed":
        assert steps == planned
    else:
        assert steps < planned and outcome.t_blowup == steps * (4.0 / planned)
    assert attrs["node_steps"] == steps * len(grid.nodes)


POOLED_SCRIPT = """
import contextlib, io, json, os, sys
perfbench, argv, out = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
sys.path.insert(0, perfbench)
import glassey_lab.cli
import tracing

tracing.install(tracing.Tracer())
with contextlib.redirect_stdout(io.StringIO()):
    codes = [glassey_lab.cli.main(argv + ["--jobs", jobs, "--out", os.path.join(out, jobs)])
             for jobs in ("1", "2")]
print(codes)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="--jobs is capped at the CPU count")
def test_traced_sweep_runs_its_points_in_a_pool(tmp_path):
    # the pool pickles what it maps by name, which a traced measure_lifespan
    # (a local function of the tracer) would not survive
    src = os.path.dirname(os.path.dirname(glassey_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", POOLED_SCRIPT, os.path.join(ROOT, "perfbench"),
         json.dumps(CALLS["lifespan-sweep"][0]), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0]", proc.stderr
    serial, pooled = ((tmp_path / jobs / "sweep.csv").read_bytes() for jobs in ("1", "2"))
    assert pooled == serial
