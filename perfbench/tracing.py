"""Spans around the calls into each glassey_lab layer, and the per-layer
metrics computed from them.

`install` replaces each traced function where its caller looks it up: the
names bound by `from .x import y` in the calling module, the function pairs
that `estimates._CHECKS` captured at import, and `LinearSeries.__call__`.
A missing name raises AttributeError, so a rename in the package stops the
traced run instead of reporting zero for a layer.

Spans are kept in memory as (id, parent id, name, start ns, end ns, attrs)
and written out as JSON lines when the workload ends.  Importing this module
needs the standard library only; `install` imports the package.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
import os
import time
from collections import defaultdict

from workloads import LIFESPAN_AGREEMENT


class Tracer:
    """The spans of one process, kept in memory until write()."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._stack = [0]

    def wrap(self, name, fn, attrs=None):
        """fn with a span recorded per call; attrs(bound_args, result) -> dict."""
        signature = inspect.signature(fn) if attrs else None

        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end, {"error": True}))
                raise
            end = time.perf_counter_ns()
            self._stack.pop()
            extra = None
            if attrs:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                extra = attrs(bound.arguments, result)
            self.spans.append((span_id, parent, name, start, end, extra))
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def _evolve_attrs(args, outcome):
    """RK4 steps taken times grid nodes, mirroring the step formula in evolve."""
    grid, t_end = args["grid"], args["t_end"]
    cfl, stride = args["cfl"], args["sample_stride"]
    steps = 0
    if t_end > 0.0:
        steps = max(1, math.ceil(t_end / (cfl * grid.spacing)))
        steps = stride * math.ceil(steps / stride)
        if outcome.status == "blew_up":
            # evolve stops right after step k+1, at t = (k+1) * dt
            steps = round(outcome.t_blowup / (t_end / steps))
    return {
        "node_steps": steps * len(grid.nodes),
        "states": len(outcome.trajectory.times),
    }


def _states_attrs(args, _result):
    return {"states": len(args["traj"].times)}


def _check_attrs(_args, sample):
    return {"violation": bool(sample.violation)}


def _picard_attrs(_args, result):
    rhos = [t.rho_step for t in result.trace]
    ratios = [b / a for a, b in zip(rhos, rhos[1:]) if a > 0.0]
    return {"iterations": len(rhos), "rho_ratio_max": max(ratios, default=0.0)}


def _point_attrs(_args, record):
    usable = not record.censored and record.agreement <= LIFESPAN_AGREEMENT
    return {"usable": usable}


def _csv_attrs(args, path):
    return {"rows": len(args["rows"]), "bytes": os.path.getsize(path)}


def install(tracer):
    """Route the calls into every layer through tracer spans."""
    from glassey_lab import cli, estimates, lifespan, picard, solver

    def patch(owner, attr, name, attrs=None):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))

    for caller in (cli, estimates, lifespan, picard):
        patch(caller, "evolve", "solver.evolve", _evolve_attrs)
    patch(solver.LinearSeries, "__call__", "solver.forcing")

    patch(picard, "le_norm", "core.le_norm", _states_attrs)
    patch(picard, "e_norms", "core.e_norms", _states_attrs)
    patch(picard, "trajectory_difference", "core.trajectory_difference")
    patch(estimates, "weighted_l2", "core.weighted_l2")

    patch(estimates, "run_ineq_suite", "estimates.run_ineq_suite")
    for lemma, (check, generator) in list(estimates._CHECKS.items()):
        estimates._CHECKS[lemma] = (
            tracer.wrap("estimates.check", check, _check_attrs),
            tracer.wrap("estimates.field_gen", generator),
        )

    patch(picard, "picard_run", "picard.picard_run", _picard_attrs)
    patch(picard, "phi_map", "picard.phi_map")
    patch(picard, "rho_metric", "picard.rho_metric")

    patch(lifespan, "sweep", "lifespan.sweep")
    patch(lifespan, "measure_lifespan", "lifespan.measure_lifespan", _point_attrs)
    patch(lifespan, "fit_power", "lifespan.fit_power")

    patch(cli, "write_csv", "report.write_csv", _csv_attrs)
    patch(cli, "write_series", "report.write_series")
    patch(cli, "write_config", "report.write_config")


SELF_LAYERS = ("cli", "solver", "core", "estimates", "picard", "lifespan")


def layer_metrics(spans):
    """Per-layer metrics of one workload run from its spans.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums the self times of its spans.  Times are in
    seconds unless the name says otherwise; picard.iteration_s and
    lifespan.rung_s are means per iteration and per rung.  solver.node_steps
    is computed from each evolve call's arguments and outcome, not counted
    inside the solver.
    """
    by_id = {s[0]: s for s in spans}
    dur = {s[0]: (s[4] - s[3]) * 1e-9 for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1]:
            child_time[s[1]] += dur[s[0]]
    count = defaultdict(int)
    total = defaultdict(float)
    attr = defaultdict(float)
    self_time = defaultdict(float)
    for s in spans:
        span_id, parent, name, _, _, attrs = s
        count[name] += 1
        total[name] += dur[span_id]
        self_time[name.split(".")[0]] += dur[span_id] - child_time[span_id]
        for key, value in (attrs or {}).items():
            if key == "rho_ratio_max":
                attr[key] = max(attr[key], value)
            else:
                attr[f"{name}.{key}"] += value
    parent_name = {s[0]: by_id[s[1]][2] if s[1] in by_id else None for s in spans}
    evolve_under = defaultdict(float)
    rungs = 0
    for s in spans:
        if s[2] == "solver.evolve":
            evolve_under[parent_name[s[0]]] += dur[s[0]]
            rungs += parent_name[s[0]] == "lifespan.measure_lifespan"

    def per(amount, n, scale=1.0):
        return amount * scale / n if n else 0.0

    node_steps = int(attr["solver.evolve.node_steps"])
    iterations = int(attr["picard.picard_run.iterations"])
    samples = count["estimates.check"]
    points = count["lifespan.measure_lifespan"]
    metrics = {
        "solver.evolve_calls": count["solver.evolve"],
        "solver.evolve_s": total["solver.evolve"],
        "solver.node_steps": node_steps,
        "solver.ns_per_node_step": per(total["solver.evolve"], node_steps, 1e9),
        "solver.forcing_calls": count["solver.forcing"],
        "solver.forcing_s": total["solver.forcing"],
        "solver.states_stored": int(attr["solver.evolve.states"]),
        "core.le_norm_calls": count["core.le_norm"],
        "core.le_norm_s": total["core.le_norm"],
        "core.le_norm_us_per_state": per(
            total["core.le_norm"], attr["core.le_norm.states"], 1e6),
        "core.e_norms_calls": count["core.e_norms"],
        "core.e_norms_s": total["core.e_norms"],
        "core.e_norms_us_per_state": per(
            total["core.e_norms"], attr["core.e_norms.states"], 1e6),
        "core.trajectory_difference_s": total["core.trajectory_difference"],
        "core.weighted_l2_calls": count["core.weighted_l2"],
        "core.weighted_l2_us_per_call": per(
            total["core.weighted_l2"], count["core.weighted_l2"], 1e6),
        "estimates.samples": samples,
        "estimates.us_per_sample": per(total["estimates.run_ineq_suite"], samples, 1e6),
        "estimates.field_gen_s": total["estimates.field_gen"],
        "estimates.check_s": total["estimates.check"],
        "estimates.violations": int(attr["estimates.check.violation"]),
        "picard.iterations": iterations,
        # one iteration: a forced solve, the step metric and the trace norms;
        # the free solve that starts the run is left out
        "picard.iteration_s": per(
            total["picard.picard_run"] - evolve_under["picard.picard_run"], iterations),
        "picard.phi_map_s": total["picard.phi_map"],
        "picard.rho_metric_s": total["picard.rho_metric"],
        "picard.rho_ratio_max": attr["rho_ratio_max"],
        "lifespan.points": points,
        "lifespan.rungs": rungs,
        "lifespan.rung_s": per(evolve_under["lifespan.measure_lifespan"], rungs),
        "lifespan.usable_share": per(attr["lifespan.measure_lifespan.usable"], points),
        "report.rows_written": int(attr["report.write_csv.rows"]),
        "report.bytes_written": int(attr["report.write_csv.bytes"]),
        "report.write_s": sum(t for name, t in total.items() if name.startswith("report.")),
    }
    for layer in SELF_LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
    return metrics, dict(count)
