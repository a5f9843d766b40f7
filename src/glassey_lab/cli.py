"""Command-line harness: reproducible experiments with config echo and CSV
emission.  Exit codes: 0 success, 2 precondition violations, 3 invariant
failures, 1 internal errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import traceback
from dataclasses import asdict

import numpy as np

from . import estimates, lifespan, picard
from .core import (
    ProblemSpec,
    RadialGrid,
    WeightParams,
    _quadrature_weight,
    energy,
    lambda_norms,
    norm_report,
)
from .errors import Divergence, GlasseyLabError, PreconditionViolation
from .report import fmt_value, read_config, write_config, write_csv, write_series
from .solver import DEFAULT_CFL, DEFAULT_STRIDE, DataProfile, evolve, make_profile

class InvariantFailure(Exception):
    """An asserted bound or band was breached by the measured data."""


def _jobs(text):
    """--jobs: an int in [1, os.cpu_count()]."""
    cap = os.cpu_count() or 1
    try:
        jobs = int(text)
    except ValueError:
        jobs = None
    if jobs is None or not 1 <= jobs <= cap:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [1, {cap}] (the CPU count), got {text!r}"
        )
    return jobs


# The shared flags.  Each subcommand takes only the ones its runner reads, so
# a flag it would ignore exits 2 as an unrecognized argument.
_COMMON = {
    "n": dict(type=int, default=3, help="space dimension"),
    "p": dict(type=float, default=2.0, help="nonlinearity power"),
    "a": dict(type=float, default=1.0, help="|u_t|^p coefficient"),
    "b": dict(type=float, default=0.0, help="|grad u|^p coefficient"),
    "rmax": dict(type=float, default=20.0, help="domain radius"),
    "cells": dict(type=int, default=2000, help="grid cells"),
    "cfl": dict(type=float, default=DEFAULT_CFL, help="dt / dr ratio"),
    "stride": dict(type=int, default=DEFAULT_STRIDE, help="RK4 steps per stored sample"),
    "seed": dict(type=int, default=7, help="base seed"),
    "jobs": dict(type=_jobs, default=1, help="parallel tasks, at most the CPU count"),
}


def _add_common(parser, names):
    """The shared flags named in `names` (space-separated), --out and --config."""
    for name in names.split():
        parser.add_argument("--" + name, **_COMMON[name])
    parser.add_argument("--out", type=str, default="out", help="output directory")
    # listed for --help: _apply_config takes it out of argv before parsing
    parser.add_argument("--config", default=argparse.SUPPRESS, help="config file with flag defaults")


# kss --variant inhom solves from zero data, so it refuses these data flags
# at any value but their default
_DATA_ONLY = {"profile": "gaussian", "assigns": "to_u0", "data_file": None}


def _add_profile(parser, include_eps=True):
    parser.add_argument("--profile", choices=("gaussian", "smooth_bump", "from_file"),
                        default=_DATA_ONLY["profile"])
    if include_eps:
        parser.add_argument("--eps", type=float, default=1.0, help="data amplitude")
    parser.add_argument("--width", type=float, default=1.0)
    parser.add_argument("--center", type=float, default=0.0)
    parser.add_argument("--assigns", choices=("to_u0", "to_u1", "split"),
                        default=_DATA_ONLY["assigns"])
    parser.add_argument("--data-file", type=str, default=_DATA_ONLY["data_file"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glassey-lab",
        description="Numerical laboratory for radial derivative-nonlinearity waves.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # no prefix matching, so that a flag a subcommand lacks is not taken for
    # a longer one (kss --p as --profile, norms --a as --assigns)
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p_solve = add_parser("solve", help="evolve one data profile")
    _add_common(p_solve, "n p a b rmax cells cfl stride")
    _add_profile(p_solve)
    p_solve.add_argument("--t-end", type=float, default=1.0)

    p_ineq = add_parser("ineq", help="seeded inequality suite")
    _add_common(p_ineq, "n rmax cells seed jobs")
    p_ineq.add_argument("--lemma", choices=("hardy", "trace", "trace_variant"), required=True)
    p_ineq.add_argument("--s", type=float, required=True)
    p_ineq.add_argument("--samples", type=int, default=200)

    p_kss = add_parser("kss", help="uniform-in-T space-time bounds")
    _add_common(p_kss, "n rmax cells cfl stride")
    _add_profile(p_kss)
    p_kss.add_argument("--variant", choices=("hom", "inhom"), default="hom")
    p_kss.add_argument("--delta", type=float, default=0.3)
    p_kss.add_argument("--delta-prime", type=float, default=0.2)
    # the CLI's source is on over t in [0, 1]: a horizon there breaches the band
    p_kss.add_argument("--t-list", type=str, default="2,4,8")

    p_pic = add_parser("picard", help="contraction-map iteration")
    _add_common(p_pic, "n p a b rmax cells cfl stride")
    _add_profile(p_pic)
    p_pic.add_argument("--t-end", type=float, default=10.0)
    p_pic.add_argument("--max-iters", type=int, default=12)
    p_pic.add_argument("--tol", type=float, default=1e-8)

    p_life = add_parser("lifespan", help="epsilon sweep and scaling-law fit")
    _add_common(p_life, "n p a b rmax cfl jobs")
    _add_profile(p_life, include_eps=False)
    p_life.add_argument("--eps-list", "--eps", dest="eps_list", type=str,
                        default="0.7,1.0,1.4,2.0,2.8",
                        help="comma list of sweep amplitudes")
    p_life.add_argument("--horizon", type=float, default=40.0)
    p_life.add_argument("--ladder", type=str, default="1920,3840",
                        help="comma list of two cell counts")
    # defaults sized for the stock subcritical battery
    p_life.set_defaults(rmax=48.0, assigns="split")

    p_norms = add_parser("norms", help="norm report for a linear evolution")
    _add_common(p_norms, "n p rmax cells cfl stride")
    _add_profile(p_norms)
    p_norms.add_argument("--t-end", type=float, default=10.0)
    p_norms.add_argument("--delta", type=float, default=0.3)
    p_norms.add_argument("--delta-prime", type=float, default=0.2)

    return parser


def _profile_from(args) -> DataProfile:
    return DataProfile(
        family=args.profile,
        epsilon=getattr(args, "eps", 1.0),
        width=args.width,
        center=args.center,
        assigns=args.assigns,
        path=args.data_file,
    )


def _echo_config(args):
    """Make the --out directory and write config.txt into it."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise PreconditionViolation(
            f"--out {args.out!r} cannot be made a directory: {exc.strerror}") from None
    write_config(os.path.join(args.out, "config.txt"), vars(args))


def _parse_list(text, flag):
    """The numbers of a comma list given to flag; empty tokens are skipped."""
    values = []
    for tok in filter(None, (t.strip() for t in text.split(","))):
        try:
            values.append(float(tok))
        except ValueError:
            values.append(math.nan)
        if not math.isfinite(values[-1]):
            raise PreconditionViolation(f"{flag}: {tok!r} is not a finite number")
    return values


def _problem(args):
    """The equation, grid and initial data that the flags describe."""
    # norms has no --a and --b: it evolves the free wave, a = b = 0
    spec = ProblemSpec(n_dim=args.n, p=args.p, a=getattr(args, "a", 0.0),
                       b=getattr(args, "b", 0.0))
    grid = RadialGrid(r_max=args.rmax, num_cells=args.cells)
    # the energies weigh by r^(n-1): a dimension past the double range is
    # refused for that before the solve, whose step bound it would also fail
    _quadrature_weight(grid, args.n - 1.0, 0.0)
    return spec, grid, make_profile(_profile_from(args), grid)


def _run_solve(args):
    spec, grid, data = _problem(args)
    outcome = evolve(spec, data.u0, data.u1, grid, args.t_end,
                     cfl=args.cfl, sample_stride=args.stride)
    traj = outcome.trajectory
    # an energy past the double range is reported as inf, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        energies = energy(traj)
    rows = [{"t": t, "energy": e, "max_v": float(np.max(np.abs(v))),
             "max_u": float(np.max(np.abs(u)))}
            for t, e, u, v in zip(traj.times.tolist(), energies.tolist(), traj.u, traj.v)]
    write_csv(os.path.join(args.out, "series.csv"), "solve",
              ("t", "energy", "max_v", "max_u"), rows)
    write_series(os.path.join(args.out, "energy_series.txt"), "t energy",
                 [(row["t"], row["energy"]) for row in rows])
    write_csv(os.path.join(args.out, "outcome.csv"), "solve",
              ("status", "t_blowup", "peak_gradient", "t_end"),
              [{"status": outcome.status, "t_blowup": outcome.t_blowup,
                "peak_gradient": outcome.peak_gradient,
                "t_end": outcome.trajectory.t_end}])
    print(f"solve: {outcome.status} t_end={fmt_value(outcome.trajectory.t_end)} "
          f"peak={fmt_value(outcome.peak_gradient)}")


def _run_ineq(args):
    samples = estimates.run_ineq_suite(
        args.lemma, args.n, args.s, args.samples, args.seed,
        r_max=args.rmax, num_cells=args.cells, jobs=args.jobs,
    )
    write_csv(os.path.join(args.out, "ineq.csv"), "ineq",
              estimates.INEQ_COLUMNS, [s.row() for s in samples])
    violations = sum(1 for s in samples if s.violation)
    print(f"ineq {args.lemma}: {len(samples)} samples, {violations} violations, "
          f"max ratio {fmt_value(max(s.ratio for s in samples))}")
    if violations:
        bad = [s for s in samples if s.violation][:5]
        for s in bad:
            print(f"  violation: {s.row()}")
        raise InvariantFailure(f"{violations} bound violations in {args.lemma} suite")


def _run_kss(args):
    t_list = _parse_list(args.t_list, "--t-list")
    if not t_list:
        raise PreconditionViolation("--t-list names no horizon")
    grid = RadialGrid(r_max=args.rmax, num_cells=args.cells)
    step = dict(cfl=args.cfl, sample_stride=args.stride)
    if args.variant == "hom":
        data = make_profile(_profile_from(args), grid)
        samples = estimates.kss_hom_check(
            data.u0, data.u1, args.n, args.delta, args.delta_prime, t_list, **step)
    else:
        for key, default in _DATA_ONLY.items():
            if getattr(args, key) != default:
                flag = "--" + key.replace("_", "-")
                raise PreconditionViolation(
                    f"kss --variant inhom solves from zero data and takes no {flag}")
        forcing = estimates.ForcingSpec(amplitude=args.eps, space_center=args.center,
                                        space_width=args.width, t_on=0.0, t_off=1.0)
        samples = estimates.kss_inhom_check(
            forcing, grid, args.n, args.delta, args.delta_prime, t_list, **step)
    rows = [{c: row[c] for c in estimates.KSS_COLUMNS if c in row}
            for row in (s.row() for s in samples)]
    write_csv(os.path.join(args.out, "kss.csv"), "kss", estimates.KSS_COLUMNS, rows)
    write_series(os.path.join(args.out, "band_series.txt"), "T ratio",
                 [(s.params["T"], s.ratio) for s in samples])
    ratios = [fmt_value(s.ratio) for s in samples]
    print(f"kss {args.variant}: ratios {ratios}")
    if not estimates.kss_band_ok(samples):
        for row in rows:
            print(f"  breakdown: {row}")
        raise InvariantFailure(
            f"kss {args.variant} ratios breach the {estimates.KSS_BAND:.0%} band")


def _write_picard_trace(out, trace):
    write_csv(os.path.join(out, "picard_trace.csv"), "picard", picard.TRACE_COLUMNS,
              [asdict(t) for t in trace])
    write_series(os.path.join(out, "rho_series.txt"), "iteration rho",
                 [(t.iteration, t.rho_step) for t in trace])


def _run_picard(args):
    spec, _, data = _problem(args)
    try:
        result = picard.picard_run(
            spec, data.u0, data.u1, args.t_end,
            max_iters=args.max_iters, tol=args.tol, cfl=args.cfl, sample_stride=args.stride,
        )
    except Divergence as exc:
        # a diverging run keeps the iterations it measured
        _write_picard_trace(args.out, exc.trace)
        raise
    _write_picard_trace(args.out, result.trace)
    print(f"picard: converged={result.converged} iterations={len(result.trace)} "
          f"delta={fmt_value(result.weights.delta)} "
          f"delta_prime={fmt_value(result.weights.delta_prime)}")
    if not result.converged:
        raise InvariantFailure("picard iteration did not converge")


def _run_lifespan(args):
    spec = ProblemSpec(n_dim=args.n, p=args.p, a=args.a, b=args.b)
    eps = _parse_list(args.eps_list, "--eps-list")
    ladder = _parse_list(args.ladder, "--ladder")
    records = lifespan.sweep(
        spec, _profile_from(args), eps, ladder, args.horizon, args.rmax,
        cfl=args.cfl, jobs=args.jobs,
    )
    write_csv(os.path.join(args.out, "sweep.csv"), "lifespan",
              lifespan.SWEEP_COLUMNS, [asdict(r) for r in records])
    write_series(os.path.join(args.out, "sweep_series.txt"), "epsilon t_observed",
                 [(r.epsilon, r.t_observed) for r in records])
    fits = []
    if spec.regime == "subcritical":
        fits.append(lifespan.fit_power(records, spec))
    elif spec.regime == "critical":
        fits.append(lifespan.fit_exponential(records, spec))
    write_csv(os.path.join(args.out, "fit.csv"), "lifespan",
              lifespan.FIT_COLUMNS, [asdict(f) for f in fits])
    print(f"lifespan: regime={spec.regime} records={len(records)} "
          f"censored={sum(1 for r in records if r.censored)}")
    for f in fits:
        print(f"  fit {f.model}: slope={fmt_value(f.slope)} r2={fmt_value(f.r_squared)} "
              f"verdict={f.verdict}")


def _run_norms(args):
    spec, grid, data = _problem(args)
    outcome = evolve(spec, data.u0, data.u1, grid, args.t_end,
                     cfl=args.cfl, sample_stride=args.stride)
    w = WeightParams(delta=args.delta, delta_prime=args.delta_prime, horizon=args.t_end)
    report = norm_report(outcome.trajectory, w)
    lam = lambda_norms(data.u0, data.u1, args.n)
    rows = [
        {"quantity": "p_c", "value": spec.p_critical},
        {"quantity": "s_c", "value": spec.s_scaling},
        {"quantity": "lambda1", "value": lam.lambda1},
        {"quantity": "lambda2", "value": lam.lambda2},
        {"quantity": "e1", "value": report.e1},
        {"quantity": "e2", "value": report.e2},
        {"quantity": "le1", "value": report.le1},
        {"quantity": "le2", "value": report.le2},
    ]
    for name, val in report.components.items():
        rows.append({"quantity": f"le1_{name}", "value": val})
    write_csv(os.path.join(args.out, "norms.csv"), "norms", ("quantity", "value"), rows)
    print(f"norms: e1={fmt_value(report.e1)} le1={fmt_value(report.le1)}")


_RUNNERS = {
    "solve": _run_solve,
    "ineq": _run_ineq,
    "kss": _run_kss,
    "picard": _run_picard,
    "lifespan": _run_lifespan,
    "norms": _run_norms,
}


# flags a subcommand no longer takes, each with the one value the code now
# always applies: a config.txt line at that value replays as if absent; at
# any other value it is folded in as any line is, and exits 2 as unrecognized
_RETIRED = {"solve": {"linear": "false"}, "ineq": {"tol": "0.001"},
            "kss": {"band": "0.25"}}


def _apply_config(argv):
    """Take `--config FILE` or `--config=FILE` out of argv and fold the
    file's values in front of the explicit flags."""
    path, rest, tokens = None, [], iter(argv)
    for tok in tokens:
        flag, eq, value = tok.partition("=")
        if flag != "--config":
            rest.append(tok)
            continue
        path = value if eq else next(tokens, None)
        if path is None:
            raise PreconditionViolation("--config needs a file path")
    if path is None:
        return argv
    values = read_config(path)
    sub = rest.pop(0) if rest and not rest[0].startswith("-") else values.get("subcommand")
    if sub is None:
        raise PreconditionViolation("config file does not name a subcommand")
    retired = _RETIRED.get(sub, {})
    folded = [sub]
    for key, val in sorted(values.items()):
        if key == "subcommand" or val == "" or retired.get(key) == val:
            continue
        # one token, so that a value such as -1e-05 is not read as a flag
        folded.append(f"--{key.replace('_', '-')}={val}")
    folded.extend(rest)
    return folded


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
    except (GlasseyLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        _echo_config(args)
        _RUNNERS[args.subcommand](args)
        return 0
    except InvariantFailure as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        _print_params(args)
        return 3
    except GlasseyLabError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        _print_params(args)
        return 2
    except Exception:
        traceback.print_exc()
        _print_params(args)
        return 1


def _print_params(args):
    print(f"parameters: {vars(args)}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
