"""The benchmark's workloads: seeded CLI inputs, correctness gates and the
layers each one must exercise.

A workload is a list of `glassey-lab` invocations that run one after the
other in one interpreter (closed loop, `--jobs 1`).  Only the seed decides
the inputs.  The gates apply the acceptance thresholds of the paper's claims
to the CSV files the CLI wrote; they never compare bytes against an earlier
commit, so a legitimate change in floating-point order is not a failure.

This module uses the standard library only, so run.py can import it.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

# lifespan-sweep: subcritical n=3, p=1.5, where the predicted law is T ~ eps^-1
LIFESPAN_EPS = (0.7, 1.0, 1.4, 2.0, 2.8)
LIFESPAN_JITTER = 0.03
LIFESPAN_SLOPE = -1.0
LIFESPAN_SLOPE_TOL = 0.2
LIFESPAN_MIN_R2 = 0.95
LIFESPAN_AGREEMENT = 0.10

# picard-contraction: every eps in 0.05 * (1 +- 5%) converges in 5 iterations,
# so seeds change the data but not the number of solves (0.044 takes 4).
PICARD_EPS = 0.05
PICARD_JITTER = 0.05
PICARD_MAX_RATIO = 0.9

INEQ_SAMPLES = 1000
INEQ_SUITES = (
    ("hardy", 3, 0.5),
    ("hardy", 3, 1.0),
    ("hardy", 4, 1.0),
    ("hardy", 2, 0.5),
    ("trace_variant", 2, 0.0),
    ("trace_variant", 2, 0.125),
    ("trace_variant", 3, 0.25),
    ("trace", 3, 0.75),
)


@dataclass
class Invocation:
    """One CLI call: its arguments and, once run, its exit code and stdout."""

    argv: list
    out: str
    exit_code: int = None
    stdout: str = ""


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list


def _rng(workload: str, seed: int) -> random.Random:
    # a str seed is hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}")


def _read_csv(path: str) -> list:
    """Rows of a `# glassey-lab v1` CSV as dicts; the marker line is skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        marker = fh.readline()
        if not marker.startswith("# glassey-lab v1"):
            raise ValueError(f"{path}: missing glassey-lab marker line")
        return list(csv.DictReader(fh))


def lifespan_eps(seed: int) -> list:
    """The epsilon ladder jittered by a few percent, still strictly increasing."""
    rng = _rng("lifespan-sweep", seed)
    eps = [round(e * (1.0 + rng.uniform(-LIFESPAN_JITTER, LIFESPAN_JITTER)), 6)
           for e in LIFESPAN_EPS]
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"jittered ladder {eps} is not strictly increasing")
    return eps


def picard_eps(seed: int) -> float:
    rng = _rng("picard-contraction", seed)
    return round(PICARD_EPS * (1.0 + rng.uniform(-PICARD_JITTER, PICARD_JITTER)), 7)


def ineq_seed(seed: int) -> int:
    return _rng("ineq-suite", seed).randrange(1, 1_000_000)


def _lifespan_invocations(seed, out):
    eps = ",".join(repr(e) for e in lifespan_eps(seed))
    argv = ["lifespan", "--n", "3", "--p", "1.5", "--a", "1", "--b", "0",
            "--assigns", "split", "--horizon", "40", "--rmax", "48",
            "--ladder", "960,1920", "--eps-list", eps, "--out", out]
    return [Invocation(argv, out)]


def _picard_invocations(seed, out):
    argv = ["picard", "--n", "3", "--p", "2.5", "--eps", repr(picard_eps(seed)),
            "--assigns", "split", "--rmax", "18", "--cells", "1800",
            "--t-end", "10", "--out", out]
    return [Invocation(argv, out)]


def _ineq_invocations(seed, out):
    base = ineq_seed(seed)
    calls = []
    for k, (lemma, n, s) in enumerate(INEQ_SUITES):
        sub = os.path.join(out, f"{k}-{lemma}-{n}-{s}")
        argv = ["ineq", "--lemma", lemma, "--n", str(n), "--s", str(s),
                "--samples", str(INEQ_SAMPLES), "--seed", str(base), "--out", sub]
        calls.append(Invocation(argv, sub))
    return calls


def _check_lifespan(calls) -> Verdict:
    """An operation is one sweep point; a point missing from sweep.csv fails."""
    (call,) = calls
    wanted = [float(e) for e in call.argv[call.argv.index("--eps-list") + 1].split(",")]
    if call.exit_code != 0:
        return Verdict(len(wanted), len(wanted), [f"lifespan exit code {call.exit_code}"])
    problems = []
    fits = _read_csv(os.path.join(call.out, "fit.csv"))
    if len(fits) != 1:
        problems.append(f"fit.csv has {len(fits)} fits, expected 1")
    for fit in fits:
        slope, r2 = float(fit["slope"]), float(fit["r_squared"])
        if fit["verdict"] != "consistent":
            problems.append(f"fit verdict {fit['verdict']}")
        if not abs(slope - LIFESPAN_SLOPE) <= LIFESPAN_SLOPE_TOL:
            problems.append(f"fit slope {slope} outside {LIFESPAN_SLOPE} +- {LIFESPAN_SLOPE_TOL}")
        if not r2 >= LIFESPAN_MIN_R2:
            problems.append(f"fit r^2 {r2} below {LIFESPAN_MIN_R2}")
    if problems:
        # the fit judges the sweep as a whole, so every point fails with it
        return Verdict(len(wanted), len(wanted), problems)
    rows = {float(r["epsilon"]): r for r in _read_csv(os.path.join(call.out, "sweep.csv"))}
    failed = 0
    for e in wanted:
        row = rows.get(e)
        if row is None:
            problems.append(f"epsilon {e} missing from sweep.csv")
        elif row["censored"] != "false":
            problems.append(f"epsilon {e} censored")
        elif not float(row["agreement"]) <= LIFESPAN_AGREEMENT:
            problems.append(f"epsilon {e} agreement {row['agreement']}")
        else:
            continue
        failed += 1
    return Verdict(len(wanted), failed, problems)


def _check_picard(calls) -> Verdict:
    """An operation is one Picard invocation."""
    (call,) = calls
    problems = []
    if call.exit_code != 0:
        problems.append(f"picard exit code {call.exit_code}")
    elif "converged=True" not in call.stdout:
        problems.append("picard did not report convergence")
    else:
        rhos = [float(r["rho_step"])
                for r in _read_csv(os.path.join(call.out, "picard_trace.csv"))]
        if not rhos:
            problems.append("picard_trace.csv has no iterations")
        for k, (prev, cur) in enumerate(zip(rhos, rhos[1:]), start=2):
            if not (math.isfinite(cur) and cur <= PICARD_MAX_RATIO * prev):
                problems.append(f"rho_step {cur} > {PICARD_MAX_RATIO} x {prev} "
                                f"at iteration {k}")
    return Verdict(1, 1 if problems else 0, problems)


def _check_ineq(calls) -> Verdict:
    """An operation is one inequality sample; a missing row fails."""
    failed, problems = 0, []
    for call in calls:
        label = " ".join(call.argv[:7])
        if call.exit_code != 0:
            problems.append(f"{label}: exit code {call.exit_code}")
            failed += INEQ_SAMPLES
            continue
        rows = _read_csv(os.path.join(call.out, "ineq.csv"))
        bad = sum(1 for r in rows if r["violation"] != "false")
        missing = max(0, INEQ_SAMPLES - len(rows))
        if len(rows) != INEQ_SAMPLES:
            problems.append(f"{label}: {len(rows)} rows for {INEQ_SAMPLES} samples")
        if bad:
            problems.append(f"{label}: {bad} violations")
        failed += min(INEQ_SAMPLES, bad + missing)
    return Verdict(INEQ_SAMPLES * len(calls), failed, problems)


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: object  # (seed, out_dir) -> [Invocation]
    check: object  # [Invocation] -> Verdict
    layers: tuple  # span names that must fire in a traced run
    silent: tuple = ()  # span names that must not fire


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "lifespan-sweep", _lifespan_invocations, _check_lifespan,
            layers=("cli.main", "solver.evolve", "lifespan.sweep",
                    "lifespan.measure_lifespan", "report.write_csv"),
        ),
        Workload(
            "picard-contraction", _picard_invocations, _check_picard,
            layers=("cli.main", "solver.evolve", "solver.forcing", "core.le_norm",
                    "core.e_norms", "core.trajectory_difference", "picard.picard_run",
                    "picard.phi_map", "picard.rho_metric", "report.write_csv"),
        ),
        Workload(
            "ineq-suite", _ineq_invocations, _check_ineq,
            layers=("cli.main", "estimates.run_ineq_suite", "estimates.check",
                    "estimates.field_gen", "core.weighted_l2", "report.write_csv"),
            silent=("solver.evolve",),
        ),
    )
}
