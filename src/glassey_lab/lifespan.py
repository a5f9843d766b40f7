"""Lifespan experiments: epsilon sweeps, censoring-aware records, and fits
against the regime laws: a power law below threshold and an exponential rate
at it.  No law is fit above threshold; a supercritical sweep reports its
records alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import ProblemSpec, RadialGrid
from .errors import PreconditionViolation
from .solver import (
    DEFAULT_CFL,
    DataProfile,
    evolve,
    make_profile,
    require_runnable,
    step_count,
)

AGREEMENT_CUTOFF = 0.10
SLOPE_TOLERANCE = 0.20


@dataclass(frozen=True)
class LifespanRecord:
    """One (epsilon, observed time) measurement from a resolution ladder."""

    epsilon: float
    t_observed: float
    censored: bool
    num_cells: int
    agreement: float


@dataclass(frozen=True)
class FitResult:
    model: str  # "power_law" | "exponential_rate"
    slope: float
    intercept: float
    r_squared: float
    predicted_slope: float
    verdict: str  # "consistent" | "inconsistent"
    tolerance: float
    r_squared_alt: float = None

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0):
            raise PreconditionViolation(f"r_squared must lie in [0,1], got {self.r_squared}")


# the CSV layouts of sweep.csv and fit.csv: their records' field names
SWEEP_COLUMNS = tuple(f.name for f in fields(LifespanRecord))
FIT_COLUMNS = tuple(f.name for f in fields(FitResult))


def predicted_exponent(spec: ProblemSpec) -> float:
    """The power-law slope of T against epsilon, -2(p-1)/(2-(n-1)(p-1)),
    which only the subcritical regime predicts."""
    if spec.regime != "subcritical":
        raise PreconditionViolation(f"no power law is predicted in the {spec.regime} regime")
    n, p = spec.n_dim, spec.p
    return -2.0 * (p - 1.0) / (2.0 - (n - 1) * (p - 1.0))


def _two_rungs(ladder) -> list:
    """The ladder's two distinct cell counts, coarse first; a count that is
    not a whole number is refused, not truncated."""
    for c in ladder:
        if not float(c).is_integer():
            raise PreconditionViolation(f"ladder cell count {c!r} is not a whole number")
    rungs = sorted(set(int(c) for c in ladder))
    if len(rungs) != 2:
        raise PreconditionViolation("ladder needs exactly 2 distinct resolutions")
    return rungs


def measure_lifespan(
    spec: ProblemSpec,
    profile: DataProfile,
    epsilon: float,
    ladder,
    horizon: float,
    r_max: float,
    cfl: float = DEFAULT_CFL,
) -> LifespanRecord:
    """Blow-up time (or censoring horizon) on a two-rung resolution ladder.

    agreement is the relative gap between the two rungs; runs whose rungs
    disagree on censoring get agreement = inf and are excluded by fits.
    """
    ladder = _two_rungs(ladder)
    scaled = replace(profile, epsilon=epsilon)
    results = []
    for cells in ladder:
        grid = RadialGrid(r_max=r_max, num_cells=cells)
        data = make_profile(scaled, grid)
        # the whole run as one stride: only the t = 0 and t = horizon
        # samples are stored
        steps = step_count(horizon, grid, cfl, 1)
        outcome = evolve(spec, data.u0, data.u1, grid, horizon, cfl=cfl, sample_stride=steps)
        blew = outcome.status == "blew_up"
        results.append((blew, outcome.t_blowup if blew else horizon))

    (blew_coarse, t_coarse), (blew_fine, t_fine) = results
    if blew_fine != blew_coarse:
        agreement = math.inf
    elif not blew_fine:
        agreement = 0.0
    else:
        agreement = abs(t_fine - t_coarse) / t_fine
    return LifespanRecord(
        epsilon=epsilon,
        t_observed=t_fine,
        censored=not blew_fine,
        num_cells=ladder[-1],
        agreement=agreement,
    )


def sweep(
    spec: ProblemSpec,
    profile: DataProfile,
    epsilons,
    ladder,
    horizon: float,
    r_max: float,
    cfl: float = DEFAULT_CFL,
    jobs: int = 1,
):
    """One record per epsilon, in epsilon order.  Every check a rung makes
    before it steps (require_runnable) is made for each epsilon on each rung
    before the first solve, so a sweep that starts measures every epsilon,
    and an error in any run ends the sweep."""
    eps = [float(e) for e in epsilons]
    if any(b <= a for a, b in zip(eps, eps[1:])):
        raise PreconditionViolation("epsilons must be strictly increasing")
    scaled = [replace(profile, epsilon=e) for e in eps]
    ladder = tuple(_two_rungs(ladder))
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise PreconditionViolation(f"horizon must be finite and > 0, got {horizon}")
    for cells in ladder:
        grid = RadialGrid(r_max=r_max, num_cells=cells)
        for point in scaled:
            data = make_profile(point, grid)
            require_runnable(spec, data.u0, data.u1, grid, horizon, cfl, 1)
    tasks = [(spec, profile, e, ladder, horizon, r_max, cfl) for e in eps]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_one_point, tasks))
    return [_one_point(t) for t in tasks]


def _one_point(task):
    """One sweep point: a module-level name, which the pool pickles by name."""
    return measure_lifespan(*task)


def _usable(records):
    recs = list(records)
    if not recs:
        raise PreconditionViolation("no records")
    censored = sum(1 for r in recs if r.censored)
    if censored > 0.5 * len(recs):
        raise PreconditionViolation(f"{censored}/{len(recs)} records censored")
    good = [r for r in recs if not r.censored and r.agreement <= AGREEMENT_CUTOFF]
    if len(good) < 4:
        raise PreconditionViolation(f"only {len(good)} usable records, need >= 4")
    return good


def _least_squares(x, y):
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), min(max(r2, 0.0), 1.0)


def fit_power(records, spec: ProblemSpec) -> FitResult:
    """log t against log epsilon, judged against the regime's exponent within
    SLOPE_TOLERANCE of its size."""
    good = _usable(records)
    exponent = predicted_exponent(spec)
    x = np.log([r.epsilon for r in good])
    y = np.log([r.t_observed for r in good])
    slope, intercept, r2 = _least_squares(x, y)
    tol = SLOPE_TOLERANCE * abs(exponent)
    verdict = "consistent" if abs(slope - exponent) <= tol else "inconsistent"
    return FitResult(
        model="power_law",
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        predicted_slope=exponent,
        verdict=verdict,
        tolerance=tol,
    )


def fit_exponential(records, spec: ProblemSpec) -> FitResult:
    """log t against epsilon^(1-p); the verdict compares this model's fit
    quality against the competing power law on the same records."""
    if spec.regime != "critical":
        raise PreconditionViolation(
            f"exponential-rate fit applies at the threshold power only, regime is {spec.regime}"
        )
    good = _usable(records)
    eps = np.array([r.epsilon for r in good])
    y = np.log([r.t_observed for r in good])
    x = eps ** (1.0 - spec.p)
    slope, intercept, r2 = _least_squares(x, y)
    _, _, r2_power = _least_squares(np.log(eps), y)
    verdict = "consistent" if r2 > r2_power else "inconsistent"
    return FitResult(
        model="exponential_rate",
        slope=slope,
        intercept=intercept,
        r_squared=r2,
        predicted_slope=math.nan,
        verdict=verdict,
        tolerance=math.nan,
        r_squared_alt=r2_power,
    )
