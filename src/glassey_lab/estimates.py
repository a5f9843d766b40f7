"""Property-testing of the weighted inequalities: Hardy, trace and its
compact-support variant, homogeneous and inhomogeneous KSS bounds, and the
energy inequality.

Checks are pure given their inputs; suites are deterministic in the seed and
merge results in seed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .core import (
    ProblemSpec,
    RadialField,
    RadialGrid,
    Trajectory,
    WeightParams,
    _derivative_values,
    _energy_integral,
    e_norms,
    le_norm,
    lestar_upper,
    radial_derivative,
    sphere_area,
    weighted_l2,
    weighted_sup,
)
from .errors import DegenerateInput, PreconditionViolation
from .solver import DEFAULT_CFL, DEFAULT_STRIDE, _bump_shape, evolve

DEFAULT_TOL = 1e-3
KSS_BAND = 0.25
# slack of the energy inequality's factor-2 bound
ENERGY_INEQ_TOL = 0.05

# no check fills s1 and s2 any more; the columns stay empty so that the
# ineq.csv and kss.csv headers, and the files written before, keep their bytes
SUITE_COLUMNS = (
    "lemma_id",
    "n",
    "s",
    "s1",
    "s2",
    "delta",
    "delta_prime",
    "T",
    "seed",
    "ratio",
    "bound",
    "violation",
)


@dataclass(frozen=True)
class IneqSample:
    """One measured LHS/RHS ratio with its asserted bound, if any."""

    lemma_id: str
    params: dict
    ratio: float
    bound: float = None
    seed: int = None
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and self.ratio >= 0.0):
            raise PreconditionViolation(f"ratio must be finite and >= 0, got {self.ratio}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise PreconditionViolation(f"tol must be finite and >= 0, got {self.tol}")

    @property
    def violation(self) -> bool:
        if self.bound is None:
            return False
        return self.ratio > self.bound * (1.0 + self.tol)

    def row(self) -> dict:
        out = {c: None for c in SUITE_COLUMNS}
        out["lemma_id"] = self.lemma_id
        out.update({k: v for k, v in self.params.items() if k in SUITE_COLUMNS})
        out["seed"] = self.seed
        out["ratio"] = self.ratio
        out["bound"] = self.bound
        out["violation"] = self.violation
        return out


def random_radial(seed: int, grid: RadialGrid, num_terms: int) -> RadialField:
    """Deterministic sum of Gaussians: smooth, decaying, reproducible."""
    return RadialField(grid, _gaussian_sum(seed, grid, num_terms))


def _gaussian_sum(seed: int, grid: RadialGrid, num_terms: int) -> np.ndarray:
    if not 1 <= num_terms <= 20:
        raise PreconditionViolation(f"num_terms must lie in [1, 20], got {num_terms}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, grid.r_max / 2.0, num_terms)
    widths = rng.uniform(0.2, 2.0, num_terms)
    amps = rng.uniform(-1.0, 1.0, num_terms)
    r = grid.nodes
    vals = np.zeros_like(r)
    for c, w, a in zip(centers, widths, amps):
        vals += a * np.exp(-(((r - c) / w) ** 2))
    return vals


@lru_cache(maxsize=16)
def _compact_window(grid: RadialGrid) -> np.ndarray:
    """The smooth cutoff exp(1 - 1/(1 - (r/cap)^2)) on r < cap = 0.75 r_max,
    0 beyond, read-only; every random_compact sample on grid multiplies by it."""
    r = grid.nodes
    cap = 0.75 * grid.r_max
    window = np.zeros_like(r)
    inside = r < cap
    window[inside] = np.exp(1.0 - 1.0 / (1.0 - (r[inside] / cap) ** 2))
    window.flags.writeable = False
    return window


def random_compact(seed: int, grid: RadialGrid, num_terms: int) -> RadialField:
    """random_radial times a smooth cutoff supported in r < 0.75 r_max."""
    vals = _gaussian_sum(seed, grid, num_terms)
    vals *= _compact_window(grid)
    return RadialField(grid, vals)


def _interpolation_denominator(f: RadialField, n: int, s: float, label: str) -> float:
    """||f||^(1-s) ||f_r||^s, the right side of the Hardy and trace bounds; it
    is 0 for a zero field, also at s = 0 and s = 1 (0**0 = 1)."""
    base = weighted_l2(f, n, 0.0, 0.0)
    slope = weighted_l2(radial_derivative(f), n, 0.0, 0.0)
    denom = base ** (1.0 - s) * slope**s
    if denom == 0.0:
        raise DegenerateInput(f"{label}: zero denominator")
    return denom


def hardy_check(f: RadialField, n: int, s: float, tol: float = DEFAULT_TOL) -> IneqSample:
    """||r^-s f|| against ||f||^(1-s) ||f_r||^s with the proof's constant."""
    if not (0.0 <= s <= 1.0) or (n == 2 and s >= 1.0):
        raise PreconditionViolation(f"need 0 <= s <= 1 (s < 1 when n = 2), got s={s}, n={n}")
    num = weighted_l2(f, n, -s, 0.0)
    denom = _interpolation_denominator(f, n, s, "hardy_check")
    bound = (2.0 / (n - 2.0 * s)) ** s if s >= 0.5 else (2.0 / (n - 1.0)) ** s
    return IneqSample("hardy", {"n": n, "s": s}, num / denom, bound=bound, tol=tol)


def trace_check(f: RadialField, n: int, s: float, tol: float = DEFAULT_TOL) -> IneqSample:
    """Sup-in-radius trace ratio; no sharp constant is asserted."""
    if not (0.5 <= s <= 1.0) or (n == 2 and s >= 1.0):
        raise PreconditionViolation(f"need 1/2 <= s <= 1 (s < 1 when n = 2), got s={s}, n={n}")
    num = weighted_sup(f, n, n / 2.0 - s)
    denom = _interpolation_denominator(f, n, s, "trace_check")
    return IneqSample("trace", {"n": n, "s": s}, num / denom, bound=None, tol=tol)


def trace_variant_check(
    f: RadialField, n: int, s: float, tol: float = DEFAULT_TOL
) -> IneqSample:
    """Compact-support trace variant with the sqrt(2) constant."""
    if s < 0.0:
        raise PreconditionViolation(f"need s >= 0, got {s}")
    mu = s - (n - 1) / 2.0
    num = weighted_sup(f, n, s)
    base = weighted_l2(f, n, mu, 0.0)
    slope = weighted_l2(radial_derivative(f), n, mu, 0.0)
    denom = math.sqrt(base * slope)
    if denom == 0.0:
        raise DegenerateInput("trace_variant_check: zero denominator")
    return IneqSample(
        "trace_variant", {"n": n, "s": s}, num / denom, bound=math.sqrt(2.0), tol=tol
    )


def _free_solve(u0, u1, n, horizon, forcing=None, **step) -> Trajectory:
    """Samples of the free wave (a = b = 0) from (u0, u1) up to `horizon`,
    driven by the ForcingSpec `forcing` when one is given; `step` holds
    evolve's cfl and sample_stride, if given."""
    grid = u0.grid
    source = None
    if forcing is not None and forcing.amplitude != 0.0:
        source = forcing.callable_on(grid)
    reach = 0.0 if forcing is None else forcing.support_radius
    # a placeholder exponent: with a = b = 0 the solve is linear
    spec = ProblemSpec(n_dim=n, p=2.0, a=0.0, b=0.0)
    return evolve(
        spec, u0, u1, grid, horizon, forcing=source, forcing_support=reach, **step
    ).trajectory


def kss_hom_check(
    u0: RadialField,
    u1: RadialField,
    n: int,
    delta: float,
    delta_prime: float,
    t_list,
    cfl: float = DEFAULT_CFL,
    sample_stride: int = DEFAULT_STRIDE,
):
    """Uniform-in-T ratios (E1 + LE1(T)) / data size for the free wave.

    Returns (samples, details); details carries the per-term LE component
    breakdown for each horizon so band failures can be audited.
    """
    t_list = sorted(float(t) for t in t_list)
    if not t_list:
        raise PreconditionViolation("t_list must contain positive horizons")
    weights = [WeightParams(delta=delta, delta_prime=delta_prime, horizon=T) for T in t_list]
    denom = weighted_l2(radial_derivative(u0), n, 0.0, 0.0) + weighted_l2(u1, n, 0.0, 0.0)
    if denom == 0.0:
        raise DegenerateInput("kss_hom_check: zero data")

    traj = _free_solve(u0, u1, n, t_list[-1], cfl=cfl, sample_stride=sample_stride)
    samples, details = [], {}
    for w in weights:
        T = w.horizon
        le = le_norm(traj, w)
        e1 = e_norms(traj, t_max=T)
        ratio = (e1 + le.total) / denom
        samples.append(
            IneqSample(
                "kss_hom",
                {"n": n, "delta": delta, "delta_prime": delta_prime, "T": T},
                ratio,
                bound=None,
            )
        )
        details[T] = {"e1": e1, "le1": le.total, **le.components}
    return samples, details


@dataclass(frozen=True)
class ForcingSpec:
    """Smooth compactly supported source: bump in r times a bump in t."""

    amplitude: float = 1.0
    space_center: float = 0.0
    space_width: float = 1.0
    t_on: float = 0.0
    t_off: float = 1.0

    def __post_init__(self):
        if self.space_width <= 0.0 or self.t_off <= self.t_on:
            raise PreconditionViolation("forcing bump needs positive extents")

    @property
    def support_radius(self) -> float:
        return self.space_center + self.space_width

    def shape(self, grid: RadialGrid) -> np.ndarray:
        return self.amplitude * _bump_shape(grid.nodes, self.space_center, self.space_width)

    def envelope(self, t: float) -> float:
        mid = 0.5 * (self.t_on + self.t_off)
        half = 0.5 * (self.t_off - self.t_on)
        xi = (t - mid) / half
        if abs(xi) >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - xi * xi))

    def callable_on(self, grid: RadialGrid):
        shape = self.shape(grid)
        return lambda t: self.envelope(t) * shape

    def sampled(self, grid: RadialGrid, times, spec: ProblemSpec) -> Trajectory:
        """The source at the given times, held in the u slot."""
        envelopes = np.array([self.envelope(t) for t in times])
        u = envelopes[:, None] * self.shape(grid)
        return Trajectory(spec, grid, times, u, np.zeros_like(u))


def kss_inhom_check(
    forcing: ForcingSpec,
    n: int,
    delta: float,
    delta_prime: float,
    horizon: float,
    cfl: float = DEFAULT_CFL,
    sample_stride: int = DEFAULT_STRIDE,
) -> IneqSample:
    """Zero-data source solve: (E1 + LE1) against the source-norm upper bound."""
    if n < 3:
        raise PreconditionViolation(
            f"the inhomogeneous bound requires n >= 3, got n = {n}"
        )
    w = WeightParams(delta=delta, delta_prime=delta_prime, horizon=horizon)
    if forcing.amplitude == 0.0:
        raise DegenerateInput("kss_inhom_check: zero forcing")
    side = max(1.0, forcing.support_radius + horizon + 2.5)
    cells = max(int(side / 0.05), 200)
    grid = RadialGrid(r_max=side, num_cells=cells)
    zero = RadialField.zeros(grid)
    traj = _free_solve(zero, zero, n, horizon, forcing, cfl=cfl, sample_stride=sample_stride)
    le = le_norm(traj, w)
    e1 = e_norms(traj, t_max=horizon)
    f_traj = forcing.sampled(grid, traj.times, traj.problem)
    denom = lestar_upper(f_traj, w)
    if denom == 0.0:
        raise DegenerateInput("kss_inhom_check: zero source norm")
    return IneqSample(
        "kss_inhom",
        {"n": n, "delta": delta, "delta_prime": delta_prime, "T": horizon},
        (e1 + le.total) / denom,
        bound=None,
    )


def require_band(band: float, name: str = "band") -> None:
    """Refuse a band that is not finite and >= 0: kss_band_ok would fail every
    run at a NaN band and pass every run at an infinite one."""
    if not (math.isfinite(band) and band >= 0.0):
        raise PreconditionViolation(f"{name} must be finite and >= 0, got {band}")


def kss_band_ok(samples, band: float = KSS_BAND) -> bool:
    """T-uniformity gate: every ratio within `band` of the smallest-T ratio."""
    require_band(band)
    ordered = sorted(samples, key=lambda s: s.params["T"])
    ref = ordered[0].ratio
    return all(s.ratio <= (1.0 + band) * ref for s in ordered)


def energy_ineq_check(
    u0: RadialField,
    u1: RadialField,
    forcing: ForcingSpec,
    n: int,
    horizon: float,
) -> IneqSample:
    """sup-in-time energy against data energy plus the |du||F| work integral."""
    grid = u0.grid
    traj = _free_solve(u0, u1, n, horizon, forcing)
    shape = forcing.shape(grid)
    energies, work_series = [], []
    for t, u, v in zip(traj.times, traj.u, traj.v):
        du = _derivative_values(u, grid.spacing)
        energies.append(_energy_integral(v, du, grid, n))
        mag = np.sqrt(v**2 + du**2)
        f_abs = np.abs(forcing.envelope(t) * shape)
        integrand = mag * f_abs * grid.nodes ** (n - 1)
        work_series.append(
            sphere_area(n) * float(np.trapezoid(integrand, dx=grid.spacing))
        )
    rhs = energies[0] + float(np.trapezoid(np.array(work_series), traj.times))
    if rhs == 0.0:
        raise DegenerateInput("energy_ineq_check: zero data and forcing")
    return IneqSample(
        "energy_ineq",
        {"n": n, "T": horizon},
        max(energies) / rhs,
        bound=2.0,
        tol=ENERGY_INEQ_TOL,
    )


# ---------------------------------------------------------------------------
# seeded suites
# ---------------------------------------------------------------------------

_CHECKS = {
    "hardy": (hardy_check, random_radial),
    "trace": (trace_check, random_radial),
    "trace_variant": (trace_variant_check, random_compact),
}


def _one_sample(args):
    lemma, n, s, seed, grid, tol = args
    check, generator = _CHECKS[lemma]
    nt = int(np.random.default_rng((seed, 998877)).integers(1, 9))
    return replace(check(generator(seed, grid, nt), n, s, tol=tol), seed=seed)


def run_ineq_suite(
    lemma: str,
    n: int,
    s: float,
    samples: int,
    seed: int,
    r_max: float = 12.0,
    num_cells: int = 2400,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
):
    """Seeded sweep of one inequality; deterministic and seed-ordered."""
    if lemma not in _CHECKS:
        raise PreconditionViolation(f"unknown lemma {lemma!r}")
    if samples < 1:
        raise PreconditionViolation("samples must be >= 1")
    if seed < 0:
        raise PreconditionViolation(f"seed must be >= 0, got {seed}")
    grid = RadialGrid(r_max=r_max, num_cells=num_cells)
    tasks = [(lemma, n, s, seed + i, grid, tol) for i in range(samples)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_one_sample, tasks, chunksize=8))
    return [_one_sample(t) for t in tasks]
