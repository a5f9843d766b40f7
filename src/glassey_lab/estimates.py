"""Property-testing of the weighted inequalities: Hardy, trace and its
compact-support variant, and the homogeneous and inhomogeneous KSS bounds.
The energy inequality of a forced solve is a test oracle (tests/oracles.py).

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
    _le_term_names,
    e_norms,
    lambda_norms,
    le_norm,
    lestar_upper,
    radial_derivative,
    weighted_l2,
    weighted_sup,
)
from .errors import PreconditionViolation
from .solver import DEFAULT_CFL, DEFAULT_STRIDE, DataProfile, _bump_shape, evolve

# the slack of every asserted bound: a ratio above bound * (1 + TOL) violates it
TOL = 1e-3
KSS_BAND = 0.25
# _gaussian_sum's widths are drawn for a grid of this radius or more; on a
# shorter grid they shrink with r_max, so that the draws decay before it
SAMPLE_R_MAX = 12.0

# the CSV layouts of the suites, each column filled in some row; kss keeps
# every LE term, so a run at n = 2 keeps its field column, empty
INEQ_COLUMNS = ("lemma_id", "n", "s", "seed", "ratio", "bound", "violation")
KSS_COLUMNS = ("lemma_id", "n", "delta", "delta_prime", "T", "ratio", "e1", "le1",
               *_le_term_names(3))


@dataclass(frozen=True)
class IneqSample:
    """One measured LHS/RHS ratio with its asserted bound, if any."""

    lemma_id: str
    params: dict
    ratio: float
    bound: float = None
    seed: int = None

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and self.ratio >= 0.0):
            raise PreconditionViolation(f"ratio must be finite and >= 0, got {self.ratio}")

    @property
    def violation(self) -> bool:
        if self.bound is None:
            return False
        return self.ratio > self.bound * (1.0 + TOL)

    def row(self) -> dict:
        """The sample as write_csv takes it, keyed by column name."""
        return {"lemma_id": self.lemma_id, **self.params, "seed": self.seed,
                "ratio": self.ratio, "bound": self.bound, "violation": self.violation}


def random_radial(seed: int, grid: RadialGrid, num_terms: int) -> RadialField:
    """Deterministic sum of Gaussians: smooth, decaying, reproducible."""
    return RadialField(grid, _gaussian_sum(seed, grid, num_terms))


def _gaussian_sum(seed: int, grid: RadialGrid, num_terms: int) -> np.ndarray:
    if not 1 <= num_terms <= 20:
        raise PreconditionViolation(f"num_terms must lie in [1, 20], got {num_terms}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, grid.r_max / 2.0, num_terms)
    widths = rng.uniform(0.2, 2.0, num_terms)
    if grid.r_max < SAMPLE_R_MAX:
        # every suite ratio is dilation-invariant, so this is the family of
        # r_max = SAMPLE_R_MAX rescaled (the centers scale with r_max already)
        widths *= grid.r_max / SAMPLE_R_MAX
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
        raise PreconditionViolation(f"{label}: zero denominator")
    return denom


def hardy_check(f: RadialField, n: int, s: float) -> IneqSample:
    """||r^-s f|| against ||f||^(1-s) ||f_r||^s with the proof's constant."""
    if not (0.0 <= s <= 1.0) or (n == 2 and s >= 1.0):
        raise PreconditionViolation(f"need 0 <= s <= 1 (s < 1 when n = 2), got s={s}, n={n}")
    num = weighted_l2(f, n, -s, 0.0)
    denom = _interpolation_denominator(f, n, s, "hardy_check")
    bound = (2.0 / (n - 2.0 * s)) ** s if s >= 0.5 else (2.0 / (n - 1.0)) ** s
    return IneqSample("hardy", {"n": n, "s": s}, num / denom, bound=bound)


def trace_check(f: RadialField, n: int, s: float) -> IneqSample:
    """Sup-in-radius trace ratio; no sharp constant is asserted."""
    if not (0.5 <= s <= 1.0) or (n == 2 and s >= 1.0):
        raise PreconditionViolation(f"need 1/2 <= s <= 1 (s < 1 when n = 2), got s={s}, n={n}")
    num = weighted_sup(f, n, n / 2.0 - s)
    denom = _interpolation_denominator(f, n, s, "trace_check")
    return IneqSample("trace", {"n": n, "s": s}, num / denom)


def trace_variant_check(f: RadialField, n: int, s: float) -> IneqSample:
    """Compact-support trace variant with the sqrt(2) constant."""
    if s < 0.0:
        raise PreconditionViolation(f"need s >= 0, got {s}")
    mu = s - (n - 1) / 2.0
    num = weighted_sup(f, n, s)
    base = weighted_l2(f, n, mu, 0.0)
    slope = weighted_l2(radial_derivative(f), n, mu, 0.0)
    denom = math.sqrt(base * slope)
    if denom == 0.0:
        raise PreconditionViolation("trace_variant_check: zero denominator")
    return IneqSample("trace_variant", {"n": n, "s": s}, num / denom, bound=math.sqrt(2.0))


def _free_solve(u0, u1, n, horizon, forcing=None, **step) -> Trajectory:
    """Samples of the free wave (a = b = 0) from (u0, u1) up to `horizon`,
    driven by the ForcingSpec `forcing` when one is given; `step` holds
    evolve's cfl and sample_stride, if given."""
    grid = u0.grid
    source = None if forcing is None else forcing.callable_on(grid)
    # a placeholder exponent: with a = b = 0 the solve is linear
    spec = ProblemSpec(n_dim=n, p=2.0, a=0.0, b=0.0)
    return evolve(spec, u0, u1, grid, horizon, forcing=source, **step).trajectory


def _kss_weights(delta: float, delta_prime: float, t_list) -> list:
    """One WeightParams per horizon of t_list, in increasing order."""
    weights = [WeightParams(delta, delta_prime, T) for T in sorted(map(float, t_list))]
    if not weights:
        raise PreconditionViolation("t_list must contain positive horizons")
    return weights


def _kss_samples(lemma: str, traj: Trajectory, weights, denominator, scale: float = 1.0):
    """The ratios (E1 + LE1(T)) / denominator(w) at the horizon T of each w,
    all read off the one solve traj.  Each sample's params carry its horizon's
    E1, LE1 and LE terms times `scale`, so band failures can be audited."""
    samples = []
    for w in weights:
        le = le_norm(traj, w)
        e1 = e_norms(traj, t_max=w.horizon)
        norms = {"e1": e1, "le1": le.total, **le.components}
        params = {"n": traj.problem.n_dim, "delta": w.delta,
                  "delta_prime": w.delta_prime, "T": w.horizon,
                  **{name: scale * norm for name, norm in norms.items()}}
        samples.append(IneqSample(lemma, params, (e1 + le.total) / denominator(w)))
    return samples


def kss_hom_check(u0: RadialField, u1: RadialField, n: int, delta: float, delta_prime: float,
                  t_list, cfl: float = DEFAULT_CFL, sample_stride: int = DEFAULT_STRIDE):
    """Uniform-in-T ratios (E1 + LE1(T)) / lambda1 of the free wave from
    (u0, u1), every horizon read off one solve to the last, as _kss_samples
    returns them."""
    weights = _kss_weights(delta, delta_prime, t_list)
    denom = lambda_norms(u0, u1, n).lambda1
    if denom == 0.0:
        raise PreconditionViolation("kss_hom_check: zero data")
    traj = _free_solve(u0, u1, n, weights[-1].horizon, cfl=cfl, sample_stride=sample_stride)
    return _kss_samples("kss_hom", traj, weights, lambda w: denom)


@dataclass(frozen=True)
class ForcingSpec:
    """Smooth compactly supported source: bump in r times a bump in t."""

    amplitude: float = 1.0
    space_center: float = 0.0
    space_width: float = 1.0
    t_on: float = 0.0
    t_off: float = 1.0

    def __post_init__(self):
        # the space bump is a smooth_bump data profile's, with its checks
        DataProfile("smooth_bump", epsilon=self.amplitude, width=self.space_width,
                    center=self.space_center)
        if not self.t_on < self.t_off:
            raise PreconditionViolation(f"need t_on < t_off, got {self.t_on}, {self.t_off}")

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
        """F(t) on grid, carrying the space bump's `support` as evolve asks."""
        shape = self.shape(grid)

        def rows(t):
            return self.envelope(t) * shape

        rows.support = self.space_center + self.space_width
        return rows


def kss_inhom_check(forcing: ForcingSpec, grid: RadialGrid, n: int, delta: float,
                    delta_prime: float, t_list, cfl: float = DEFAULT_CFL,
                    sample_stride: int = DEFAULT_STRIDE):
    """Ratios (E1 + LE1(T)) / lestar_upper(T) of the zero-data solve that
    `forcing` drives on grid, every horizon read off one solve to the last,
    as _kss_samples returns them.  The solve is linear in the source, so it
    is made for the unit amplitude, which the blow-up threshold does not
    stop, and its norms are scaled by the amplitude; the ratio is the unit
    source's."""
    if n < 3:
        raise PreconditionViolation(f"the inhomogeneous bound requires n >= 3, got n = {n}")
    weights = _kss_weights(delta, delta_prime, t_list)
    if forcing.amplitude == 0.0:
        raise PreconditionViolation("kss_inhom_check: zero forcing")
    unit = replace(forcing, amplitude=1.0)
    zero = RadialField.zeros(grid)
    traj = _free_solve(zero, zero, n, weights[-1].horizon, unit,
                       cfl=cfl, sample_stride=sample_stride)
    # the source rows at the sample times, from the callable the solve read
    forcing_at = unit.callable_on(grid)
    source = np.array([forcing_at(t) for t in traj.times])

    def source_norm(w):
        denom = lestar_upper(traj.times, source, grid, n, w)
        if denom == 0.0:
            raise PreconditionViolation("kss_inhom_check: zero source norm")
        return denom

    return _kss_samples("kss_inhom", traj, weights, source_norm, forcing.amplitude)


def kss_band_ok(samples) -> bool:
    """T-uniformity gate: every ratio within KSS_BAND of the smallest-T ratio."""
    ordered = sorted(samples, key=lambda s: s.params["T"])
    if not ordered:
        raise PreconditionViolation("kss_band_ok: the sample list is empty")
    ref = ordered[0].ratio
    return all(s.ratio <= (1.0 + KSS_BAND) * ref for s in ordered)


# ---------------------------------------------------------------------------
# seeded suites
# ---------------------------------------------------------------------------

_CHECKS = {
    "hardy": (hardy_check, random_radial),
    "trace": (trace_check, random_radial),
    "trace_variant": (trace_variant_check, random_compact),
}


def _one_sample(args):
    lemma, n, s, seed, grid = args
    check, generator = _CHECKS[lemma]
    nt = int(np.random.default_rng((seed, 998877)).integers(1, 9))
    return replace(check(generator(seed, grid, nt), n, s), seed=seed)


def run_ineq_suite(
    lemma: str,
    n: int,
    s: float,
    samples: int,
    seed: int,
    r_max: float,
    num_cells: int,
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
    tasks = [(lemma, n, s, seed + i, grid) for i in range(samples)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_one_sample, tasks, chunksize=8))
    return [_one_sample(t) for t in tasks]
