"""Radial grids and fields, discrete radial calculus, and weighted norms.

Everything in this module is immutable after construction and every operation
is a pure function, so values can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    HorizonMismatch,
    NonIntegrable,
    PreconditionViolation,
)

# |S^{n-1}| for the small dimensions the experiments actually use; the gamma
# fallback covers the rest.
_SPHERE_AREA = {
    2: 2.0 * math.pi,
    3: 4.0 * math.pi,
    4: 2.0 * math.pi**2,
    5: 8.0 * math.pi**2 / 3.0,
    6: math.pi**3,
    7: 16.0 * math.pi**3 / 15.0,
    8: math.pi**4 / 3.0,
}


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n."""
    if n < 2:
        raise PreconditionViolation(f"dimension must be >= 2, got {n}")
    if n in _SPHERE_AREA:
        return _SPHERE_AREA[n]
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise PreconditionViolation(f"Gamma({n}/2) of |S^{n - 1}| overflows a double") from None


def _require_finite(values, label):
    if not np.all(np.isfinite(values)):
        raise PreconditionViolation(f"{label} contains NaN or infinite entries")


@dataclass(frozen=True)
class ProblemSpec:
    """The equation under study: box u = a|u_t|^p + b|grad u|^p in n dimensions."""

    n_dim: int
    p: float
    a: float = 1.0
    b: float = 0.0

    def __post_init__(self):
        if self.n_dim < 2:
            raise PreconditionViolation(f"n_dim must be >= 2, got {self.n_dim}")
        if not (math.isfinite(self.p) and self.p > 1.0):
            raise PreconditionViolation(f"p must be finite and > 1, got {self.p}")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise PreconditionViolation("coefficients a, b must be finite")

    @property
    def p_critical(self) -> float:
        return 1.0 + 2.0 / (self.n_dim - 1)

    @property
    def s_scaling(self) -> float:
        return self.n_dim / 2.0 + 1.0 - 1.0 / (self.p - 1.0)

    @property
    def regime(self) -> str:
        """Side of the threshold power p lies on: "subcritical", "critical"
        (within 1e-9 of p_critical) or "supercritical"."""
        gap = self.p - self.p_critical
        if abs(gap) <= 1e-9:
            return "critical"
        return "supercritical" if gap > 0.0 else "subcritical"


@dataclass(frozen=True)
class RadialGrid:
    """Uniform nodes r_j = j*dr on [0, r_max]."""

    r_max: float
    num_cells: int

    def __post_init__(self):
        if not (math.isfinite(self.r_max) and self.r_max > 0.0):
            raise PreconditionViolation(f"r_max must be positive, got {self.r_max}")
        if self.num_cells < 16:
            raise PreconditionViolation(f"num_cells must be >= 16, got {self.num_cells}")

    @property
    def spacing(self) -> float:
        return self.r_max / self.num_cells

    @cached_property
    def nodes(self) -> np.ndarray:
        r = np.linspace(0.0, self.r_max, self.num_cells + 1)
        r.flags.writeable = False
        return r


@dataclass(frozen=True)
class RadialField:
    """Nodal values of a radial function on a grid: a read-only copy,
    checked finite once here, so operations on a field do not re-check."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float, copy=True)
        if vals.shape != (self.grid.num_cells + 1,):
            raise PreconditionViolation(
                f"field length {vals.shape} does not match grid "
                f"({self.grid.num_cells + 1} nodes)"
            )
        _require_finite(vals, "radial field")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @staticmethod
    def zeros(grid: RadialGrid) -> "RadialField":
        return RadialField(grid, np.zeros(grid.num_cells + 1))

    @staticmethod
    def from_function(grid: RadialGrid, fn) -> "RadialField":
        return RadialField(grid, fn(grid.nodes))

    def scaled(self, c: float) -> "RadialField":
        return RadialField(self.grid, c * self.values)


@dataclass(frozen=True)
class WaveState:
    """A (u, u_t) snapshot at one time."""

    time: float
    u: RadialField
    v: RadialField

    def __post_init__(self):
        if not (math.isfinite(self.time) and self.time >= 0.0):
            raise PreconditionViolation(f"state time must be finite and >= 0, got {self.time}")
        if self.u.grid != self.v.grid:
            raise PreconditionViolation("u and v must share one grid")

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid


def _read_only(values) -> np.ndarray:
    view = np.asarray(values, dtype=float).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True)
class Trajectory:
    """Samples u[k], v[k] = (u, u_t) at uniformly spaced times[k].

    times has shape (K,) and u, v have shape (K, nodes).  The trajectory
    keeps read-only views of the arrays it is given; they are not copied.
    """

    problem: ProblemSpec
    grid: RadialGrid
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        times = _read_only(self.times)
        if times.ndim != 1 or times.size == 0:
            raise PreconditionViolation("trajectory must contain at least one sample time")
        _require_finite(times, "trajectory times")
        if times[0] < 0.0:
            raise PreconditionViolation(f"sample times must be >= 0, got {times[0]}")
        gaps = np.diff(times)
        if np.any(gaps <= 0.0):
            raise PreconditionViolation("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", times)
        dt = self.dt_sample
        if np.any(np.abs(gaps - dt) > 1e-12 * max(1.0, dt)):
            raise PreconditionViolation("trajectory times must be uniformly spaced")
        shape = (times.size, self.grid.num_cells + 1)
        for name in ("u", "v"):
            values = _read_only(getattr(self, name))
            if values.shape != shape:
                raise PreconditionViolation(
                    f"trajectory {name} has shape {values.shape}, expected {shape} "
                    "(one row of grid nodes per sample time)"
                )
            _require_finite(values, f"trajectory {name}")
            object.__setattr__(self, name, values)

    @property
    def dt_sample(self) -> float:
        """Gap between consecutive sample times; 0 for a single sample."""
        if self.times.size == 1:
            return 0.0
        return float(self.times[-1] - self.times[0]) / (self.times.size - 1)

    @property
    def t_end(self) -> float:
        return float(self.times[-1])


def trajectory_difference(a: Trajectory, b: Trajectory) -> Trajectory:
    """Samplewise a - b; trajectories must share grid and sample times."""
    if a.times.size != b.times.size:
        raise PreconditionViolation("trajectories have different lengths")
    if a.grid != b.grid:
        raise PreconditionViolation("trajectories live on different grids")
    if np.any(np.abs(a.times - b.times) > 1e-9 * np.maximum(1.0, a.times)):
        raise PreconditionViolation("trajectories have different sample times")
    return Trajectory(problem=a.problem, grid=a.grid, times=a.times, u=a.u - b.u, v=a.v - b.v)


@dataclass(frozen=True)
class WeightParams:
    """One concrete choice of local-energy weights and horizon."""

    delta: float
    delta_prime: float
    horizon: float

    def __post_init__(self):
        if not (0.0 < self.delta < 0.5):
            raise PreconditionViolation(f"delta must lie in (0, 1/2), got {self.delta}")
        if not self.delta_prime < self.delta:
            raise PreconditionViolation(
                f"delta_prime must be < delta, got {self.delta_prime} >= {self.delta}"
            )
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise PreconditionViolation(f"horizon must be positive, got {self.horizon}")


def weight_exponents(spec: ProblemSpec, s1: float = None, s2: float = None) -> tuple:
    """(delta, delta_prime) for the lifespan regime of spec.

    supercritical: requires 1/2 <= s1 < n/2 - 1/(p-1) < s2 <= 1.
    critical: s2 in (1/2, 1] (s1 is pinned to 1/2); the log-weighted term
    governs and delta_prime = delta is reported.
    subcritical: s1, s2 are ignored.
    """
    n, p, regime = spec.n_dim, spec.p, spec.regime
    if regime == "supercritical":
        if s1 is None or s2 is None:
            raise PreconditionViolation("supercritical regime needs s1 and s2")
        pivot = n / 2.0 - 1.0 / (p - 1.0)
        if not (0.5 <= s1 < pivot < s2 <= 1.0):
            raise PreconditionViolation(
                f"(s1, s2)=({s1}, {s2}) violates 1/2 <= s1 < {pivot:.6g} < s2 <= 1"
            )
        delta = (n - 2.0 * s2) * (p - 1.0) / 4.0
        delta_prime = (1.0 - (s2 - s1) * (p - 1.0)) / 2.0
    elif regime == "critical":
        s = 1.0 if s2 is None else s2
        if not (0.5 < s <= 1.0):
            raise PreconditionViolation(f"critical regime needs s in (1/2, 1], got {s}")
        delta = (n - 2.0 * s) * (p - 1.0) / 4.0
        delta_prime = delta
    else:
        if p < 1.0 + 1.0 / (n - 1):
            delta = (n - 1) * (p - 1.0) / 2.0
        else:
            delta = (n - 1) * (p - 1.0) / 4.0
        delta_prime = 0.0

    if not (0.0 < delta < 0.5):
        raise PreconditionViolation(f"derived delta {delta:.6g} escapes (0, 1/2)")
    if regime == "supercritical" and not delta_prime < delta:
        raise PreconditionViolation("derived delta_prime >= delta")
    return delta, delta_prime


# ---------------------------------------------------------------------------
# discrete radial calculus
# ---------------------------------------------------------------------------

def _derivative_values(values: np.ndarray, dr: float, out: np.ndarray = None) -> np.ndarray:
    """Second-order d/dr: centred inside, one-sided at both ends."""
    if out is None:
        out = np.empty_like(values)
    inner = np.subtract(values[2:], values[:-2], out=out[1:-1])
    inner /= 2.0 * dr
    # the end rows in Python floats: the same IEEE operations as on numpy
    # scalars, without their per-operation cost
    a0, a1, a2 = values[:3].tolist()
    b2, b1, b0 = values[-3:].tolist()
    out[0] = (-3.0 * a0 + 4.0 * a1 - a2) / (2.0 * dr)
    out[-1] = (3.0 * b0 - 4.0 * b1 + b2) / (2.0 * dr)
    return out


@lru_cache(maxsize=64)
def _flux_weights(grid: RadialGrid, n: int):
    """The flux-form coefficients (c_plus, c_minus) of _laplacian_values,
    read-only.

    Row j (j < N) is c_plus[j] (u[j+1] - u[j]) - c_minus[j-1] (u[j] - u[j-1]),
    with c_plus = r_{j+1/2}^(n-1) / (V_j dr), c_minus = r_{j-1/2}^(n-1) / (V_j dr)
    and the shell volume V_j = (r_{j+1/2}^n - r_{j-1/2}^n) / n, r_{-1/2} = 0;
    c_minus holds rows 1..N-1.  They are written through q = r_{j-1/2}/r_{j+1/2}
    so that no power of r is formed and every n keeps them finite:
    c_plus = n / (r_{j+1/2} (1 - q^n) dr), c_minus = c_plus q^(n-1).
    Row 0 is the origin's 2n/dr^2 (q = 0).
    """
    dr = grid.spacing
    half = np.arange(1, grid.num_cells) + 0.5
    log_q = np.log1p(-1.0 / half)
    c_plus = np.empty(grid.num_cells)
    c_plus[0] = 2.0 * n / dr**2
    one_minus_qn = -np.expm1(n * log_q)
    c_plus[1:] = n / (half * dr * one_minus_qn * dr)
    c_minus = c_plus[1:] * np.exp((n - 1) * log_q)
    c_plus.flags.writeable = False
    c_minus.flags.writeable = False
    return c_plus, c_minus


def _flux_stencil(values: np.ndarray, c_plus: np.ndarray, c_minus: np.ndarray,
                  out: np.ndarray, work: np.ndarray):
    """A function that writes rows 0..N-1 of the flux-form Laplacian (see
    _flux_weights) of the current `values` into out[:-1], leaving out[-1]
    untouched.

    It runs four passes over one difference row: diff, scale by c_plus, scale
    by c_minus, subtract.  The row views are built here, once, so a caller
    that applies the stencil to the same rows many times pays no slicing per
    call.  `work` is a scratch row; neither it nor `out` may share memory
    with `values`.
    """
    hi, lo = values[1:], values[:-1]
    diff, head = work[:-1], work[:-2]
    out_head, out_mid = out[:-1], out[1:-1]

    def apply():
        np.subtract(hi, lo, out=diff)
        np.multiply(diff, c_plus, out=out_head)
        np.multiply(head, c_minus, out=head)
        np.subtract(out_mid, head, out=out_mid)

    return apply


def _laplacian_values(values: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Radial Laplacian in flux (summation-by-parts) form: rows 0..N-1 as in
    _flux_weights, one-sided at the outer node.

    With the shell volumes V_j, the free wave conserves the discrete energy
    (1/2) (sum_j V_j v_j^2 + sum_j r_{j+1/2}^(n-1) (u[j+1] - u[j])^2 / dr)
    exactly in time-continuous form, for every n.  Rows 0..N-1 are
    _flux_stencil's; callers that apply it many times use that directly.
    """
    out = np.empty_like(values)
    _flux_stencil(values, *_flux_weights(grid, n), out, np.empty_like(values))()
    dr = grid.spacing
    out[-1] = (
        2.0 * values[-1] - 5.0 * values[-2] + 4.0 * values[-3] - values[-4]
    ) / dr**2 + ((n - 1) / grid.r_max) * (
        3.0 * values[-1] - 4.0 * values[-2] + values[-3]
    ) / (2.0 * dr)
    return out


def radial_derivative(f: RadialField) -> RadialField:
    """Second-order d/dr: centered inside, one-sided at both ends."""
    return RadialField(f.grid, _derivative_values(f.values, f.grid.spacing))


def radial_laplacian(f: RadialField, n: int) -> RadialField:
    """Radial Laplacian f'' + (n-1)/r f' in flux form (see _laplacian_values),
    with the n f''(0) origin limit."""
    if n < 2:
        raise PreconditionViolation(f"dimension must be >= 2, got {n}")
    return RadialField(f.grid, _laplacian_values(f.values, f.grid, n))


# ---------------------------------------------------------------------------
# weighted quadrature
# ---------------------------------------------------------------------------

def _power_cell(dr: float, m: float) -> float:
    # int_0^dr r^m dr for m > -1
    if m <= -1.0:
        raise NonIntegrable(f"radial power r^{m:.4g} is not integrable at the origin")
    return dr ** (m + 1.0) / (m + 1.0)


@lru_cache(maxsize=64)
def _quadrature_weight(grid: RadialGrid, q: float, nu: float) -> np.ndarray:
    """r^q <r>^(2nu) at the nodes r_j, j >= 1, read-only; the norms ask for
    the same few weights on every state of a trajectory."""
    tail = grid.nodes[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        weight = tail**q * (1.0 + tail**2) ** nu
    _require_finite(weight, f"weight r^{q:.4g} <r>^{2.0 * nu:.4g} on [0, {grid.r_max:.4g}]")
    weight.flags.writeable = False
    return weight


def _weighted_square_integral(values, grid, n, mu, nu, inv_r_coeff=0.0):
    """A_{n-1} * int_0^rmax r^(2mu) <r>^(2nu) f(r)^2 r^(n-1) dr.

    values[0] holds the regular part of f at the origin; a nonzero
    inv_r_coeff alpha declares f ~ alpha/r + regular there.  Composite
    trapezoid everywhere, except that the first cell is integrated against
    the exact power weight whenever the integrand is unbounded at r = 0.
    """
    dr = grid.spacing
    q = 2.0 * mu + (n - 1)
    if q <= -1.0:
        raise NonIntegrable(f"weight exponent 2mu + n - 1 = {q:.4g} <= -1")

    g = _quadrature_weight(grid, q, nu) * np.asarray(values)[1:] ** 2
    total = dr * (0.5 * g[0] + g[1:-1].sum() + 0.5 * g[-1])

    if inv_r_coeff != 0.0:
        # f ~ alpha/r + beta on the first cell, beta matched at the first node
        alpha = inv_r_coeff
        beta = values[1] - alpha / dr
        first = (
            alpha**2 * _power_cell(dr, q - 2.0)
            + 2.0 * alpha * beta * _power_cell(dr, q - 1.0)
            + beta**2 * _power_cell(dr, q)
        )
    elif q < -1e-12:
        # integrand unbounded at r = 0: integrate a linear field model exactly
        c0 = values[0]
        c1 = (values[1] - values[0]) / dr
        first = (
            c0**2 * _power_cell(dr, q)
            + 2.0 * c0 * c1 * _power_cell(dr, q + 1.0)
            + c1**2 * _power_cell(dr, q + 2.0)
        )
    elif abs(q) <= 1e-12:
        # finite limiting integrand f(0)^2 at the origin
        first = 0.5 * dr * (values[0] ** 2 + g[0])
    else:
        # limiting integrand 0 at the origin
        first = 0.5 * dr * g[0]

    return sphere_area(n) * (total + first)


def weighted_l2(f: RadialField, n: int, mu: float, nu: float) -> float:
    """|| r^mu <r>^nu f ||_{L^2(R^n)} by weight-aware composite trapezoid."""
    if mu <= -n / 2.0:
        raise PreconditionViolation(f"mu must exceed -n/2 = {-n / 2.0}, got {mu}")
    return math.sqrt(_weighted_square_integral(f.values, f.grid, n, mu, nu))


def weighted_sup(f: RadialField, n: int, power: float) -> float:
    """A_{n-1}^{1/2} * max_{j>=1} r_j^power |f(r_j)|."""
    weight = _quadrature_weight(f.grid, power, 0.0)
    return math.sqrt(sphere_area(n)) * float(np.max(weight * np.abs(f.values[1:])))


# ---------------------------------------------------------------------------
# data and energy norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaNorms:
    lambda1: float
    lambda2: float


def lambda_norms(u0: RadialField, u1: RadialField, n: int) -> LambdaNorms:
    """Homogeneous data sizes: grad/time pieces at first and second order."""
    du0 = weighted_l2(radial_derivative(u0), n, 0.0, 0.0)
    n_u1 = weighted_l2(u1, n, 0.0, 0.0)
    lap_u0 = weighted_l2(radial_laplacian(u0, n), n, 0.0, 0.0)
    du1 = weighted_l2(radial_derivative(u1), n, 0.0, 0.0)
    return LambdaNorms(lambda1=du0 + n_u1, lambda2=lap_u0 + du1)


@dataclass(frozen=True)
class EnergyNorms:
    e1: float
    e2: float


def _energy_integral(v: np.ndarray, du: np.ndarray, grid: RadialGrid, n: int) -> float:
    """int (v^2 + u_r^2) over R^n, given nodal v and u_r (e_norms also passes
    v_r and lap u, for the second-order energy)."""
    return _weighted_square_integral(v, grid, n, 0.0, 0.0) + _weighted_square_integral(
        du, grid, n, 0.0, 0.0
    )


def _slopes(u: np.ndarray, v: np.ndarray, grid: RadialGrid, n: int):
    dr = grid.spacing
    du = _derivative_values(u, dr)
    dv = _derivative_values(v, dr)
    lap = _laplacian_values(u, grid, n)
    return du, dv, lap


def e_norms(traj: Trajectory, t_max: float = None) -> EnergyNorms:
    """Sup-in-time energy norms of first and second order."""
    n = traj.problem.n_dim
    grid = traj.grid
    e1 = 0.0
    e2 = 0.0
    for t, u, v in zip(traj.times, traj.u, traj.v):
        if t_max is not None and t > t_max + 1e-9 * max(1.0, t_max):
            break
        du, dv, lap = _slopes(u, v, grid, n)
        e1 = max(e1, math.sqrt(_energy_integral(v, du, grid, n)))
        e2 = max(e2, math.sqrt(_energy_integral(dv, lap, grid, n)))
    return EnergyNorms(e1=e1, e2=e2)


# ---------------------------------------------------------------------------
# local energy norms
# ---------------------------------------------------------------------------

def _integrate_to_horizon(times: np.ndarray, series: np.ndarray, horizon: float) -> float:
    """Trapezoid of series(t) over [0, horizon], interpolating the last cell."""
    tol = 1e-9 * max(1.0, horizon)
    if times[-1] < horizon - tol:
        raise HorizonMismatch(
            f"trajectory ends at t={times[-1]:.6g} before horizon T={horizon:.6g}"
        )
    inside = times <= horizon + tol
    t_in = times[inside]
    y_in = series[inside]
    total = float(np.trapezoid(y_in, t_in))
    if t_in[-1] < horizon - tol:
        y_end = float(np.interp(horizon, times, series))
        total += 0.5 * (horizon - t_in[-1]) * (y_in[-1] + y_end)
    return total


@dataclass(frozen=True)
class LocalEnergyNorm:
    total: float
    components: dict


def _le_squares(du_abs, u_abs, grid, n, w):
    """One state's squared local-energy terms: deriv, field (n >= 3 only), log
    and horizon, from the gradient magnitude du_abs and the field |u|."""
    d, dp = w.delta, w.delta_prime
    terms = [_weighted_square_integral(du_abs, grid, n, -d, -0.5 + dp)]
    comp, alpha = du_abs, 0.0
    if n >= 3:
        alpha = u_abs[0]
        comp = du_abs.copy()
        comp[1:] += u_abs[1:] / grid.nodes[1:]
        terms.append(_weighted_square_integral(u_abs, grid, n, -1.0 - d, -0.5 + dp))
    terms.append(_weighted_square_integral(comp, grid, n, -d, -0.5 + d, inv_r_coeff=alpha))
    terms.append(_weighted_square_integral(comp, grid, n, -d, 0.0, inv_r_coeff=alpha))
    return terms


def _time_norms(times, rows, horizon):
    """sqrt(int_0^horizon) of each column, where rows[k] holds the terms at times[k]."""
    return [math.sqrt(_integrate_to_horizon(times, col, horizon))
            for col in np.array(rows).T]


def le_norm(traj: Trajectory, w: WeightParams, second_order: bool = False) -> LocalEnergyNorm:
    """Local energy norm over [0, T]: weighted derivative term, weighted field
    term, log-in-T term and T-power term (only derivative terms when n <= 2).

    With second_order the norm is applied to the spatial gradient: time slot
    d_r v, gradient slot lap u, field slot d_r u.
    """
    n = traj.problem.n_dim
    grid = traj.grid
    rows = []
    for u, v in zip(traj.u, traj.v):
        if second_order:
            du, dv, lap = _slopes(u, v, grid, n)
            rows.append(_le_squares(np.sqrt(dv**2 + lap**2), np.abs(du), grid, n, w))
        else:
            du = _derivative_values(u, grid.spacing)
            rows.append(_le_squares(np.sqrt(v**2 + du**2), np.abs(u), grid, n, w))
    names = ("deriv", "field", "log", "horizon") if n >= 3 else ("deriv", "log", "horizon")
    scale = {"log": math.log(2.0 + w.horizon) ** -0.5, "horizon": w.horizon ** (w.delta - 0.5)}
    comps = {name: scale.get(name, 1.0) * norm
             for name, norm in zip(names, _time_norms(traj.times, rows, w.horizon))}
    return LocalEnergyNorm(total=sum(comps.values()), components=comps)


@dataclass(frozen=True)
class NormReport:
    """Energy and local-energy norms of one trajectory."""

    e1: float
    e2: float
    le1: float
    le2: float
    components: dict


def norm_report(traj: Trajectory, w: WeightParams) -> NormReport:
    e = e_norms(traj, t_max=w.horizon)
    first = le_norm(traj, w)
    second = le_norm(traj, w, second_order=True)
    return NormReport(
        e1=e.e1, e2=e.e2, le1=first.total, le2=second.total, components=first.components
    )


def lestar_upper(forcing_traj: Trajectory, w: WeightParams) -> float:
    """Upper bound on the dual-space source norm: minimum over the three
    single-term decompositions of the forcing (held in the u slot)."""
    n = forcing_traj.problem.n_dim
    d, dp, horizon = w.delta, w.delta_prime, w.horizon
    grid = forcing_traj.grid
    rows = []
    for u in forcing_traj.u:
        vals = np.abs(u)
        rows.append([_weighted_square_integral(vals, grid, n, d, nu)
                     for nu in (0.5 - dp, 0.5 - d, 0.0)])
    a, b, c = _time_norms(forcing_traj.times, rows, horizon)
    return min(a, math.sqrt(math.log(2.0 + horizon)) * b, horizon ** (0.5 - d) * c)
