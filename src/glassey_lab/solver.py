"""Radial wave propagation: method-of-lines evolution of
u_tt = lap u + a|u_t|^p + b|u_r|^p + F, the RK4 step bound of the stencil,
the exact n=3 free-wave oracle, and blow-up detection.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ProblemSpec,
    RadialField,
    RadialGrid,
    Trajectory,
    _derivative_values,
    _flux_stencil,
    _flux_weights,
    _read_only,
    _require_finite,
)
from .errors import (
    PreconditionViolation,
    RangeViolation,
    StepUnderflow,
    SupportOverflow,
)

BLOWUP_THRESHOLD = 1e6
# the one step of evolve and of every subcommand.  RK4's time error there is
# far below the grid's error and the gap between a lifespan ladder's two
# rungs, and the step is inside the stencil's bound for n <= 15.  A sample
# every DEFAULT_STRIDE * DEFAULT_CFL * dr = 2.5 dr keeps the sample times of
# cfl 0.25 with stride 10: a Picard solve interpolates its forcing N[u]
# between them, and their spacing, not the RK4 step, sets its time error
# (README, "Time step")
DEFAULT_CFL = 0.5
DEFAULT_STRIDE = 5
CAUSALITY_MARGIN = 2.0
VANISH_FACTOR = 1e-14

_FAMILIES = ("gaussian", "smooth_bump", "from_file")
_ASSIGNS = ("to_u0", "to_u1", "split")
FILE_HEADER = "# radial-field v1"


@dataclass(frozen=True)
class DataProfile:
    """Initial-data template: a shape family scaled by the amplitude epsilon."""

    family: str
    epsilon: float
    width: float = 1.0
    center: float = 0.0
    assigns: str = "to_u0"
    path: str = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise PreconditionViolation(f"unknown profile family {self.family!r}")
        if self.assigns not in _ASSIGNS:
            raise PreconditionViolation(f"unknown assigns {self.assigns!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise PreconditionViolation(f"epsilon must be >= 0, got {self.epsilon}")
        if not (math.isfinite(self.width) and self.width > 0.0):
            raise PreconditionViolation(f"width must be positive, got {self.width}")
        if not (math.isfinite(self.center) and self.center >= 0.0):
            raise PreconditionViolation(f"center must be >= 0, got {self.center}")
        if self.family == "from_file" and not self.path:
            raise PreconditionViolation("from_file profile needs a path")


def _bump_shape(r: np.ndarray, center: float, width: float) -> np.ndarray:
    xi = (r - center) / width
    out = np.zeros_like(r)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    return out


def _load_field_file(path: str, grid: RadialGrid) -> np.ndarray:
    # scipy is imported here, in exact_free_n3 and in stable_cfl only: it is
    # most of the package's import time and memory, and no other path needs it
    from scipy.interpolate import PchipInterpolator

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionViolation(f"{path}: cannot read the data file: {exc}") from None
    if not lines or lines[0] != FILE_HEADER:
        raise PreconditionViolation(f"{path}: first line must be {FILE_HEADER!r}")
    rs, vals = [], []
    for row, ln in enumerate(lines[1:], start=2):
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise PreconditionViolation(f"{path}: expected 'r value' rows, got {ln!r}")
        try:
            rs.append(float(parts[0]))
            vals.append(float(parts[1]))
        except ValueError:
            raise PreconditionViolation(f"{path}: row {row} is not two numbers: {ln!r}") from None
    rs = np.array(rs)
    vals = np.array(vals)
    if rs.size < 4:
        raise PreconditionViolation(f"{path}: need at least 4 samples")
    _require_finite(rs, f"{path} radii")
    if abs(rs[0]) > 1e-12:
        raise PreconditionViolation(f"{path}: radii must start at r = 0")
    # a first radius within 1e-12 of 0 is the origin; left as read, a positive
    # one would leave the node r = 0 outside the samples, reading 0
    rs[0] = 0.0
    if np.any(rs[1:] <= rs[:-1]):
        raise PreconditionViolation(f"{path}: radii must be strictly increasing")
    _require_finite(vals, f"{path} values")
    # gaps or slopes near the double range overflow inside the interpolant:
    # scipy refuses the non-finite slopes, and nodes they reach read NaN
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            interp = PchipInterpolator(rs, vals, extrapolate=False)
        except ValueError as exc:
            raise PreconditionViolation(f"{path}: cannot interpolate: {exc}") from None
        out = interp(grid.nodes)
    out[grid.nodes > rs[-1]] = 0.0
    _require_finite(out, f"{path} interpolated values")
    return out


@dataclass(frozen=True)
class ProfileData:
    u0: RadialField
    u1: RadialField


def make_profile(profile: DataProfile, grid: RadialGrid) -> ProfileData:
    """Realize a data template on a grid; rejects data reaching the boundary."""
    r = grid.nodes
    if profile.family == "gaussian":
        shape = np.exp(-(((r - profile.center) / profile.width) ** 2))
        edge = math.exp(-(((grid.r_max - profile.center) / profile.width) ** 2))
        if edge > 1e-16:
            raise SupportOverflow(
                f"gaussian tail {edge:.3g} at r_max exceeds 1e-16 of peak"
            )
    elif profile.family == "smooth_bump":
        if profile.center + profile.width >= grid.r_max:
            raise SupportOverflow("bump support reaches the outer boundary")
        shape = _bump_shape(r, profile.center, profile.width)
    else:
        shape = _load_field_file(profile.path, grid)
        peak = np.max(np.abs(shape)) or 1.0
        if abs(shape[-1]) > VANISH_FACTOR * peak:
            raise SupportOverflow("file data does not vanish before r_max")

    data = profile.epsilon * shape
    if abs(data[-1]) > VANISH_FACTOR * profile.epsilon:
        raise SupportOverflow("data does not vanish before r_max")
    zero = np.zeros_like(data)
    u0 = data if profile.assigns in ("to_u0", "split") else zero
    u1 = data if profile.assigns in ("to_u1", "split") else zero
    return ProfileData(u0=RadialField(grid, u0), u1=RadialField(grid, u1))


def support_radius(u0: RadialField, u1: RadialField) -> float:
    """Largest node radius at which the data is not numerically negligible."""
    mags = np.maximum(np.abs(u0.values), np.abs(u1.values))
    peak = float(np.max(mags))
    if peak == 0.0:
        return 0.0
    live = np.nonzero(mags > VANISH_FACTOR * peak)[0]
    return float(u0.grid.nodes[live[-1]]) if live.size else 0.0


@functools.lru_cache(maxsize=64)
def _power_cut(p: float) -> float:
    """Smallest x with np.power(x, p) >= DBL_MIN, for p > 1."""
    tiny = np.finfo(float).tiny
    x = np.array([tiny ** (1.0 / p)])
    while np.power(np.nextafter(x, 0.0), p)[0] >= tiny:
        x = np.nextafter(x, 0.0)
    while np.power(x, p)[0] < tiny:
        x = np.nextafter(x, np.inf)
    return float(x[0])


def _flush_scratch(size: int, p: float) -> tuple:
    """(work row, dead mask, live mask, cut) for _add_nonlinearity on rows of
    `size` nodes, so a caller that applies it many times allocates them and
    looks up the cut of |.|^p once."""
    return np.empty(size), np.empty(size, bool), np.empty(size, bool), _power_cut(p)


def _add_flushed_power(out: np.ndarray, x: np.ndarray, coef: float, p: float,
                       scratch: tuple) -> None:
    """out += coef * x**p for x >= 0, overwriting x, with powers below DBL_MIN
    set to 0.

    np.power is up to ~60x slower on arguments whose result underflows (the
    far tail of the data), and a subnormal term cannot move a sum of
    normal-range values, so those entries skip the power.  NaN and inf are
    not below the cut and still pass through np.power.  x * 1.0 == x
    bitwise, so a unit coefficient skips its scale.
    """
    _, dead, live, cut = scratch
    np.less(x, cut, out=dead)
    np.logical_not(dead, out=live)
    np.power(x, p, out=x, where=live)
    np.copyto(x, 0.0, where=dead)
    if coef != 1.0:
        x *= coef
    out += x


def _add_nonlinearity(out: np.ndarray, u: np.ndarray, v: np.ndarray, dr: float,
                      spec: ProblemSpec, scratch: tuple = None) -> None:
    """out += a|v|^p, then out += b|u_r|^p, in place; a zero coefficient
    skips its term, and |.|^p below DBL_MIN counts as 0 (see
    _add_flushed_power).  `scratch` is a _flush_scratch for rows like `out`."""
    if scratch is None:
        scratch = _flush_scratch(out.size, spec.p)
    work = scratch[0]
    if spec.a != 0.0:
        np.abs(v, out=work)
        _add_flushed_power(out, work, spec.a, spec.p, scratch)
    if spec.b != 0.0:
        np.abs(_derivative_values(u, dr, out=work), out=work)
        _add_flushed_power(out, work, spec.b, spec.p, scratch)


def sampled_nonlinearity(traj: Trajectory) -> LinearSeries:
    """N[u] on the trajectory's sample times, linearly interpolated between."""
    fields = np.zeros_like(traj.u)
    scratch = _flush_scratch(fields.shape[1], traj.problem.p)
    for row, u, v in zip(fields, traj.u, traj.v):
        _add_nonlinearity(row, u, v, traj.grid.spacing, traj.problem, scratch)
    return LinearSeries(traj.times, fields)


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "completed" | "blew_up"
    trajectory: Trajectory
    t_blowup: float
    peak_gradient: float


class LinearSeries:
    """Piecewise-linear-in-time nodal forcing built from sampled fields.

    `fields` is a read-only view of the array given (not a copy); outside the
    sample range a call returns its first or last row itself, inside it a
    new row (1-w) f[k] + w f[k+1].  The term w f[k+1] goes through a scratch
    row of the series, so that row is the call's one allocation and a series
    must not be called from two threads at once.
    """

    def __init__(self, times, fields):
        times = np.asarray(times, dtype=float)
        self.fields = _read_only(fields)
        if times.ndim != 1 or self.fields.shape[0] != times.size:
            raise PreconditionViolation("times and fields are inconsistent")
        # a list of Python floats: the cell search and the weight give the
        # same bits as with numpy scalars, at a fraction of the per-call cost
        self.times = times.tolist()
        self._term = np.empty(self.fields.shape[1:])

    def __call__(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.fields[0]
        if t >= ts[-1]:
            return self.fields[-1]
        k = bisect.bisect_left(ts, t) - 1
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        out = np.multiply(self.fields[k], 1.0 - w)
        # f * w == w * f bitwise
        out += np.multiply(self.fields[k + 1], w, out=self._term)
        return out


def step_count(t_end: float, grid: RadialGrid, cfl: float, sample_stride: int) -> int:
    """The RK4 steps `evolve` takes to reach t_end > 0 on grid: the fewest
    with dt <= cfl*dr, rounded up to a multiple of sample_stride."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise PreconditionViolation(f"t_end must be >= 0, got {t_end}")
    if not (0.0 < cfl <= 0.75):
        raise PreconditionViolation(f"cfl must lie in (0, 0.75], got {cfl}")
    if sample_stride < 1:
        raise PreconditionViolation("sample_stride must be >= 1")
    nsteps = max(1, math.ceil(t_end / (cfl * grid.spacing)))
    return sample_stride * math.ceil(nsteps / sample_stride)


# RK4's stability interval on the imaginary axis: |omega dt| < 2 sqrt(2)
RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)


@functools.lru_cache(maxsize=64)
def stable_cfl(grid: RadialGrid, n: int) -> float:
    """The largest stable RK4 step of the n-dimensional flux stencil on grid,
    2 sqrt(2) / (omega_max dr), in units of dr.

    The stencil on nodes 0..N-1 (the outer node is clamped) is tridiagonal and
    symmetric in the shell-volume inner product; symmetrised, its diagonal is
    -(c+_j + c-_{j-1}) and its off-diagonal sqrt(c+_j c-_j), and omega_max^2
    is minus its smallest eigenvalue.  Scaled by dr^2 so the entries are O(n).
    """
    from scipy.linalg import eigvalsh_tridiagonal

    dr2 = grid.spacing ** 2
    c_plus, c_minus = _flux_weights(grid, n)
    diag = -dr2 * c_plus
    diag[1:] -= dr2 * c_minus
    off = dr2 * np.sqrt(c_plus[:-1] * c_minus)
    lowest = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
    return RK4_STABILITY_LIMIT / math.sqrt(-lowest)


def require_stable_step(grid: RadialGrid, n: int, cfl: float) -> None:
    """Refuse a cfl at or past stable_cfl(grid, n), where RK4 itself blows up.

    Gershgorin bounds (omega_max dr)^2 by 4n (the origin row), so a cfl below
    sqrt(2/n) is stable without the eigenvalue solve (or the scipy import).
    """
    if cfl < math.sqrt(2.0 / n):
        return
    bound = stable_cfl(grid, n)
    if not cfl < bound:
        raise PreconditionViolation(
            f"cfl {cfl:.6g} is at or past the RK4 stability bound {bound:.6g} = "
            f"2*sqrt(2)/(omega_max dr) of the n = {n} stencil on {grid.num_cells} "
            f"cells; pass a cfl (--cfl) below it"
        )


def evolve(
    spec: ProblemSpec,
    u0: RadialField,
    u1: RadialField,
    grid: RadialGrid,
    t_end: float,
    forcing=None,
    linear_only: bool = False,
    cfl: float = DEFAULT_CFL,
    sample_stride: int = DEFAULT_STRIDE,
    forcing_support: float = 0.0,
) -> SolveOutcome:
    """March (u, v) with classical RK4 at dt = t_end / step_count(...) <= cfl*dr.

    Neumann symmetry closes the origin, the outer node is clamped, and the
    causality precondition keeps the boundary causally inert.  The run aborts
    as blown-up the first time max(|v|, |u_r|) passes BLOWUP_THRESHOLD or any
    value stops being finite; numpy's overflow and invalid-value warnings are
    silenced while stepping, so that detector is the one report.  A cfl that
    RK4 cannot take on this stencil is refused (require_stable_step), so a
    reported blow-up is not RK4's own instability.
    `forcing(t)` is called once per distinct stage time: t, t + dt/2, t + dt,
    where a step's t that equals the previous step's t + dt bit for bit
    reuses that row.
    """
    if u0.grid != grid or u1.grid != grid:
        raise PreconditionViolation("data must live on the target grid")
    nsteps = step_count(t_end, grid, cfl, sample_stride)
    require_stable_step(grid, spec.n_dim, cfl)

    reach = max(support_radius(u0, u1), forcing_support)
    if reach + t_end + CAUSALITY_MARGIN > grid.r_max:
        raise PreconditionViolation(
            f"causality: support {reach:.3g} + t_end {t_end:.3g} + "
            f"{CAUSALITY_MARGIN} exceeds r_max {grid.r_max:.3g}"
        )

    if t_end == 0.0:
        traj = Trajectory(spec, grid, np.zeros(1), u0.values[None], u1.values[None])
        return SolveOutcome("completed", traj, None, 0.0)

    dr = grid.spacing
    dt = t_end / nsteps
    if dt < 1e-12:
        raise StepUnderflow(f"dt = {dt:.3g} below 1e-12")

    nonlinear = not linear_only and (spec.a != 0.0 or spec.b != 0.0)
    nodes = grid.num_cells + 1
    # looked up once per run: each lookup hashes the grid
    c_plus, c_minus = _flux_weights(grid, spec.n_dim)
    scratch = _flush_scratch(nodes, spec.p)
    work = scratch[0]

    # the state y = (u, v) as one (2, nodes) array, so every stage build and
    # the update run once over both rows; u and v are views of its rows
    y = np.stack((u0.values, u1.values))
    u, v = y
    # Z[i] = (u_i, v_i, a_i) for stage i: its state is Z[i, :2] and its slope
    # (u_t, u_tt) is Z[i, 1:], so a slope's u-row is its stage's v-row.  Both
    # slope rows are clamped at the outer node.  Clamping v_i there is
    # harmless: only the a-term reads it, into a_i[-1], which is clamped too.
    # Stage 1's state is y itself, whose v[-1] keeps its data value, so
    # Z[0, 1] is a copy of v and Z[0, 0] is unused.  Zeroed so the skipped
    # outer row of a_i holds a finite value before its clamp.
    Z = np.zeros((4, 3, nodes))
    slopes = [Z[i, 1:] for i in range(4)]
    k1, k2, k3, k4 = slopes
    k23 = Z[1:3, 1:]
    outer = Z[:, 1:, -1]
    stage_rows = [(u, v, Z[0, 2])] + [tuple(Z[i]) for i in (1, 2, 3)]
    stencils = [_flux_stencil(su, c_plus, c_minus, acc, work)
                for su, _, acc in stage_rows]

    def rhs(i, source):
        """Stage i's slope from its state plus the forcing row `source` (None
        without forcing), clamped at the outer node."""
        su, sv, acc = stage_rows[i]
        stencils[i]()
        if nonlinear:
            _add_nonlinearity(acc, su, sv, dr, spec, scratch)
        if source is not None:
            acc += source
        outer[i] = 0.0

    # the blow-up size max(max|v|, max|u_r|) in four array calls: |v| and
    # |du| share one (2, nodes) scratch and one max, where du is u_r times
    # 2 dr.  A correctly rounded division by 2 dr > 0 is monotone, so
    # dividing the max gives the max of the divided row.  Each row's max
    # propagates NaN as np.max does, and so does their combination: Python's
    # max(vmax, NaN) would return vmax, so a NaN gradient max is returned as is
    sizes = np.empty((2, nodes))
    v_abs, du = sizes
    du_inner, u_hi, u_lo = du[1:-1], u[2:], u[:-2]
    head, tail = u[:3].tolist, u[-3:].tolist
    two_dr = 2.0 * dr

    def size():
        np.abs(v, out=v_abs)
        np.subtract(u_hi, u_lo, out=du_inner)
        a0, a1, a2 = head()
        b2, b1, b0 = tail()
        du[0] = -3.0 * a0 + 4.0 * a1 - a2
        du[-1] = 3.0 * b0 - 4.0 * b1 + b2
        np.abs(du, out=du)
        vmax, dmax = sizes.max(axis=1).tolist()
        gmax = dmax / two_dr
        return gmax if math.isnan(gmax) else max(vmax, gmax)

    # one row per sample; a blow-up trims the buffer to the rows written
    rows = nsteps // sample_stride + 1
    times = np.empty(rows)
    us = np.empty((rows, nodes))
    vs = np.empty((rows, nodes))
    times[0], us[0], vs[0] = 0.0, u, v
    stored = 1
    status, t_blow = "completed", None

    # RK4 in the operation order of
    #   k2 = f(t + dt/2, y + (dt/2) k1), k3 = f(t + dt/2, y + (dt/2) k2),
    #   k4 = f(t + dt, y + dt k3),  y += (dt/6) (k1 + 2 k2 + 2 k3 + k4)
    # so the buffered loop gives the same bits as the plain formulas
    # stage i + 1's state is y + h k_i
    builds = list(zip((0.5 * dt, 0.5 * dt, dt), slopes, (Z[i, :2] for i in (1, 2, 3))))
    sixth = dt / 6.0
    t = 0.0
    # `source` is the forcing row at time t_source
    source, t_source = None, None
    with np.errstate(over="ignore", invalid="ignore"):
        # data near the double range overflows the one-sided origin row
        peak = size()
        for k in range(nsteps):
            if forcing is not None and t != t_source:
                source = forcing(t)
            np.copyto(k1[0], v)
            rhs(0, source)
            for i, (h, slope, state) in enumerate(builds, start=1):
                np.multiply(slope, h, out=state)
                state += y
                # k2 and k3 share the stage time t + dt/2, so its row is reused
                if forcing is not None and i != 2:
                    t_source = t + h
                    source = forcing(t_source)
                rhs(i, source)
            # k2 and k3 doubled in one call; the sum keeps its written order
            k23 *= 2.0
            k2 += k1
            k2 += k3
            k2 += k4
            k2 *= sixth
            y += k2
            t = (k + 1) * dt

            now = size()
            if not math.isfinite(now) or now > BLOWUP_THRESHOLD:
                status, t_blow = "blew_up", t
                peak = max(peak, now) if math.isfinite(now) else math.inf
                break
            peak = max(peak, now)
            if (k + 1) % sample_stride == 0:
                times[stored], us[stored], vs[stored] = t, u, v
                stored += 1

    traj = Trajectory(spec, grid, times[:stored], us[:stored], vs[:stored])
    return SolveOutcome(status, traj, t_blow, peak)


def exact_free_n3(
    u0: RadialField, u1: RadialField, t: float, grid: RadialGrid
) -> tuple:
    """The pair (u, v) of RadialFields of the exact n=3 free radial wave at
    time t, via the reduction of r*u to a line wave.

    With PHI(s) = s*phi(s) and PSI(s) = s*psi(s) extended oddly,
    r u(t,r) = [PHI(r+t) + PHI(r-t)]/2 + (1/2) int_{r-t}^{r+t} PSI, and
    u(t,0) = PHI'(t) + PSI(t).  Cubic interpolation supplies phi and psi off
    the nodes; beyond r_max the data must have vanished, in which case the
    extensions are zero there.
    """
    from scipy.interpolate import CubicSpline

    if u0.grid != grid or u1.grid != grid:
        raise PreconditionViolation("data must live on the target grid")
    if not (math.isfinite(t) and t >= 0.0):
        raise PreconditionViolation(f"t must be >= 0, got {t}")

    r = grid.nodes
    # radial symmetry forces phi'(0) = psi'(0) = 0
    phi = CubicSpline(r, u0.values, bc_type=((1, 0.0), "not-a-knot"))
    psi = CubicSpline(r, u1.values, bc_type=((1, 0.0), "not-a-knot"))
    phi_d = phi.derivative()
    phi_dd = phi_d.derivative()
    psi_d = psi.derivative()
    big_psi = CubicSpline(
        r, r * u1.values, bc_type=((1, float(u1.values[0])), "not-a-knot")
    )
    big_psi_int = big_psi.antiderivative()

    scale = max(
        float(np.max(np.abs(u0.values))), float(np.max(np.abs(u1.values))), 1e-300
    )
    tail = max(abs(float(u0.values[-1])), abs(float(u1.values[-1])))
    vanishes = tail <= 1e-12 * scale
    if t > 0.0 and not vanishes:
        raise RangeViolation(
            "r + t exceeds the interpolant domain and the data has not vanished "
            "before r_max"
        )

    def PHI(s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        out = np.where(a <= grid.r_max, s * phi(np.minimum(a, grid.r_max)), 0.0)
        return out

    def PHI_D(s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        inside = a <= grid.r_max
        ac = np.minimum(a, grid.r_max)
        return np.where(inside, phi(ac) + ac * phi_d(ac), 0.0)

    def PSI(s):
        s = np.asarray(s, dtype=float)
        a = np.abs(s)
        return np.where(a <= grid.r_max, np.sign(s) * big_psi(np.minimum(a, grid.r_max)), 0.0)

    def PSI_AD(s):
        # even antiderivative of the odd PSI
        s = np.asarray(s, dtype=float)
        a = np.minimum(np.abs(s), grid.r_max)
        return big_psi_int(a)

    rp = r[1:] + t
    rm = r[1:] - t
    u_vals = np.empty_like(r)
    v_vals = np.empty_like(r)
    u_vals[1:] = (
        0.5 * (PHI(rp) + PHI(rm)) + 0.5 * (PSI_AD(rp) - PSI_AD(rm))
    ) / r[1:]
    v_vals[1:] = (0.5 * (PHI_D(rp) - PHI_D(rm)) + 0.5 * (PSI(rp) + PSI(rm))) / r[1:]

    if t <= grid.r_max:
        u_vals[0] = float(phi(t) + t * phi_d(t) + t * psi(t))
        v_vals[0] = float(2.0 * phi_d(t) + t * phi_dd(t) + psi(t) + t * psi_d(t))
    else:
        u_vals[0] = 0.0
        v_vals[0] = 0.0

    return RadialField(grid, u_vals), RadialField(grid, v_vals)
