"""Radial wave propagation: method-of-lines evolution of
u_tt = lap u + a|u_t|^p + b|u_r|^p + F, the RK4 step bound of the stencil,
and blow-up detection.
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
from .errors import PreconditionViolation

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
# evolve's causal window grows by whole blocks of this many nodes, so that it
# rebuilds its buffers once per block, not once per step
WINDOW_BLOCK = 64

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
        if (self.family == "from_file") != bool(self.path):
            raise PreconditionViolation(f"profile {self.family!r} with path {self.path!r}: "
                                        "from_file alone reads a data file, and needs one")


def _bump_shape(r: np.ndarray, center: float, width: float) -> np.ndarray:
    # |xi| past the double range is inf, outside the bump
    with np.errstate(over="ignore"):
        xi = (r - center) / width
    out = np.zeros_like(r)
    inside = np.abs(xi) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - xi[inside] ** 2))
    return out


def _load_field_file(path: str, grid: RadialGrid) -> np.ndarray:
    # scipy is imported here and in stable_cfl only: it is most of the
    # package's import time and memory, and no other path needs it
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
        # an exponent past the double range is -inf, where the shape is 0
        with np.errstate(over="ignore"):
            shape = np.exp(-(((r - profile.center) / profile.width) ** 2))
            edge = np.exp(-np.square((grid.r_max - profile.center) / profile.width))
        if edge > 1e-16:
            raise PreconditionViolation(
                f"gaussian tail {edge:.3g} at r_max exceeds 1e-16 of peak"
            )
    elif profile.family == "smooth_bump":
        if profile.center + profile.width >= grid.r_max:
            raise PreconditionViolation("bump support reaches the outer boundary")
        shape = _bump_shape(r, profile.center, profile.width)
    else:
        shape = _load_field_file(profile.path, grid)

    data = profile.epsilon * shape
    # support_radius's rule: a tail within VANISH_FACTOR of the peak is negligible
    if abs(data[-1]) > VANISH_FACTOR * np.max(np.abs(data)):
        raise PreconditionViolation("data does not vanish before r_max")
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


def _flush_scratch(size: int, spec: ProblemSpec) -> tuple:
    """(work row, dead mask, cut, p, a, b): the scratch of _add_nonlinearity
    on rows of `size` nodes, so that a caller that applies it many times
    allocates the rows and looks up the cut of |.|^p (_power_cut) once.

    cut, p and the coefficients are 0-d float64 arrays: numpy takes them as
    they are, where it converts a Python float on every call.  A unit
    coefficient is None, since x * 1.0 == x bitwise and its scale is skipped.
    """
    def coef(c):
        return None if c == 1.0 else np.array(c, dtype=float)

    return (np.empty(size), np.empty(size, bool), np.array(_power_cut(spec.p)),
            np.array(spec.p, dtype=float), coef(spec.a), coef(spec.b))


def _add_flushed_power(out: np.ndarray, x: np.ndarray, coef, dead: np.ndarray,
                       cut: np.ndarray, p: np.ndarray) -> None:
    """out += coef * x**p for x >= 0, overwriting x and the mask row `dead`,
    with the powers below DBL_MIN set to 0; coef is None for 1.

    np.power is up to ~60x slower on arguments whose result underflows (the
    far tail of the data), and a subnormal term cannot move a sum of
    normal-range values.  So the entries below the cut are zeroed first, and
    np.power then runs over the whole row, where 0**p is the flushed value.
    Where few entries are below the cut, as in a causal window, the unmasked
    power costs ~60% of one masked to the entries above it; a zero costs it
    ~3x a normal-range entry, so a row mostly below the cut would be cheaper
    masked.  NaN and inf are not below the cut and pass through np.power.
    """
    np.less(x, cut, dead)
    np.copyto(x, 0.0, where=dead)
    np.power(x, p, x)
    if coef is not None:
        np.multiply(x, coef, x)
    np.add(out, x, out)


def _add_nonlinearity(out: np.ndarray, u: np.ndarray, v: np.ndarray, dr: float,
                      spec: ProblemSpec, scratch: tuple) -> None:
    """out += a|v|^p, then out += b|u_r|^p, in place; a zero coefficient
    skips its term, and |.|^p below DBL_MIN counts as 0 (see
    _add_flushed_power).  `scratch` is spec's _flush_scratch for rows like
    `out`."""
    work, dead, cut, p, a, b = scratch
    if spec.a != 0.0:
        np.abs(v, work)
        _add_flushed_power(out, work, a, dead, cut, p)
    if spec.b != 0.0:
        np.abs(_derivative_values(u, dr, out=work), work)
        _add_flushed_power(out, work, b, dead, cut, p)


def sampled_nonlinearity(spec: ProblemSpec, traj: Trajectory) -> LinearSeries:
    """spec's N[u] on the trajectory's sample times, linearly interpolated
    between; N[u] at time t vanishes past the support of u at t = 0 plus t."""
    fields = np.zeros_like(traj.u)
    scratch = _flush_scratch(fields.shape[1], spec)
    for row, u, v in zip(fields, traj.u, traj.v):
        _add_nonlinearity(row, u, v, traj.grid.spacing, spec, scratch)
    grid = traj.grid
    support = support_radius(RadialField(grid, traj.u[0]), RadialField(grid, traj.v[0]))
    return LinearSeries(traj.times, fields, support)


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "completed" | "blew_up"
    trajectory: Trajectory
    t_blowup: float
    peak_gradient: float
    steps: int  # the RK4 steps taken, the blow-up step included
    node_steps: int  # the nodes of each step's causal window, summed over the steps


class LinearSeries:
    """Piecewise-linear-in-time nodal forcing built from sampled fields, its
    rows at time t vanishing past `support` + t (evolve's forcing contract).

    `fields` is a read-only view of the array given (not a copy); outside the
    sample range a call returns its first or last row itself, inside it a
    new row (1-w) f[k] + w f[k+1].  The term w f[k+1] goes through a scratch
    row of the series, so that row is the call's one allocation and a series
    must not be called from two threads at once.
    """

    def __init__(self, times, fields, support: float):
        self.support = support
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
    """The RK4 steps `evolve` takes to reach t_end on grid: the fewest with
    dt <= cfl*dr, rounded up to a multiple of sample_stride; none at t_end = 0."""
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise PreconditionViolation(f"t_end must be >= 0, got {t_end}")
    if not (0.0 < cfl <= 0.75):
        raise PreconditionViolation(f"cfl must lie in (0, 0.75], got {cfl}")
    if sample_stride < 1:
        raise PreconditionViolation("sample_stride must be >= 1")
    steps = t_end / (cfl * grid.spacing)
    if not math.isfinite(steps):
        raise PreconditionViolation(
            f"t_end {t_end:.3g} takes t_end / (cfl * dr) = {steps} steps, past the double range")
    nsteps = max(1, math.ceil(steps)) if t_end > 0.0 else 0
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


def _reach(u0: RadialField, u1: RadialField, forcing) -> float:
    """The larger of support_radius(u0, u1) and the forcing's `support`; a
    forcing without a finite support >= 0 is refused."""
    support = 0.0 if forcing is None else getattr(forcing, "support", None)
    if support is None or not 0.0 <= support < math.inf:
        raise PreconditionViolation(f"a forcing must carry its support, a finite "
                                    f"radius >= 0, as `support`; got {support!r}")
    return max(support_radius(u0, u1), support)


def require_runnable(spec: ProblemSpec, u0: RadialField, u1: RadialField, grid: RadialGrid,
                     t_end: float, cfl: float, sample_stride: int, forcing=None) -> int:
    """Every check `evolve` makes before it steps, in its order, and the RK4 steps
    it takes (step_count); past them a run ends completed or blown up."""
    if u0.grid != grid or u1.grid != grid:
        raise PreconditionViolation("data must live on the target grid")
    nsteps = step_count(t_end, grid, cfl, sample_stride)
    require_stable_step(grid, spec.n_dim, cfl)
    reach = _reach(u0, u1, forcing)
    if reach + t_end + CAUSALITY_MARGIN > grid.r_max:
        raise PreconditionViolation(
            f"causality: support {reach:.3g} + t_end {t_end:.3g} + "
            f"{CAUSALITY_MARGIN} exceeds r_max {grid.r_max:.3g}"
        )
    if t_end > 0.0 and t_end / nsteps < 1e-12:
        raise PreconditionViolation(f"dt = {t_end / nsteps:.3g} below 1e-12")
    return nsteps


def _blowup_size(y: np.ndarray, dr: float):
    """A function of no arguments that gives the blow-up size
    max(max|v|, max|u_r|) of the current state y = (u, v), with u_r one-sided
    at both ends of y's rows.

    It makes four array calls: |v| and |du| share one (2, nodes) scratch and
    one np.maximum.reduce, where du is u_r times 2 dr.  A correctly rounded
    division by 2 dr > 0 is monotone, so dividing the max gives the max of
    the divided row.  Each row's max propagates NaN as np.max does, and so
    does their combination: Python's max(vmax, NaN) would return vmax, so a
    NaN gradient max is returned as is.
    """
    u, v = y
    sizes = np.empty(y.shape)
    v_abs, du = sizes
    du_inner, u_hi, u_lo = du[1:-1], u[2:], u[:-2]
    head, tail = u[:3].tolist, u[-3:].tolist
    two_dr = 2.0 * dr
    row_max = np.maximum.reduce

    def size():
        np.abs(v, v_abs)
        np.subtract(u_hi, u_lo, du_inner)
        a0, a1, a2 = head()
        b2, b1, b0 = tail()
        du[0] = -3.0 * a0 + 4.0 * a1 - a2
        du[-1] = 3.0 * b0 - 4.0 * b1 + b2
        np.abs(du, du)
        vmax, dmax = row_max(sizes, 1).tolist()
        gmax = dmax / two_dr
        return gmax if math.isnan(gmax) else max(vmax, gmax)

    return size


def _window_stepper(y: np.ndarray, spec: ProblemSpec, dr: float, dt: float,
                    c_plus: np.ndarray, c_minus: np.ndarray):
    """(step, size) over the contiguous state y = (u, v) of rows 0..J.

    step(sources) advances y by one RK4 step of dt with row J clamped the way
    the outer node of the grid is.  `sources` holds the forcing rows of the
    four stages (at t, t + dt/2, t + dt/2, t + dt), each at least J + 1 long,
    or four Nones.  size is _blowup_size's of y.  All buffers have y's width
    and are contiguous, so every array call takes numpy's fast path, and
    every scalar operand is a 0-d float64 array built here, which numpy takes
    without converting a Python float on each call.
    """
    nodes = y.shape[1]
    nonlinear = spec.a != 0.0 or spec.b != 0.0
    scratch = _flush_scratch(nodes, spec)
    work = scratch[0]
    u, v = y
    # Z[i] = (u_i, v_i, a_i) for stage i: its state is Z[i, :2] and its slope
    # (u_t, u_tt) is Z[i, 1:], so a slope's u-row is its stage's v-row.  Both
    # slope rows are clamped at row J.  Clamping v_i there is harmless: only
    # the a-term reads it, into a_i[-1], which is clamped too.  Stage 1's
    # state is y itself, whose v[-1] keeps its value, so Z[0, 1] is a copy of
    # v and Z[0, 0] is unused.  Zeroed so the skipped last row of a_i holds a
    # finite value before its clamp.
    Z = np.zeros((4, 3, nodes))
    k1, k2, k3, k4 = (Z[i, 1:] for i in range(4))
    k23 = Z[1:3, 1:]
    half, full, two, sixth = (np.array(c) for c in (0.5 * dt, dt, 2.0, dt / 6.0))
    # RK4 in the operation order of
    #   k2 = f(t + dt/2, y + (dt/2) k1), k3 = f(t + dt/2, y + (dt/2) k2),
    #   k4 = f(t + dt, y + dt k3),  y += (dt/6) (k1 + 2 k2 + 2 k3 + k4)
    # so the buffered step gives the same bits as the plain formulas.  Stage
    # i + 1's state is y + h k_i; each stage is (its state's build (h, k_i,
    # state) or None, its stencil, its u, v and a rows, its slope's row J).
    # Rows 0..J-1 of the grid's stencil read rows 0..J alone.
    builds = (None, (half, k1, Z[1, :2]), (half, k2, Z[2, :2]), (full, k3, Z[3, :2]))
    stages = []
    for i, build in enumerate(builds):
        su, sv, acc = (u, v, Z[0, 2]) if i == 0 else Z[i]
        stencil = _flux_stencil(su, c_plus[:nodes - 1], c_minus[:nodes - 2], acc, work)
        stages.append((build, stencil, su, sv, acc, Z[i, 1:, -1]))

    def step(sources):
        np.copyto(k1[0], v)
        for (build, stencil, su, sv, acc, outer), source in zip(stages, sources):
            if build is not None:
                h, slope, state = build
                np.multiply(slope, h, state)
                np.add(state, y, state)
            stencil()
            if nonlinear:
                _add_nonlinearity(acc, su, sv, dr, spec, scratch)
            if source is not None:
                np.add(acc, source[:nodes], acc)
            outer.fill(0.0)
        # k2 and k3 doubled in one call; the sum keeps its written order
        np.multiply(k23, two, k23)
        np.add(k2, k1, k2)
        np.add(k2, k3, k2)
        np.add(k2, k4, k2)
        np.multiply(k2, sixth, k2)
        np.add(y, k2, y)

    return step, _blowup_size(y, dr)


def _window_width(radius: float, dr: float, nodes: int) -> int:
    """The nodes of the smallest causal window, rows 0..J, with J a multiple of
    WINDOW_BLOCK and J >= radius / dr; the whole grid if that is wider."""
    return min(nodes, WINDOW_BLOCK * math.ceil(radius / dr / WINDOW_BLOCK) + 1)


def evolve(
    spec: ProblemSpec,
    u0: RadialField,
    u1: RadialField,
    grid: RadialGrid,
    t_end: float,
    forcing=None,
    cfl: float = DEFAULT_CFL,
    sample_stride: int = DEFAULT_STRIDE,
) -> SolveOutcome:
    """March (u, v) with classical RK4 at dt = t_end / step_count(...) <= cfl*dr.

    Neumann symmetry closes the origin, the outer node is clamped, and the
    causality precondition keeps the boundary causally inert.  The run aborts
    as blown-up the first time max(|v|, |u_r|) passes BLOWUP_THRESHOLD or any
    value stops being finite.  A linear run (a = b = 0) scales with its data,
    so its threshold is BLOWUP_THRESHOLD times max(1, that size at t = 0).
    numpy's overflow and invalid-value warnings are silenced while stepping,
    so that detector is the one report.  A cfl that RK4 cannot take on this
    stencil is refused (require_stable_step), so a reported blow-up is not
    RK4's own instability.

    Causal window: a step from t to t + dt moves only rows 0..J, where J is
    the first multiple of WINDOW_BLOCK with
    J dr >= reach + t + dt + CAUSALITY_MARGIN, with reach the larger of
    support_radius(u0, u1) and the forcing's support, or the outer node
    once that is past it.  Row J is clamped the way the outer node is,
    and the rows past it keep their data values, in the stored samples too.
    After t = 0 the blow-up size is read on rows 0..J; the size at t = 0, and
    with it a linear run's threshold, is the whole grid's.
    SolveOutcome.node_steps sums J + 1 over the steps taken.

    `forcing(t)` is called once per distinct stage time: t, t + dt/2, t + dt,
    where a step's t that equals the previous step's t + dt bit for bit
    reuses that row; a step holds its three rows at once.  Forcing contract:
    the rows of forcing(t) vanish past forcing.support + t, since evolve
    reads each row only through row J; a forcing without a support is
    refused, so the window and the causality check read one reach.
    """
    nsteps = require_runnable(spec, u0, u1, grid, t_end, cfl, sample_stride, forcing)
    dr = grid.spacing
    # a run to t_end = 0 takes no step, where t_end / nsteps would divide by 0
    dt = t_end / max(nsteps, 1)
    nonlinear = spec.a != 0.0 or spec.b != 0.0
    # looked up once per run: each lookup hashes the grid
    c_plus, c_minus = _flux_weights(grid, spec.n_dim)
    data = np.stack((u0.values, u1.values))
    nodes = data.shape[1]
    reach = _reach(u0, u1, forcing)

    # one row per sample; a blow-up trims the buffer to the rows written
    rows = nsteps // sample_stride + 1
    times = np.empty(rows)
    us = np.empty((rows, nodes))
    vs = np.empty((rows, nodes))
    times[0], us[0], vs[0] = 0.0, u0.values, u1.values
    stored = 1
    status, t_blow = "completed", None

    # the window's state y = (u, v) of `width` nodes; it starts empty and
    # grows before the first step.  k + 1 counts the steps taken
    y, width, node_steps, k = data[:, :0], 0, 0, -1
    sources = (None,) * 4
    # `source` is the forcing row at time t_source
    source, t_source = None, None
    with np.errstate(over="ignore", invalid="ignore"):
        # data near the double range overflows the one-sided origin row
        peak = _blowup_size(data, dr)()
        limit = BLOWUP_THRESHOLD if nonlinear else BLOWUP_THRESHOLD * max(1.0, peak)
        for k in range(nsteps):
            t = k * dt
            t_next = (k + 1) * dt
            radius = reach + t_next + CAUSALITY_MARGIN
            if width < nodes and radius / dr > width - 1:
                width = _window_width(radius, dr, nodes)
                grown = data[:, :width].copy()
                grown[:, :y.shape[1]] = y
                y = grown
                step, size = _window_stepper(y, spec, dr, dt, c_plus, c_minus)
            if forcing is not None:
                if t != t_source:
                    source = forcing(t)
                # k2 and k3 share the stage time t + dt/2, so its row is reused
                half = forcing(t + 0.5 * dt)
                t_source = t + dt
                sources = (source, half, half, forcing(t_source))
                source = sources[3]
            step(sources)
            node_steps += width

            now = size()
            if not math.isfinite(now) or now > limit:
                status, t_blow = "blew_up", t_next
                peak = max(peak, now) if math.isfinite(now) else math.inf
                break
            peak = max(peak, now)
            if (k + 1) % sample_stride == 0:
                times[stored] = t_next
                us[stored, :width], vs[stored, :width] = y
                us[stored, width:], vs[stored, width:] = data[:, width:]
                stored += 1

    traj = Trajectory(spec, grid, times[:stored], us[:stored], vs[:stored])
    return SolveOutcome(status, traj, t_blow, peak, k + 1, node_steps)
