"""Exact free-wave solutions the tests compare the solver against, and the
energy inequality of a forced solve."""

import math
from fractions import Fraction

import numpy as np
from scipy.interpolate import CubicSpline

import glassey_lab as gl
from glassey_lab.core import _derivative_values
from glassey_lab.estimates import _free_solve


def exact_free_n3(
    u0: gl.RadialField, u1: gl.RadialField, t: float, grid: gl.RadialGrid
) -> tuple:
    """The pair (u, v) of RadialFields of the exact n=3 free radial wave at
    time t, via the reduction of r*u to a line wave.

    With PHI(s) = s*phi(s) and PSI(s) = s*psi(s) extended oddly,
    r u(t,r) = [PHI(r+t) + PHI(r-t)]/2 + (1/2) int_{r-t}^{r+t} PSI, and
    u(t,0) = PHI'(t) + PSI(t).  Cubic interpolation supplies phi and psi off
    the nodes; beyond r_max the data must have vanished, in which case the
    extensions are zero there.
    """
    if u0.grid != grid or u1.grid != grid:
        raise gl.PreconditionViolation("data must live on the target grid")
    if not (math.isfinite(t) and t >= 0.0):
        raise gl.PreconditionViolation(f"t must be >= 0, got {t}")

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
        raise gl.PreconditionViolation(
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

    return gl.RadialField(grid, u_vals), gl.RadialField(grid, v_vals)


def origin_oracle(n):
    """u(t, 0) of the free wave in odd dimension n from u0 = exp(-r^2), u1 = 0:
    gamma_n^{-1} d/dt (t^{-1} d/dt)^{(n-3)/2} (t^{n-2} exp(-t^2)), with
    gamma_n = 1*3*...*(n-2).

    Each derivative maps P(t) exp(-t^2) to (P' - 2t P) exp(-t^2), so the
    polynomial P is built in exact rational arithmetic; every division by t
    is exact.  Returns (t -> u(t, 0), the coefficients of P, lowest first).
    """

    def d_dt(poly):
        out = [Fraction(0)] * (len(poly) + 1)
        for k, c in enumerate(poly):
            if k:
                out[k - 1] += k * c
            out[k + 1] -= 2 * c
        return out

    poly = [Fraction(0)] * (n - 2) + [Fraction(1)]
    for _ in range((n - 3) // 2):
        poly = d_dt(poly)
        assert poly[0] == 0
        poly = poly[1:]
    gamma = math.prod(range(1, n - 1, 2))
    poly = [c / gamma for c in d_dt(poly)]

    def u_origin(t):
        x = Fraction(t)
        return float(sum(c * x**k for k, c in enumerate(poly))) * math.exp(-t * t)

    return u_origin, poly


def energy_ineq_check(
    u0: gl.RadialField,
    u1: gl.RadialField,
    forcing: gl.ForcingSpec,
    n: int,
    horizon: float,
) -> gl.IneqSample:
    """sup-in-time energy of the free wave that forcing drives from (u0, u1),
    against the data energy plus the |du||F| work integral, with the factor-2
    bound; the tests allow it 5% slack."""
    grid = u0.grid
    traj = _free_solve(u0, u1, n, horizon, forcing)
    energies = 2.0 * gl.energy(traj)
    shape = forcing.shape(grid)
    work_series = []
    for t, u, v in zip(traj.times, traj.u, traj.v):
        du = _derivative_values(u, grid.spacing)
        mag = np.sqrt(v**2 + du**2)
        f_abs = np.abs(forcing.envelope(t) * shape)
        integrand = mag * f_abs * grid.nodes ** (n - 1)
        work_series.append(
            gl.sphere_area(n) * float(np.trapezoid(integrand, dx=grid.spacing))
        )
    rhs = energies[0] + float(np.trapezoid(np.array(work_series), traj.times))
    if rhs == 0.0:
        raise gl.PreconditionViolation("energy_ineq_check: zero data and forcing")
    return gl.IneqSample("energy_ineq", {"n": n, "T": horizon}, energies.max() / rhs, bound=2.0)
