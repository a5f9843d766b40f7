import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import glassey_lab as gl
from glassey_lab.core import _derivative_values, _energy_integral, _laplacian_values
from glassey_lab.solver import (
    BLOWUP_THRESHOLD,
    LinearSeries,
    _add_nonlinearity,
    _power_cut,
    stable_cfl,
    step_count,
)


def spec(n=3, p=2.0, a=1.0, b=0.0):
    return gl.ProblemSpec(n_dim=n, p=p, a=a, b=b)


def gaussian_profile(eps=1.0, assigns="to_u0", width=1.0, center=0.0):
    return gl.DataProfile(family="gaussian", epsilon=eps, width=width,
                          center=center, assigns=assigns)


# ---------------------------------------------------------------------------
# data profiles
# ---------------------------------------------------------------------------

def test_make_profile_zero_amplitude():
    g = gl.RadialGrid(r_max=12.0, num_cells=300)
    data = gl.make_profile(gaussian_profile(eps=0.0), g)
    assert not np.any(data.u0.values) and not np.any(data.u1.values)


def test_bump_is_compactly_supported():
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    prof = gl.DataProfile(family="smooth_bump", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    assert np.all(data.u0.values[g.nodes >= 1.0] == 0.0)
    assert np.max(data.u0.values) > 0.0


def test_gaussian_lambda_scales_linearly():
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    lams = []
    for eps in (0.05, 0.1, 0.2):
        data = gl.make_profile(gaussian_profile(eps=eps), g)
        lams.append(gl.lambda_norms(data.u0, data.u1, 3).lambda1)
    assert lams[1] == pytest.approx(2.0 * lams[0], abs=1e-10)
    assert lams[2] == pytest.approx(2.0 * lams[1], abs=1e-10)


def test_support_overflow_gate():
    g = gl.RadialGrid(r_max=4.0, num_cells=100)
    with pytest.raises(gl.SupportOverflow):
        gl.make_profile(gaussian_profile(width=2.0), g)
    with pytest.raises(gl.SupportOverflow):
        gl.make_profile(
            gl.DataProfile(family="smooth_bump", epsilon=1.0, width=5.0, center=0.0,
                           assigns="to_u0"),
            g,
        )


def test_from_file_round_trip(tmp_path):
    g = gl.RadialGrid(r_max=10.0, num_cells=500)
    rs = np.linspace(0.0, 10.0, 201)
    vals = np.exp(-(rs**2))
    path = tmp_path / "field.txt"
    lines = ["# radial-field v1"] + [f"{r} {v}" for r, v in zip(rs, vals)]
    path.write_text("\n".join(lines) + "\n")
    prof = gl.DataProfile(family="from_file", epsilon=2.0, assigns="to_u1",
                          path=str(path))
    data = gl.make_profile(prof, g)
    assert not np.any(data.u0.values)
    exact = 2.0 * np.exp(-(g.nodes**2))
    assert np.max(np.abs(data.u1.values - exact)) < 1e-3


@pytest.mark.parametrize("r0", [1e-13, -1e-13])
def test_from_file_first_radius_near_zero_is_the_origin(tmp_path, r0):
    # a first radius within the 1e-12 the parser allows used to leave node
    # r = 0 outside the samples, and a zero there: a jump that blew up at t = 0
    g = gl.RadialGrid(r_max=12.0, num_cells=240)
    rs = np.linspace(0.0, 6.0, 61)
    vals = np.exp(-(rs**2)) * np.cos(rs)
    fields = []
    for name, first in (("zero", 0.0), ("near", r0)):
        path = tmp_path / f"{name}.txt"
        rows = [f"{first if j == 0 else r} {v}" for j, (r, v) in enumerate(zip(rs, vals))]
        path.write_text("\n".join(["# radial-field v1"] + rows) + "\n")
        prof = gl.DataProfile(family="from_file", epsilon=1.0, path=str(path))
        fields.append(gl.make_profile(prof, g).u0.values)
    assert fields[0][0] == 1.0
    assert np.array_equal(fields[0], fields[1])


def test_from_file_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nonsense\n0 1\n1 0\n2 0\n3 0\n")
    g = gl.RadialGrid(r_max=10.0, num_cells=100)
    with pytest.raises(gl.PreconditionViolation):
        gl.make_profile(
            gl.DataProfile(family="from_file", epsilon=1.0, assigns="to_u0",
                           path=str(path)),
            g,
        )


def test_support_radius():
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    data = gl.make_profile(gaussian_profile(), g)
    rs = gl.support_radius(data.u0, data.u1)
    assert 5.0 < rs < 7.0
    z = gl.RadialField.zeros(g)
    assert gl.support_radius(z, z) == 0.0


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

def nonlinearity(u, v, dr, sp):
    """a|v|^p + b|u_r|^p nodewise, from zero."""
    out = np.zeros_like(v)
    _add_nonlinearity(out, u, v, dr, sp)
    return out


def test_nonlinearity_constant_v():
    g = gl.RadialGrid(r_max=12.0, num_cells=300)
    z = np.zeros(301)
    two = np.full(301, 2.0)
    nl = nonlinearity(z, two, g.spacing, spec(p=2.5, a=1.0, b=0.0))
    assert np.allclose(nl, 2.0**2.5)
    nl0 = nonlinearity(z, two, g.spacing, spec(p=2.5, a=0.0, b=0.0))
    assert not np.any(nl0)


def test_nonlinearity_pointwise_bound():
    g = gl.RadialGrid(r_max=12.0, num_cells=400)
    rng = np.random.default_rng(11)
    sp = spec(p=1.8, a=0.7, b=-0.4)
    for _ in range(20):
        u = gl.RadialField(g, rng.normal(size=401) * np.exp(-g.nodes))
        v = gl.RadialField(g, rng.normal(size=401) * np.exp(-g.nodes))
        nl = nonlinearity(u.values, v.values, g.spacing, sp)
        du = gl.radial_derivative(u)
        cap = (abs(sp.a) + abs(sp.b)) * np.maximum(
            np.abs(v.values), np.abs(du.values)
        ) ** sp.p
        assert np.all(np.abs(nl) <= cap + 1e-12)


TINY = np.finfo(float).tiny


def _underflow_probe(p):
    """Magnitudes around the DBL_MIN cut of |x|^p, plus 0, NaN and +-inf."""
    cut = _power_cut(p)
    mags = [0.0, 5e-324, 1e-300, 1e-250, np.nextafter(cut, 0.0), cut,
            np.nextafter(cut, 1.0), 1e-150, 1e-20, 0.5, 1.0, 3.0]
    signed = np.array(mags + [-m for m in mags[1:]])
    return np.concatenate([signed, [np.nan, np.inf, -np.inf]])


@pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.7])
def test_nonlinearity_flushes_only_sub_dbl_min_powers(p):
    x = _underflow_probe(p)
    coef = 0.7
    with np.errstate(invalid="ignore", over="ignore"):
        plain = np.abs(x) ** p
    out = np.zeros_like(x)
    _add_nonlinearity(out, np.zeros_like(x), x, 0.1, spec(p=p, a=coef, b=0.0))
    normal = plain >= TINY
    assert np.array_equal(out[normal], plain[normal] * coef)
    below = plain < TINY
    assert np.all(out[below] == 0.0)
    assert np.all(out[x == 0.0] == 0.0)
    assert np.isnan(out[np.isnan(x)]).all()
    assert np.all(out[np.isinf(x)] == np.inf)
    # the cut is the boundary of the flushed set
    cut = _power_cut(p)
    assert np.all(normal[np.abs(x) == cut])
    assert np.all(below[np.abs(x) == np.nextafter(cut, 0.0)])


def test_nonlinearity_gradient_term_flushes_the_same_way():
    g = gl.RadialGrid(r_max=30.0, num_cells=600)
    u = 2.0 * np.exp(-g.nodes**2)  # spans normal, subnormal and 0 values
    sp = spec(p=1.5, a=0.0, b=-1.3)
    nl = nonlinearity(u, np.zeros_like(u), g.spacing, sp)
    plain = np.abs(_derivative_values(u, g.spacing)) ** sp.p
    normal = plain >= TINY
    assert np.any(~normal & (plain > 0.0))
    assert np.array_equal(nl[normal], plain[normal] * sp.b)
    assert np.all(nl[~normal] == 0.0)


def test_evolve_reports_nonfinite_and_huge_values_as_blowup():
    # the blow-up detector is the one report: no numpy RuntimeWarning escapes
    g = gl.RadialGrid(r_max=12.0, num_cells=240)
    z = gl.RadialField.zeros(g)
    v = np.zeros(241)
    v[20] = 1e300

    def nan_source(t):
        f = np.zeros(241)
        f[10] = np.nan
        return f

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = gl.evolve(spec(p=1.5), z, gl.RadialField(g, v), g, 2.0)
        nan = gl.evolve(spec(p=1.5), z, z, g, 2.0, forcing=nan_source)
    assert huge.status == "blew_up" and huge.peak_gradient == math.inf
    assert nan.status == "blew_up" and nan.peak_gradient == math.inf
    assert nan.trajectory.times.size == 1


def test_linear_series_rows_are_read_only():
    times = np.linspace(0.0, 1.0, 3)
    fields = np.arange(12.0).reshape(3, 4)
    series = LinearSeries(times, fields)
    for t in (-1.0, 0.0, 1.0, 2.0):
        row = series(t)
        with pytest.raises(ValueError):
            row += 1.0
    with pytest.raises(ValueError):
        series.fields[1, 1] = 0.0
    assert np.array_equal(series(0.125), 0.75 * fields[0] + 0.25 * fields[1])
    assert fields.flags.writeable  # the caller's array is not frozen


def test_linear_series_matches_plain_interpolation_bitwise():
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 10.0, 401)
    fields = rng.standard_normal((401, 64))
    series = LinearSeries(times, fields)
    inside = [math.nextafter(times[0], math.inf), math.nextafter(times[-1], -math.inf)]
    for t in list(rng.uniform(0.0, 10.0, 4000)) + list(times[1:-1]) + inside:
        k = int(np.searchsorted(times, t)) - 1
        w = (t - times[k]) / (times[k + 1] - times[k])
        plain = (1.0 - w) * fields[k] + w * fields[k + 1]
        assert series(t).tobytes() == plain.tobytes()


def test_linear_series_in_range_rows_are_fresh():
    times = np.linspace(0.0, 1.0, 3)
    fields = np.arange(12.0).reshape(3, 4)
    series = LinearSeries(times, fields)
    row = series(0.25)
    again = series(0.25)
    assert row.flags.writeable and row is not again
    row += 100.0
    assert np.array_equal(series.fields, np.arange(12.0).reshape(3, 4))
    assert np.array_equal(series(0.25), again)


def test_evolve_calls_forcing_once_per_stage_time():
    g = gl.RadialGrid(r_max=8.0, num_cells=64)
    z = gl.RadialField.zeros(g)
    seen = []

    def recording(t):
        seen.append(t)
        return np.zeros(65)

    gl.evolve(spec(a=0.0), z, z, g, 1.0, forcing=recording, linear_only=True, cfl=0.25,
              sample_stride=10)
    # 1 / (cfl 0.25 * dr 0.125) = 32 steps, rounded up to the sample stride 10
    nsteps = 40
    dt = 1.0 / nsteps
    # a step starts at t = k dt; when that equals the previous step's last
    # stage time t + dt bit for bit, the row of that call is reused
    expected = []
    t = 0.0
    for k in range(nsteps):
        if not expected or expected[-1] != t:
            expected.append(t)
        expected += [t + 0.5 * dt, t + dt]
        t = (k + 1) * dt
    assert seen == expected
    assert all(a != b for a, b in zip(seen, seen[1:]))
    assert 2 * nsteps < len(seen) < 3 * nsteps


# ---------------------------------------------------------------------------
# evolve and the exact oracle
# ---------------------------------------------------------------------------

def test_evolve_zero_data():
    g = gl.RadialGrid(r_max=8.0, num_cells=200)
    z = gl.RadialField.zeros(g)
    out = gl.evolve(spec(), z, z, g, 2.0)
    assert out.status == "completed"
    assert all(not np.any(u) for u in out.trajectory.u)


def test_evolve_causality_gate():
    g = gl.RadialGrid(r_max=8.0, num_cells=200)
    data = gl.make_profile(gaussian_profile(), g)
    with pytest.raises(gl.PreconditionViolation):
        gl.evolve(spec(), data.u0, data.u1, g, 5.0)


def state_energy(g, u, v, n=3):
    """gl.energy of the one-sample trajectory (u, v) at t = 0."""
    traj = gl.Trajectory(spec(n=n), g, np.zeros(1), u.values[None], v.values[None])
    return gl.energy(traj)[0]


def test_exact_free_n3_identity_and_zero():
    g = gl.RadialGrid(r_max=12.0, num_cells=800)
    data = gl.make_profile(gaussian_profile(), g)
    u, v = gl.exact_free_n3(data.u0, data.u1, 0.0, g)
    assert np.max(np.abs(u.values - data.u0.values)) <= 1e-10
    assert np.max(np.abs(v.values - data.u1.values)) <= 1e-10
    z = gl.RadialField.zeros(g)
    u0, v0 = gl.exact_free_n3(z, z, 3.0, g)
    assert not np.any(u0.values) and not np.any(v0.values)


def test_exact_free_n3_energy_conserved():
    g = gl.RadialGrid(r_max=12.0, num_cells=16000)
    data = gl.make_profile(gaussian_profile(), g)
    e0 = state_energy(g, data.u0, data.u1)
    for t in (0.5, 1.0, 2.0):
        u, v = gl.exact_free_n3(data.u0, data.u1, t, g)
        assert state_energy(g, u, v) == pytest.approx(e0, rel=1e-6)


def test_exact_free_n3_range_gate():
    g = gl.RadialGrid(r_max=8.0, num_cells=200)
    f = gl.RadialField.from_function(g, lambda r: 1.0 / (1.0 + r**2))  # no decay
    z = gl.RadialField.zeros(g)
    with pytest.raises(gl.RangeViolation):
        gl.exact_free_n3(f, z, 1.0, g)


def test_evolve_matches_exact_oracle():
    g = gl.RadialGrid(r_max=20.0, num_cells=1000)
    data = gl.make_profile(gaussian_profile(), g)
    out = gl.evolve(spec(a=0.0, b=0.0), data.u0, data.u1, g, 1.0, linear_only=True)
    exact_u, _ = gl.exact_free_n3(data.u0, data.u1, 1.0, g)
    fin_u = out.trajectory.u[-1]
    err = gl.weighted_l2(gl.RadialField(g, fin_u - exact_u.values), 3, 0, 0)
    ref = gl.weighted_l2(exact_u, 3, 0, 0)
    assert err / ref <= 1e-3


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


def test_origin_oracle_is_the_n3_formula_and_starts_at_the_data():
    # n = 3: u(t, 0) = d/dt (t exp(-t^2)) = (1 - 2t^2) exp(-t^2)
    assert origin_oracle(3)[1] == [1, 0, -2]
    for n in (3, 5, 9, 31):
        assert origin_oracle(n)[0](0.0) == 1.0


@pytest.mark.parametrize("n", [5, 9])
def test_free_wave_origin_matches_the_odd_n_oracle_at_both_steps(n):
    # the default step, cfl 0.5, is as accurate as cfl 0.25 beyond
    # n = 3: measured max errors 6.1e-4 (n = 5) and 1.43e-3 (n = 9) at both
    # cfl 0.25 and 0.5, the grid's error, not RK4's
    g = gl.RadialGrid(r_max=20.0, num_cells=800)
    data = gl.make_profile(gaussian_profile(), g)
    u_origin = origin_oracle(n)[0]
    for cfl in (0.25, 0.5):
        out = gl.evolve(spec(n=n, a=0.0, b=0.0), data.u0, data.u1, g, 8.0,
                        linear_only=True, cfl=cfl, sample_stride=4)
        assert out.status == "completed"
        traj = out.trajectory
        exact = np.array([u_origin(t) for t in traj.times])
        assert np.max(np.abs(traj.u[:, 0] - exact)) <= 2e-3


def test_evolve_time_symmetry():
    g = gl.RadialGrid(r_max=16.0, num_cells=1600)
    data = gl.make_profile(gaussian_profile(), g)
    sp = spec(a=0.0, b=0.0)
    fw = gl.evolve(sp, data.u0, data.u1, g, 3.0, linear_only=True)
    end = fw.trajectory
    back = gl.evolve(sp, gl.RadialField(g, end.u[-1]), gl.RadialField(g, -end.v[-1]), g,
                     3.0, linear_only=True)
    fin = back.trajectory
    scale = np.max(np.abs(data.u0.values))
    assert np.max(np.abs(fin.u[-1] - data.u0.values)) / scale <= 1e-6
    assert np.max(np.abs(-fin.v[-1] - data.u1.values)) / scale <= 1e-6


def test_evolve_causal_cone():
    g = gl.RadialGrid(r_max=12.0, num_cells=4800)
    prof = gl.DataProfile(family="smooth_bump", epsilon=1.0, width=2.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    out = gl.evolve(spec(a=0.0, b=0.0), data.u0, data.u1, g, 1.0, linear_only=True)
    traj = out.trajectory
    beyond = g.nodes > 2.0 + 1.0 + 3.0 * g.spacing
    leak = max(np.max(np.abs(traj.u[-1][beyond])),
               np.max(np.abs(traj.v[-1][beyond])))
    assert leak <= 1e-10


def test_blowup_detection_and_monotonicity():
    sp = spec(n=3, p=1.5, a=1.0, b=0.0)
    g = gl.RadialGrid(r_max=16.0, num_cells=640)
    times = []
    for eps in (2.8, 4.0, 5.0, 6.5):
        data = gl.make_profile(gaussian_profile(eps=eps, assigns="to_u1"), g)
        out = gl.evolve(sp, data.u0, data.u1, g, 8.0)
        assert out.status == "blew_up"
        assert out.t_blowup is not None and out.t_blowup < 8.0
        assert out.peak_gradient >= 1e6 or math.isinf(out.peak_gradient)
        times.append(out.t_blowup)
    assert all(t2 <= t1 for t1, t2 in zip(times, times[1:]))


def test_blowup_two_resolution_consistency():
    sp = spec(n=3, p=1.5, a=1.0, b=0.0)
    ts = []
    for cells in (640, 1280):
        g = gl.RadialGrid(r_max=16.0, num_cells=cells)
        data = gl.make_profile(gaussian_profile(eps=5.0, assigns="to_u1"), g)
        out = gl.evolve(sp, data.u0, data.u1, g, 8.0)
        ts.append(out.t_blowup)
    assert abs(ts[1] - ts[0]) / ts[1] <= 0.10


def test_evolve_linear_energy_drift():
    g = gl.RadialGrid(r_max=12.0, num_cells=3600)
    data = gl.make_profile(gaussian_profile(), g)
    out = gl.evolve(spec(a=0.0, b=0.0), data.u0, data.u1, g, 4.0, linear_only=True)
    energies = gl.energy(out.trajectory)
    drift = np.max(np.abs(energies / energies[0] - 1.0))
    assert drift <= 1e-5


def test_energy_is_the_energy_integral_of_each_sample():
    # bit for bit the (1/2) int (v^2 + u_r^2) of each row, on a nonlinear run
    g = gl.RadialGrid(r_max=12.0, num_cells=240)
    data = gl.make_profile(gaussian_profile(assigns="split"), g)
    traj = gl.evolve(spec(p=1.5), data.u0, data.u1, g, 2.0).trajectory
    energies = gl.energy(traj)
    assert energies.shape == traj.times.shape
    assert energies[-1] != energies[0]
    for e, u, v in zip(energies, traj.u, traj.v):
        assert e == 0.5 * _energy_integral(v, _derivative_values(u, g.spacing), g, 3)


def _sbp_energy(g, n, u, v):
    """(1/2) (sum_j V_j v_j^2 + sum_j r_{j+1/2}^(n-1) (u[j+1] - u[j])^2 / dr)
    over j < N, with the shell volumes V_j = (r_{j+1/2}^n - r_{j-1/2}^n) / n."""
    dr = g.spacing
    j = np.arange(g.num_cells)
    hi = (j + 0.5) * dr
    lo = np.maximum(j - 0.5, 0.0) * dr
    vol = (hi**n - lo**n) / n
    return 0.5 * (np.sum(vol * v[:-1] ** 2) + np.sum(hi ** (n - 1) * np.diff(u) ** 2) / dr)


@pytest.mark.parametrize("n", range(2, 13))
def test_free_wave_is_stable_and_keeps_the_sbp_energy(n):
    # the flux-form stencil conserves the SBP energy exactly in continuous
    # time, so only RK4's loss remains: |R(i w dt)|^2 = 1 - (w dt)^6/72 + ...
    # per step, O(dt^5) per unit time, so halving dt on a fixed grid shrinks
    # the drift about 32x (the assertion asks 16x, the ratio for O(dt^4))
    g = gl.RadialGrid(r_max=20.0, num_cells=400)
    data = gl.make_profile(gaussian_profile(), g)
    drifts = []
    for cfl in (0.5, 0.25):
        out = gl.evolve(spec(n=n, a=0.0, b=0.0), data.u0, data.u1, g, 10.0,
                        linear_only=True, cfl=cfl)
        assert out.status == "completed"
        traj = out.trajectory
        energies = np.array([_sbp_energy(g, n, u, v) for u, v in zip(traj.u, traj.v)])
        drifts.append(np.max(np.abs(energies / energies[0] - 1.0)))
    assert drifts[0] <= 1e-5
    assert drifts[0] >= 16.0 * drifts[1]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_manufactured_solution_converges_at_second_order(n):
    # u* = T(t) exp(-r^2) solves the equation with the source
    # F = u*_tt - lap u* - a|u*_t|^p - b|u*_r|^p, so evolve(forcing=F) must
    # track u* with an error that falls 4x per grid halving
    sp = spec(n=n, p=2.0, a=0.7, b=-0.5)

    def error(cells):
        g = gl.RadialGrid(r_max=10.0, num_cells=cells)
        r = g.nodes
        bump = np.exp(-(r**2))
        lap_bump = (4.0 * r**2 - 2.0 * n) * bump
        bump_r = -2.0 * r * bump

        def forcing(t):
            amp, amp_t = 1.0 + 0.5 * math.sin(2.0 * t), math.cos(2.0 * t)
            amp_tt = -2.0 * math.sin(2.0 * t)
            return (amp_tt * bump - amp * lap_bump - sp.a * np.abs(amp_t * bump) ** sp.p
                    - sp.b * np.abs(amp * bump_r) ** sp.p)

        out = gl.evolve(sp, gl.RadialField(g, bump), gl.RadialField(g, bump), g, 1.0,
                        forcing=forcing, forcing_support=6.0)
        assert out.status == "completed"
        exact = (1.0 + 0.5 * math.sin(2.0)) * bump
        return gl.weighted_l2(gl.RadialField(g, out.trajectory.u[-1] - exact), n, 0.0, 0.0)

    order = math.log2(error(100) / error(200))
    assert 1.8 <= order <= 2.2


def test_energy_scaling():
    g = gl.RadialGrid(r_max=12.0, num_cells=300)
    data = gl.make_profile(gaussian_profile(), g)
    e2 = state_energy(g, data.u0.scaled(2.0), data.u1.scaled(2.0))
    assert e2 == pytest.approx(4.0 * state_energy(g, data.u0, data.u1), rel=1e-12)
    z = gl.RadialField.zeros(g)
    assert state_energy(g, z, z) == 0.0


# ---------------------------------------------------------------------------
# bit-identity against the plain allocating RK4
# ---------------------------------------------------------------------------

def _reference_rk4(sp, u0, u1, g, t_end, forcing=None, linear_only=False,
                   cfl=0.25, stride=10, threshold=BLOWUP_THRESHOLD):
    """Classical RK4 written out with a fresh array per operation and the
    unflushed |.|^p; returns (times, u, v, status, t_blowup, peak)."""
    dr, n = g.spacing, sp.n_dim
    nsteps = max(1, math.ceil(t_end / (cfl * dr)))
    nsteps = stride * math.ceil(nsteps / stride)
    dt = t_end / nsteps
    nonlinear = not linear_only and (sp.a != 0.0 or sp.b != 0.0)

    def rhs(t, u, v):
        du_t = v.copy()
        du_t[-1] = 0.0
        acc = _laplacian_values(u, g, n)
        if nonlinear and sp.a != 0.0:
            acc += sp.a * np.abs(v) ** sp.p
        if nonlinear and sp.b != 0.0:
            acc += sp.b * np.abs(_derivative_values(u, dr)) ** sp.p
        if forcing is not None:
            acc = acc + forcing(t)
        acc[-1] = 0.0
        return du_t, acc

    def size(u, v):
        return float(np.max(np.abs([v, _derivative_values(u, dr)])))

    u, v = u0.values.copy(), u1.values.copy()
    times, us, vs = [0.0], [u.copy()], [v.copy()]
    peak, status, t_blow = size(u, v), "completed", None
    t = 0.0
    for k in range(nsteps):
        k1u, k1v = rhs(t, u, v)
        k2u, k2v = rhs(t + 0.5 * dt, u + 0.5 * dt * k1u, v + 0.5 * dt * k1v)
        k3u, k3v = rhs(t + 0.5 * dt, u + 0.5 * dt * k2u, v + 0.5 * dt * k2v)
        k4u, k4v = rhs(t + dt, u + dt * k3u, v + dt * k3v)
        u = u + (dt / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        v = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t = (k + 1) * dt
        now = size(u, v)
        if not math.isfinite(now) or now > threshold:
            status, t_blow = "blew_up", t
            peak = max(peak, now) if math.isfinite(now) else math.inf
            break
        peak = max(peak, now)
        if (k + 1) % stride == 0:
            times.append(t)
            us.append(u.copy())
            vs.append(v.copy())
    return np.array(times), np.array(us), np.array(vs), status, t_blow, peak


def _series_forcing(g):
    # sampled on [0, 5]; later stage times read the last row itself
    ts = np.linspace(0.0, 5.0, 11)
    return LinearSeries(ts, [np.exp(-((g.nodes - 2.0) ** 2)) * math.cos(t) for t in ts])


def _bump_forcing(g):
    # a plain function of t, switched on and off inside the run
    return gl.ForcingSpec(amplitude=0.8, space_center=1.0, space_width=1.5,
                          t_on=0.5, t_off=3.0).callable_on(g)


_FORCINGS = {"series": _series_forcing, "bump": _bump_forcing}


def _assert_same_run(out, ref):
    """evolve's outcome equals _reference_rk4's, every output to the byte
    (np.array_equal would not tell -0.0 from 0.0 or one NaN from another)."""
    times, us, vs, ref_status, ref_blow, ref_peak = ref
    assert out.status == ref_status
    assert out.t_blowup == ref_blow
    assert out.peak_gradient == ref_peak
    traj = out.trajectory
    assert traj.times.tobytes() == times.tobytes()
    assert traj.u.tobytes() == us.tobytes()
    assert traj.v.tobytes() == vs.tobytes()


@pytest.mark.parametrize(
    "n, p, a, b, eps, assigns, rmax, cells, t_end, linear, source, status, v_outer",
    [
        # the lifespan setting; its tail holds subnormal and zero values
        (3, 1.5, 1.0, 0.0, 2.0, "split", 30.0, 600, 12.0, False, False, "blew_up", None),
        (3, 2.0, 1.0, 0.7, 1.5, "split", 24.0, 480, 8.0, False, False, "blew_up", None),
        (2, 3.0, 0.5, 0.5, 0.8, "to_u0", 24.0, 400, 8.0, False, False, "completed", None),
        (5, 2.0, 0.0, 1.0, 1.0, "to_u1", 24.0, 400, 8.0, False, False, "completed", None),
        (3, 2.5, 1.0, 0.0, 0.3, "split", 18.0, 360, 6.0, True, "series", "completed", None),
        (3, 2.0, 0.5, 0.5, 0.3, "split", 18.0, 360, 6.0, False, "bump", "completed", None),
        # u1 nonzero at the outer node, below support_radius's cut: the
        # state's v[-1] keeps it while the slope's u-row is clamped there
        (3, 2.0, 0.7, 0.4, 1.0, "split", 24.0, 400, 8.0, False, False, "completed", 1e-300),
    ],
    ids=["n3-a-blowup", "n3-ab-blowup", "n2-ab", "n5-b", "n3-linear-series",
         "n3-ab-bump", "n3-ab-outer-v"],
)
def test_evolve_bit_identical_to_plain_rk4(n, p, a, b, eps, assigns, rmax, cells,
                                           t_end, linear, source, status, v_outer):
    g = gl.RadialGrid(r_max=rmax, num_cells=cells)
    sp = spec(n=n, p=p, a=a, b=b)
    data = gl.make_profile(gaussian_profile(eps=eps, assigns=assigns), g)
    u1 = data.u1
    if v_outer is not None:
        u1 = u1.values.copy()
        u1[-1] = v_outer
        u1 = gl.RadialField(g, u1)
    forcing = _FORCINGS[source](g) if source else None
    kwargs = dict(forcing=forcing, linear_only=linear, cfl=0.25)
    out = gl.evolve(sp, data.u0, u1, g, t_end, forcing_support=6.0 if source else 0.0,
                    sample_stride=10, **kwargs)
    assert out.status == status
    _assert_same_run(out, _reference_rk4(sp, data.u0, u1, g, t_end, stride=10, **kwargs))
    # the outer node is clamped: both rows keep their data values there
    assert np.all(out.trajectory.u[:, -1] == data.u0.values[-1])
    assert np.all(out.trajectory.v[:, -1] == u1.values[-1])


_DETECTOR_GRID = gl.RadialGrid(r_max=12.0, num_cells=240)


def _origin_spike():
    # u = 1 at r = 0 only: the one-sided origin row, 3/(2 dr), is the largest
    # |u_r| and outgrows |v| on each of the 4 short steps
    g = _DETECTOR_GRID
    u0 = np.zeros(g.num_cells + 1)
    u0[0] = 1.0
    return g, gl.RadialField(g, u0), gl.RadialField.zeros(g), dict(t_end=0.01, cfl=0.05,
                                                                   stride=1)


def _overflow():
    # |v|^p overflows to inf on the first stage
    g = _DETECTOR_GRID
    v = np.zeros(g.num_cells + 1)
    v[20] = 1e300
    return g, gl.RadialField.zeros(g), gl.RadialField(g, v), {}


def _nan_gradient_finite_v():
    # u overflows to inf at nodes 4 and 6 while v stays finite, so u_r at
    # node 5 is inf - inf = NaN: the NaN alone makes the size non-finite,
    # and the run stops with peak inf
    g = gl.RadialGrid(r_max=16.0, num_cells=16)
    v = np.zeros(g.num_cells + 1)
    v[4] = v[6] = 5e307
    return g, gl.RadialField.zeros(g), gl.RadialField(g, v), dict(t_end=1.0)


def _nan_at_one_stage():
    # a NaN forcing row at the midpoint stage time of step 8 only
    g = _DETECTOR_GRID
    data = gl.make_profile(gaussian_profile(eps=0.3, assigns="split"), g)
    dt = 2.0 / 160  # 240 cells on rmax 12, t_end 2: 160 steps at cfl 0.25

    def forcing(t):
        row = np.zeros(g.num_cells + 1)
        if t == 7 * dt + 0.5 * dt:
            row[10] = np.nan
        return row

    return g, data.u0, data.u1, dict(forcing=forcing)


def _crossing_on_a_sample_step():
    # every step is a sample step, so the crossing step's state is not stored
    g = _DETECTOR_GRID
    data = gl.make_profile(gaussian_profile(eps=8.0, assigns="to_u1"), g)
    return g, data.u0, data.u1, dict(stride=1)


@pytest.mark.parametrize(
    "setup, p, a, status",
    [
        (_origin_spike, 2.0, 0.5, "completed"),
        (_overflow, 1.5, 1.0, "blew_up"),
        (_nan_gradient_finite_v, 2.0, 0.0, "blew_up"),
        (_nan_at_one_stage, 2.0, 0.5, "blew_up"),
        (_crossing_on_a_sample_step, 1.5, 1.0, "blew_up"),
    ],
    ids=["origin-row-gradient", "overflow-to-inf", "nan-gradient-finite-v",
         "nan-forcing-one-stage", "crossing-on-sample-step"],
)
def test_blowup_detector_matches_the_written_out_max(setup, p, a, status):
    # the reference takes max(np.max|v|, np.max|u_r|) on freshly built rows
    g, u0, u1, opts = setup()
    sp = spec(p=p, a=a)
    t_end = opts.pop("t_end", 2.0)
    cfl = opts.pop("cfl", 0.25)
    stride = opts.pop("stride", 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = gl.evolve(sp, u0, u1, g, t_end, cfl=cfl, sample_stride=stride, **opts)
    with np.errstate(all="ignore"):
        ref = _reference_rk4(sp, u0, u1, g, t_end, cfl=cfl, stride=stride, **opts)
    assert out.status == status
    _assert_same_run(out, ref)
    if setup is _origin_spike:
        assert out.peak_gradient == 3.0 / (2.0 * g.spacing)
    elif setup is _crossing_on_a_sample_step:
        # states 0..k-1 are stored, the crossing state k is not
        steps = round(out.t_blowup / (t_end / 160))
        assert out.trajectory.times.size == steps
        assert out.trajectory.times[-1] < out.t_blowup
    else:
        assert out.peak_gradient == math.inf
    if setup is _nan_at_one_stage:
        assert out.t_blowup == 8 * (t_end / 160)


# ---------------------------------------------------------------------------
# zero-data source solves (duhamel)
# ---------------------------------------------------------------------------

def _source_solve(forcing, t_end, sp, g, **kwargs):
    z = gl.RadialField.zeros(g)
    return gl.evolve(sp, z, z, g, t_end, forcing=forcing, linear_only=True,
                     **kwargs).trajectory


def test_duhamel_zero_forcing():
    g = gl.RadialGrid(r_max=8.0, num_cells=200)
    traj = _source_solve(lambda t: np.zeros(201), 2.0, spec(a=0.0, b=0.0), g)
    assert all(not np.any(u) for u in traj.u)


def test_duhamel_linearity():
    g = gl.RadialGrid(r_max=8.0, num_cells=400)
    sp = spec(a=0.0, b=0.0)
    fa = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                        t_on=0.0, t_off=1.0)
    fb = gl.ForcingSpec(amplitude=0.6, space_center=1.0, space_width=0.8,
                        t_on=0.2, t_off=1.4)
    ca, cb = fa.callable_on(g), fb.callable_on(g)
    Ia = _source_solve(ca, 2.0, sp, g, forcing_support=2.0)
    Ib = _source_solve(cb, 2.0, sp, g, forcing_support=2.0)
    Iab = _source_solve(lambda t: ca(t) + cb(t), 2.0, sp, g, forcing_support=2.0)
    scale = max(np.max(np.abs(u)) for u in Iab.u)
    for ua, ub, uc in zip(Ia.u, Ib.u, Iab.u):
        assert np.max(np.abs(ua + ub - uc)) <= 1e-10 * scale


def test_duhamel_residual_second_order():
    sp = spec(a=0.0, b=0.0)

    def residual(cells):
        g = gl.RadialGrid(r_max=8.0, num_cells=cells)
        f = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                           t_on=0.0, t_off=1.0)
        traj = _source_solve(f.callable_on(g), 2.0, sp, g, forcing_support=1.0,
                       sample_stride=1)
        ts = traj.times
        dt = ts[1] - ts[0]
        shape = f.shape(g)
        num = den = 0.0
        for k in range(1, len(ts) - 1):
            u_pp = (traj.u[k + 1] - 2.0 * traj.u[k] + traj.u[k - 1]) / dt**2
            lap = _laplacian_values(traj.u[k], g, 3)
            F = f.envelope(ts[k]) * shape
            num += gl.weighted_l2(gl.RadialField(g, u_pp - lap - F), 3, 0, 0) ** 2 * dt
            den += gl.weighted_l2(gl.RadialField(g, F), 3, 0, 0) ** 2 * dt
        return math.sqrt(num / den)

    r1, r2 = residual(200), residual(400)
    assert r1 <= 5.0 * 4e-4  # frozen reference magnitude at 200 cells
    assert math.log2(r1 / r2) >= 1.8


@pytest.mark.parametrize("t_end, cells, cfl, stride, steps", [
    (2.0, 200, 0.25, 10, 200),
    (2.0, 200, 0.3, 7, 168),   # ceil(166.7) = 167 steps, rounded up to 24 strides
    (1.5, 150, 0.5, 4, 60),    # ceil(56.25) = 57 steps, rounded up to 15 strides
    (0.01, 100, 0.25, 3, 3),   # under one cfl step: one stride
])
def test_step_count_is_the_sample_spacing_of_evolve(t_end, cells, cfl, stride, steps):
    g = gl.RadialGrid(r_max=8.0, num_cells=cells)
    z = gl.RadialField.zeros(g)
    assert step_count(t_end, g, cfl, stride) == steps
    times = gl.evolve(spec(), z, z, g, t_end, cfl=cfl, sample_stride=stride).trajectory.times
    dt = t_end / steps
    assert times.tolist() == [j * stride * dt for j in range(steps // stride + 1)]


def test_step_underflow():
    g = gl.RadialGrid(r_max=8.0, num_cells=200)
    z = gl.RadialField.zeros(g)
    with pytest.raises(gl.StepUnderflow):
        gl.evolve(spec(), z, z, g, 1e-12, sample_stride=10)


# ---------------------------------------------------------------------------
# the RK4 step bound of the stencil
# ---------------------------------------------------------------------------

def _free_wave(n, cfl):
    g = gl.RadialGrid(r_max=20.0, num_cells=400)
    data = gl.make_profile(gaussian_profile(), g)
    return gl.evolve(spec(n=n, a=0.0, b=0.0), data.u0, data.u1, g, 10.0,
                     linear_only=True, cfl=cfl)


@pytest.mark.parametrize("n, cfl", [(8, 0.75), (64, 0.25), (16, 0.5)])
def test_evolve_refuses_a_step_past_the_stencil_bound(n, cfl):
    # n = 8 and n = 64 used to report blew_up (t 2.56 and 7.05), a blow-up of
    # RK4 and not of the free wave; n = 64 sits exactly on its bound 0.25,
    # and n = 16's bound is 0.49999999, a hair below the lifespan step
    with pytest.raises(gl.PreconditionViolation, match="stability bound"):
        _free_wave(n, cfl)


@pytest.mark.parametrize("n, cfl", [(7, 0.75), (60, 0.25), (3, 0.75), (12, 0.5)])
def test_evolve_takes_a_step_inside_the_stencil_bound(n, cfl):
    assert _free_wave(n, cfl).status == "completed"


@pytest.mark.parametrize("n, bound", [(2, 1.285), (8, 0.707), (16, 0.500)])
def test_stable_cfl_is_the_measured_bound(n, bound):
    for cells in (400, 960):
        assert round(stable_cfl(gl.RadialGrid(r_max=20.0, num_cells=cells), n), 3) == bound


def test_gershgorin_fast_path_is_inside_the_exact_bound():
    # (omega_max dr)^2 <= 4n, so a cfl below sqrt(2/n) needs no eigen solve
    g = gl.RadialGrid(r_max=20.0, num_cells=400)
    for n in list(range(2, 40)) + [64, 200, 1000]:
        assert math.sqrt(2.0 / n) <= stable_cfl(g, n)


def test_default_runs_do_not_import_scipy(tmp_path):
    # the step check takes the Gershgorin path at n = 3, so lifespan and
    # picard runs at their default step and a default solve never load scipy
    src = os.path.dirname(os.path.dirname(gl.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from glassey_lab.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['lifespan', '--n', '3', '--p', '1.5', '--eps-list', '1.4,2,2.8,4',\n"
        "             '--horizon', '15', '--rmax', '23', '--ladder', '160,320',\n"
        "             '--out', out + '/life']) == 0\n"
        "assert main(['picard', '--n', '3', '--p', '2.5', '--eps', '0.05',\n"
        "             '--assigns', 'split', '--rmax', '10', '--cells', '160',\n"
        "             '--t-end', '2', '--out', out + '/picard']) == 0\n"
        "assert main(['solve', '--out', out + '/solve']) == 0\n"
        "sys.exit('scipy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          stdout=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == 0
