import math

import numpy as np
import pytest

import glassey_lab as gl
from glassey_lab.core import _laplacian_values


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

def test_nonlinearity_constant_v():
    g = gl.RadialGrid(r_max=12.0, num_cells=300)
    z = gl.RadialField.zeros(g)
    two = gl.RadialField(g, np.full(301, 2.0))
    st = gl.WaveState(0.0, z, two)
    nl = gl.nonlinearity(st, spec(p=2.5, a=1.0, b=0.0))
    assert np.allclose(nl.values, 2.0**2.5)
    nl0 = gl.nonlinearity(st, spec(p=2.5, a=0.0, b=0.0))
    assert not np.any(nl0.values)


def test_nonlinearity_pointwise_bound():
    g = gl.RadialGrid(r_max=12.0, num_cells=400)
    rng = np.random.default_rng(11)
    sp = spec(p=1.8, a=0.7, b=-0.4)
    for _ in range(20):
        u = gl.RadialField(g, rng.normal(size=401) * np.exp(-g.nodes))
        v = gl.RadialField(g, rng.normal(size=401) * np.exp(-g.nodes))
        st = gl.WaveState(0.0, u, v)
        nl = gl.nonlinearity(st, sp)
        du = gl.radial_derivative(u)
        cap = (abs(sp.a) + abs(sp.b)) * np.maximum(
            np.abs(v.values), np.abs(du.values)
        ) ** sp.p
        assert np.all(np.abs(nl.values) <= cap + 1e-12)


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


def test_exact_free_n3_identity_and_zero():
    g = gl.RadialGrid(r_max=12.0, num_cells=800)
    data = gl.make_profile(gaussian_profile(), g)
    st = gl.exact_free_n3(data.u0, data.u1, 0.0, g)
    assert np.max(np.abs(st.u.values - data.u0.values)) <= 1e-10
    assert np.max(np.abs(st.v.values - data.u1.values)) <= 1e-10
    z = gl.RadialField.zeros(g)
    st0 = gl.exact_free_n3(z, z, 3.0, g)
    assert not np.any(st0.u.values) and not np.any(st0.v.values)


def test_exact_free_n3_energy_conserved():
    g = gl.RadialGrid(r_max=12.0, num_cells=16000)
    data = gl.make_profile(gaussian_profile(), g)
    e0 = gl.energy(gl.WaveState(0.0, data.u0, data.u1), 3)
    for t in (0.5, 1.0, 2.0):
        st = gl.exact_free_n3(data.u0, data.u1, t, g)
        assert gl.energy(st, 3) == pytest.approx(e0, rel=1e-6)


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
    exact = gl.exact_free_n3(data.u0, data.u1, 1.0, g)
    fin_u = out.trajectory.u[-1]
    err = gl.weighted_l2(gl.RadialField(g, fin_u - exact.u.values), 3, 0, 0)
    ref = gl.weighted_l2(exact.u, 3, 0, 0)
    assert err / ref <= 1e-3


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
    traj = out.trajectory
    energies = [gl.energy(gl.WaveState(t, gl.RadialField(g, u), gl.RadialField(g, v)), 3)
                for t, u, v in zip(traj.times, traj.u, traj.v)]
    e0 = energies[0]
    drift = max(abs(e / e0 - 1.0) for e in energies)
    assert drift <= 1e-5


def test_energy_scaling():
    g = gl.RadialGrid(r_max=12.0, num_cells=300)
    data = gl.make_profile(gaussian_profile(), g)
    st = gl.WaveState(0.0, data.u0, data.u1)
    st2 = gl.WaveState(0.0, data.u0.scaled(2.0), data.u1.scaled(2.0))
    assert gl.energy(st2, 3) == pytest.approx(4.0 * gl.energy(st, 3), rel=1e-12)
    z = gl.RadialField.zeros(g)
    assert gl.energy(gl.WaveState(0.0, z, z), 3) == 0.0


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
            lap = _laplacian_values(traj.u[k], g.nodes, g.spacing, 3)
            F = f.envelope(ts[k]) * shape
            num += gl.weighted_l2(gl.RadialField(g, u_pp - lap - F), 3, 0, 0) ** 2 * dt
            den += gl.weighted_l2(gl.RadialField(g, F), 3, 0, 0) ** 2 * dt
        return math.sqrt(num / den)

    r1, r2 = residual(200), residual(400)
    assert r1 <= 5.0 * 4e-4  # frozen reference magnitude at 200 cells
    assert math.log2(r1 / r2) >= 1.8


def test_step_underflow():
    g = gl.RadialGrid(r_max=8.0, num_cells=200)
    z = gl.RadialField.zeros(g)
    with pytest.raises(gl.StepUnderflow):
        gl.evolve(spec(), z, z, g, 1e-12, sample_stride=10)
