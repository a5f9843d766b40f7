from dataclasses import replace

import numpy as np
import pytest

import glassey_lab as gl

def make_setup(eps=0.05, p=2.5, cells=800, rmax=16.0, a=1.0, b=0.0):
    spec = gl.ProblemSpec(n_dim=3, p=p, a=a, b=b)
    g = gl.RadialGrid(r_max=rmax, num_cells=cells)
    prof = gl.DataProfile(family="gaussian", epsilon=eps, width=1.0, center=0.0,
                          assigns="split")
    data = gl.make_profile(prof, g)
    return spec, g, data


def free(spec):
    return replace(spec, a=0.0, b=0.0)


def test_phi_map_free_when_nonlinearity_off():
    spec, g, data = make_setup(a=0.0, b=0.0)
    wave = gl.evolve(spec, data.u0, data.u1, g, 4.0).trajectory
    mapped = gl.phi_map(spec, wave, data.u0, data.u1, 4.0)
    for ua, va, ub, vb in zip(wave.u, wave.v, mapped.u, mapped.v):
        assert np.array_equal(ua, ub)
        assert np.array_equal(va, vb)


def test_phi_map_zero_everything():
    spec, g, _ = make_setup(a=1.0)
    z = gl.RadialField.zeros(g)
    zero_traj = gl.evolve(free(spec), z, z, g, 4.0).trajectory
    mapped = gl.phi_map(spec, zero_traj, z, z, 4.0)
    assert all(not np.any(u) for u in mapped.u)


def test_phi_map_superposition():
    # phi[u] - free solve equals the zero-data source solve driven by N[u]
    spec, g, data = make_setup(eps=0.2)
    wave = gl.evolve(free(spec), data.u0, data.u1, g, 4.0).trajectory
    mapped = gl.phi_map(spec, wave, data.u0, data.u1, 4.0)
    from glassey_lab.picard import sampled_nonlinearity

    z = gl.RadialField.zeros(g)
    forced = gl.evolve(free(spec), z, z, g, 4.0,
                       forcing=sampled_nonlinearity(spec, wave)).trajectory
    scale = max(np.max(np.abs(u)) for u in mapped.u)
    for um, uf, ufr in zip(mapped.u, forced.u, wave.u):
        resid = um - (ufr + uf)
        assert np.max(np.abs(resid)) <= 1e-10 * scale


def test_default_step_keeps_the_sample_times():
    # cfl 0.5 with stride 5 samples at the times of cfl 0.25 with stride 10,
    # so the trace moves only by RK4's time error
    spec, g, data = make_setup(eps=0.05, cells=400)
    new = gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=4, tol=1e-10)
    old = gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=4, tol=1e-10,
                        cfl=0.25, sample_stride=10)
    assert np.array_equal(new.final.times, old.final.times)
    assert len(new.trace) == len(old.trace) == 4
    for a, b in zip(new.trace, old.trace):
        for name in ("e1", "e2", "le1", "le2"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-6, abs=0.0)

    def ratios(res):
        return [b.rho_step / a.rho_step for a, b in zip(res.trace, res.trace[1:])]

    assert ratios(new) == pytest.approx(ratios(old), rel=1e-3, abs=0.0)


def test_picard_trivial_linear_case():
    spec, g, data = make_setup(a=0.0, b=0.0)
    res = gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=5, tol=1e-10)
    assert res.converged
    assert len(res.trace) == 1
    assert res.trace[0].rho_step <= 1e-12


def test_picard_contracts_small_data():
    spec, g, data = make_setup(eps=0.05)
    res = gl.picard_run(spec, data.u0, data.u1, 6.0, max_iters=10, tol=1e-8)
    assert res.converged
    rhos = [t.rho_step for t in res.trace]
    for r0, r1 in zip(rhos, rhos[1:]):
        assert r1 / r0 <= 0.9


def test_picard_trace_is_the_norm_report_of_the_final_iterate():
    spec, g, data = make_setup(eps=0.05, cells=400)
    res = gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=3, tol=1e-10)
    last, report = res.trace[-1], gl.norm_report(res.final, res.weights)
    assert (last.e1, last.e2, last.le1, last.le2) == (
        report.e1, report.e2, report.le1, report.le2)


def test_picard_fixed_point_residual():
    spec, g, data = make_setup(eps=0.05)
    tol = 1e-8
    res = gl.picard_run(spec, data.u0, data.u1, 6.0, max_iters=10, tol=tol)
    again = gl.phi_map(spec, res.final, data.u0, data.u1, 6.0)
    rho = gl.rho_metric(again, res.final, res.weights)
    assert rho <= 2.0 * tol * res.lambda1


def test_picard_iterates_are_solves_of_the_free_spec():
    # each iterate solves a = b = 0 forced by spec's N[u], and says so
    spec, g, data = make_setup(eps=0.05, cells=400)
    res = gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=2, tol=1e-10)
    assert res.final.problem == free(spec) != spec
    assert gl.phi_map(spec, res.final, data.u0, data.u1, 4.0).problem == free(spec)


def test_picard_matches_direct_solve():
    spec, g, data = make_setup(eps=0.05)
    res = gl.picard_run(spec, data.u0, data.u1, 6.0, max_iters=10, tol=1e-8)
    direct = gl.evolve(spec, data.u0, data.u1, g, 6.0).trajectory
    dist = gl.e_norms(gl.trajectory_difference(res.final, direct))
    assert dist <= 1e-3 * res.lambda1


def test_picard_divergence_detected():
    spec, g, data = make_setup(eps=6.0, cells=400)
    with pytest.raises(gl.Divergence) as err:
        gl.picard_run(spec, data.u0, data.u1, 6.0, max_iters=12, tol=1e-8)
    assert isinstance(err.value.trace, tuple)  # trace travels with the failure


def test_picard_contraction_monotone_in_data_size():
    worst = []
    for eps in (0.1, 0.05, 0.025):
        spec, g, data = make_setup(eps=eps, cells=400)
        res = gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=8, tol=1e-10)
        rhos = [t.rho_step for t in res.trace]
        ratios = [b / a for a, b in zip(rhos, rhos[1:])]
        worst.append(max(ratios))
    assert worst[1] <= worst[0] and worst[2] <= worst[1]


def test_picard_refuses_data_off_the_grid_of_u0():
    # the iteration solves on u0's grid, which u1 must share
    spec, _, data = make_setup(cells=400)
    other = gl.RadialField.zeros(gl.RadialGrid(r_max=16.0, num_cells=200))
    with pytest.raises(gl.PreconditionViolation, match="data must live on the target grid"):
        gl.picard_run(spec, data.u0, other, 4.0)


def test_picard_iter_gate():
    spec, g, data = make_setup()
    with pytest.raises(gl.PreconditionViolation):
        gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=1)
    with pytest.raises(gl.PreconditionViolation):
        gl.picard_run(spec, data.u0, data.u1, 4.0, max_iters=60)


def test_default_weights_by_regime():
    w_sup = gl.default_weights(gl.ProblemSpec(n_dim=3, p=2.5, a=1.0, b=0.0), 5.0)
    assert 0.0 < w_sup.delta < 0.5 and w_sup.delta_prime < w_sup.delta
    w_crit = gl.default_weights(gl.ProblemSpec(n_dim=3, p=2.0, a=1.0, b=0.0), 5.0)
    assert w_crit.delta_prime < w_crit.delta
    w_sub = gl.default_weights(gl.ProblemSpec(n_dim=3, p=1.5, a=1.0, b=0.0), 5.0)
    assert w_sub.delta == pytest.approx(0.25)
