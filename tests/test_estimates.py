import math

import numpy as np
import pytest

import glassey_lab as gl
from glassey_lab import estimates
from oracles import energy_ineq_check


def grid(cells=1200, rmax=12.0):
    return gl.RadialGrid(r_max=rmax, num_cells=cells)


# the grid of the seeded suites here: r_max = estimates.SAMPLE_R_MAX, 2400 cells
SUITE_GRID = dict(r_max=12.0, num_cells=2400)


# ---------------------------------------------------------------------------
# random fields
# ---------------------------------------------------------------------------

def test_random_radial_deterministic():
    g = grid()
    a = gl.random_radial(42, g, 5)
    b = gl.random_radial(42, g, 5)
    assert np.array_equal(a.values, b.values)
    c = gl.random_radial(43, g, 5)
    assert not np.array_equal(a.values, c.values)


def test_random_radial_single_gaussian_finite():
    g = grid()
    f = gl.random_radial(7, g, 1)
    lam = gl.lambda_norms(f, gl.RadialField.zeros(g), 3)
    assert math.isfinite(lam.lambda1) and lam.lambda1 > 0.0


def test_random_radial_num_terms_gate():
    g = grid()
    with pytest.raises(gl.PreconditionViolation):
        gl.random_radial(7, g, 0)
    with pytest.raises(gl.PreconditionViolation):
        gl.random_radial(7, g, 21)


def test_random_fields_have_finite_norms():
    g = grid()
    for seed in range(200):
        f = gl.random_radial(seed, g, 1 + seed % 6)
        nf = gl.weighted_l2(f, 3, 0.0, 0.0)
        nd = gl.weighted_l2(gl.radial_derivative(f), 3, 0.0, 0.0)
        nr = gl.weighted_l2(f, 3, -1.0, 0.0)
        assert all(math.isfinite(x) for x in (nf, nd, nr))


def test_random_compact_supported():
    g = grid()
    f = gl.random_compact(5, g, 4)
    assert np.all(f.values[g.nodes >= 0.75 * g.r_max] == 0.0)


# ---------------------------------------------------------------------------
# Hardy
# ---------------------------------------------------------------------------

def test_hardy_s_zero_ratio_one(gaussian12):
    s = gl.hardy_check(gaussian12, 3, 0.0)
    assert s.ratio == pytest.approx(1.0, abs=1e-12)
    assert s.bound == 1.0


def test_hardy_gaussian_golden(gaussian12):
    s = gl.hardy_check(gaussian12, 3, 1.0)
    assert s.ratio == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-3)
    assert s.bound == 2.0
    assert not s.violation


def test_hardy_zero_field_rejected(grid12):
    with pytest.raises(gl.PreconditionViolation, match="zero denominator"):
        gl.hardy_check(gl.RadialField.zeros(grid12), 3, 0.5)


def test_hardy_hypothesis_gate(gaussian12):
    with pytest.raises(gl.PreconditionViolation):
        gl.hardy_check(gaussian12, 3, 1.5)
    with pytest.raises(gl.PreconditionViolation):
        gl.hardy_check(gaussian12, 2, 1.0)  # s < 1 required in the plane


@pytest.mark.parametrize("n,s", [(3, 0.5), (3, 1.0), (4, 1.0), (2, 0.5)])
def test_hardy_sweep_no_violations(n, s):
    samples = gl.run_ineq_suite("hardy", n, s, 60, 7, **SUITE_GRID)
    assert len(samples) == 60
    assert not any(x.violation for x in samples)


# ---------------------------------------------------------------------------
# trace and its compact variant
# ---------------------------------------------------------------------------

def test_trace_scaling_invariance(gaussian12):
    s1 = gl.trace_check(gaussian12, 3, 0.5)
    s7 = gl.trace_check(gl.RadialField(gaussian12.grid, 7.0 * gaussian12.values), 3, 0.5)
    assert s7.ratio == pytest.approx(s1.ratio, rel=1e-12)


def test_trace_gaussian_golden(goldens, gaussian12):
    value, _, tol = goldens["trace_ratio_gaussian_n3_s05"]
    s = gl.trace_check(gaussian12, 3, 0.5)
    assert s.ratio == pytest.approx(value, abs=tol)


def test_trace_sweep_finite():
    samples = gl.run_ineq_suite("trace", 3, 0.5, 200, 3, **SUITE_GRID)
    assert all(math.isfinite(x.ratio) for x in samples)
    assert all(x.bound is None for x in samples)


def test_trace_zero_rejected(grid12):
    with pytest.raises(gl.PreconditionViolation, match="zero denominator"):
        gl.trace_check(gl.RadialField.zeros(grid12), 3, 0.5)


def test_trace_variant_zero_rejected(grid12):
    with pytest.raises(gl.PreconditionViolation, match="zero denominator"):
        gl.trace_variant_check(gl.RadialField.zeros(grid12), 2, 0.0)


def test_trace_variant_use_site():
    # planar subthreshold use: s = (3 - p)/4 at p = 2.5 on a smooth bump
    g = grid()
    prof = gl.DataProfile(family="smooth_bump", epsilon=1.0, width=3.0, center=0.0,
                          assigns="to_u0")
    f = gl.make_profile(prof, g).u0
    s = gl.trace_variant_check(f, 2, (3.0 - 2.5) / 4.0)
    assert s.ratio <= math.sqrt(2.0) * (1.0 + 1e-3)


@pytest.mark.parametrize("n,s", [(2, 0.0), (2, 0.25), (3, 0.0), (3, 0.25)])
def test_trace_variant_sweep_no_violations(n, s):
    samples = gl.run_ineq_suite("trace_variant", n, s, 60, 11, **SUITE_GRID)
    assert not any(x.violation for x in samples)


# ---------------------------------------------------------------------------
# KSS checks
# ---------------------------------------------------------------------------

def test_kss_hom_zero_data_rejected():
    g = grid()
    z = gl.RadialField.zeros(g)
    with pytest.raises(gl.PreconditionViolation, match="zero data"):
        gl.kss_hom_check(z, z, 3, 0.3, 0.2, [1.0])


def _no_solve(*args, **kwargs):
    raise AssertionError("the weights must be checked before the solve")


def test_kss_hom_rejects_weights_before_solving(monkeypatch):
    data = gl.make_profile(gl.DataProfile(family="gaussian", epsilon=1.0), grid())
    monkeypatch.setattr(estimates, "evolve", _no_solve)
    with pytest.raises(gl.PreconditionViolation):
        gl.kss_hom_check(data.u0, data.u1, 3, 0.0, -0.1, [1.0])


def test_kss_hom_band_n3():
    g = gl.RadialGrid(r_max=24.0, num_cells=960)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    samples = gl.kss_hom_check(data.u0, data.u1, 3, 0.3, 0.2, [1.0, 4.0, 16.0])
    assert gl.kss_band_ok(samples)
    assert set(samples[0].params) >= {"e1", "le1", "deriv", "field", "log", "horizon"}
    # the data size is lambda_norms' lambda1, bit for bit
    lam = gl.lambda_norms(data.u0, data.u1, 3).lambda1
    assert [s.ratio for s in samples] == [(s.params["e1"] + s.params["le1"]) / lam
                                          for s in samples]


def test_kss_hom_band_n2_reduced():
    g = gl.RadialGrid(r_max=24.0, num_cells=960)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    samples = gl.kss_hom_check(data.u0, data.u1, 2, 0.25, 0.0, [1.0, 4.0, 16.0])
    assert all(math.isfinite(s.ratio) for s in samples)
    assert gl.kss_band_ok(samples)
    assert "field" not in samples[0].params


# the gate holds a ratio up to KSS_BAND above the smallest-T one, in any order
@pytest.mark.parametrize("later, ok", [(1.25, True), (1.2500001, False), (0.5, True)])
def test_kss_band_ok_judges_every_ratio_by_kss_band(later, ok):
    samples = [gl.IneqSample("kss_hom", {"T": T}, ratio)
               for T, ratio in ((4.0, later), (1.0, 1.0))]
    assert estimates.KSS_BAND == 0.25
    assert gl.kss_band_ok(samples) is ok


def test_kss_band_ok_refuses_an_empty_sample_list():
    # it read the smallest-T ratio as ordered[0], an IndexError
    with pytest.raises(gl.PreconditionViolation, match="the sample list is empty"):
        gl.kss_band_ok([])


def test_kss_inhom_n2_gate():
    f = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=0.5)
    with pytest.raises(gl.PreconditionViolation):
        gl.kss_inhom_check(f, gl.RadialGrid(r_max=12.0, num_cells=240), 2, 0.3, 0.2, [1.0])


def test_kss_inhom_rejects_weights_before_solving(monkeypatch):
    f = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=0.5)
    monkeypatch.setattr(estimates, "evolve", _no_solve)
    with pytest.raises(gl.PreconditionViolation):
        gl.kss_inhom_check(f, gl.RadialGrid(r_max=12.0, num_cells=240), 3, 0.3, 0.3, [1.0])


def test_kss_inhom_zero_forcing_rejected():
    f = gl.ForcingSpec(amplitude=0.0, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=0.5)
    with pytest.raises(gl.PreconditionViolation, match="zero forcing"):
        gl.kss_inhom_check(f, gl.RadialGrid(r_max=12.0, num_cells=240), 3, 0.3, 0.2, [1.0])


def test_kss_inhom_reads_each_horizon_as_a_solve_to_it_alone():
    # on this grid each horizon steps at dt = 0.025, so the solve to a
    # shorter horizon is a prefix of the solve to T = 100
    f = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=0.5)
    grid = gl.RadialGrid(r_max=103.5, num_cells=2070)
    samples = gl.kss_inhom_check(f, grid, 3, 0.3, 0.2, [100.0, 1.0, 10.0])
    assert [s.params["T"] for s in samples] == [1.0, 10.0, 100.0]
    for s in samples:
        alone = gl.kss_inhom_check(f, grid, 3, 0.3, 0.2, [s.params["T"]])
        assert alone == [s]  # params carry the horizon's norms, so they match too


def test_kss_inhom_band_small():
    f = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=0.5)
    grid = gl.RadialGrid(r_max=19.5, num_cells=390)
    samples = gl.kss_inhom_check(f, grid, 3, 0.3, 0.2, [1.0, 4.0, 16.0])
    assert gl.kss_band_ok(samples)


# ---------------------------------------------------------------------------
# energy inequality
# ---------------------------------------------------------------------------

def test_energy_ineq_conservation_case():
    g = gl.RadialGrid(r_max=16.0, num_cells=800)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    f0 = gl.ForcingSpec(amplitude=0.0, space_center=0.0, space_width=1.0,
                        t_on=0.0, t_off=1.0)
    s = energy_ineq_check(data.u0, data.u1, f0, 3, 6.0)
    assert s.ratio == pytest.approx(1.0, abs=1e-5)


def test_energy_ineq_forced_bound_and_scaling():
    g = gl.RadialGrid(r_max=16.0, num_cells=800)
    prof = gl.DataProfile(family="gaussian", epsilon=0.5, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    f = gl.ForcingSpec(amplitude=0.5, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=1.0)
    s = energy_ineq_check(data.u0, data.u1, f, 3, 6.0)
    assert s.ratio <= 2.05

    data2 = gl.ProfileData(u0=gl.RadialField(data.u0.grid, 2.0 * data.u0.values),
                           u1=gl.RadialField(data.u1.grid, 2.0 * data.u1.values))
    f2 = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                        t_on=0.0, t_off=1.0)
    s2 = energy_ineq_check(data2.u0, data2.u1, f2, 3, 6.0)
    assert s2.ratio == pytest.approx(s.ratio, rel=1e-6)


def test_free_solve_is_the_forced_linear_evolve():
    g = gl.RadialGrid(r_max=16.0, num_cells=400)
    data = gl.make_profile(gl.DataProfile(family="gaussian", epsilon=0.5,
                                          assigns="split"), g)
    f = gl.ForcingSpec(amplitude=0.5, space_center=1.0, space_width=1.0,
                       t_on=0.0, t_off=1.0)
    step = dict(cfl=0.25, sample_stride=10)
    traj = estimates._free_solve(data.u0, data.u1, 3, 5.0, f, **step)
    direct = gl.evolve(gl.ProblemSpec(n_dim=3, p=2.0, a=0.0, b=0.0), data.u0, data.u1,
                       g, 5.0, forcing=f.callable_on(g), **step).trajectory
    for name in ("times", "u", "v"):
        assert np.array_equal(getattr(traj, name), getattr(direct, name))


@pytest.mark.parametrize("amplitude", [1.0, 0.0])
def test_energy_ineq_forcing_support_enters_causality(amplitude):
    # data support ~5.7 + T 4 + margin 2 fits in r_max 12; the source's
    # support 7 does not, even when its amplitude is zero
    g = gl.RadialGrid(r_max=12.0, num_cells=480)
    data = gl.make_profile(gl.DataProfile(family="gaussian", epsilon=1.0), g)
    f = gl.ForcingSpec(amplitude=amplitude, space_center=6.0, space_width=1.0,
                       t_on=0.0, t_off=1.0)
    with pytest.raises(gl.PreconditionViolation, match="causality"):
        energy_ineq_check(data.u0, data.u1, f, 3, 4.0)


# ---------------------------------------------------------------------------
# suite plumbing
# ---------------------------------------------------------------------------

def test_suite_rows_and_determinism():
    a = gl.run_ineq_suite("hardy", 3, 1.0, 10, 7, **SUITE_GRID)
    b = gl.run_ineq_suite("hardy", 3, 1.0, 10, 7, **SUITE_GRID)
    assert [x.ratio for x in a] == [x.ratio for x in b]
    assert [x.seed for x in a] == list(range(7, 17))
    row = a[0].row()
    assert row["lemma_id"] == "hardy" and row["n"] == 3 and row["violation"] is False


@pytest.mark.parametrize("lemma, n, s", [("hardy", 3, 0.5), ("trace", 3, 0.75),
                                         ("trace_variant", 2, 0.125)])
def test_suite_ratios_on_a_short_grid_are_those_of_r_max_12(lemma, n, s):
    # below SAMPLE_R_MAX the draws are the r_max = 12 family rescaled, and
    # every suite ratio is dilation-invariant
    assert estimates.SAMPLE_R_MAX == 12.0
    short = gl.run_ineq_suite(lemma, n, s, 8, 5, r_max=3.0, num_cells=2400)
    full = gl.run_ineq_suite(lemma, n, s, 8, 5, r_max=12.0, num_cells=2400)
    for a, b in zip(short, full):
        assert a.ratio == pytest.approx(b.ratio, rel=1e-12, abs=0.0)


def test_suite_parallel_matches_serial():
    a = gl.run_ineq_suite("hardy", 3, 0.5, 12, 3, **SUITE_GRID, jobs=1)
    b = gl.run_ineq_suite("hardy", 3, 0.5, 12, 3, **SUITE_GRID, jobs=2)
    assert [x.ratio for x in a] == [x.ratio for x in b]
