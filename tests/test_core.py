import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import glassey_lab as gl
from glassey_lab import core
from glassey_lab.core import (
    _derivative_values,
    _energy_integral,
    _flux_stencil,
    _flux_weights,
    _integrate_to_horizon,
    _laplacian_values,
    _power_cell,
    _quadrature_weight,
    _slopes,
    _weighted_square_integral,
)


def spec(n=3, p=2.0, a=1.0, b=0.0):
    return gl.ProblemSpec(n_dim=n, p=p, a=a, b=b)


# ---------------------------------------------------------------------------
# exponents and weights
# ---------------------------------------------------------------------------

def test_critical_exponents():
    assert spec(n=3, p=1.7).p_critical == 2.0
    assert spec(n=2, p=1.7).p_critical == 3.0
    assert spec(n=3, p=2.0).s_scaling == pytest.approx(1.5)


@pytest.mark.parametrize("offset", [-5e-10, 5e-10])
def test_regime_classifiers_agree_near_threshold(offset):
    # n=3 has p_c = 2; within 1e-9 of it spec.regime says critical, and the
    # weights and the lifespan laws take their critical branch from it
    sp = spec(n=3, p=2.0 + offset)
    assert sp.regime == "critical"
    delta, delta_prime = gl.weight_exponents(sp, s2=0.75)
    assert delta == pytest.approx(0.375) and delta_prime == delta
    # the critical branch pins s1 to 1/2 and reads s2, so (0.5, 1.0) is its
    # default s = 1, not a supercritical window
    assert gl.weight_exponents(sp, 0.5, 1.0) == gl.weight_exponents(sp)
    w = gl.default_weights(sp, 5.0)
    assert w.delta == delta and w.delta_prime == delta - 0.05
    with pytest.raises(gl.PreconditionViolation, match="in the critical regime"):
        gl.predicted_exponent(sp)
    recs = [gl.LifespanRecord(epsilon=e, t_observed=math.exp(2.0 / e), censored=False,
                              num_cells=100, agreement=0.0) for e in (0.5, 0.7, 1.0, 1.5)]
    assert gl.fit_exponential(recs, sp).model == "exponential_rate"


def test_regime_away_from_threshold():
    assert spec(n=3, p=1.5).regime == "subcritical"
    assert spec(n=3, p=2.5).regime == "supercritical"
    assert spec(n=2, p=3.0).regime == "critical"


def test_problem_spec_rejects_bad_inputs():
    with pytest.raises(gl.PreconditionViolation):
        gl.ProblemSpec(n_dim=1, p=2.0)
    with pytest.raises(gl.PreconditionViolation):
        gl.ProblemSpec(n_dim=3, p=1.0)
    with pytest.raises(gl.PreconditionViolation):
        gl.ProblemSpec(n_dim=3, p=float("nan"))


def test_weight_exponents_supercritical():
    delta, delta_prime = gl.weight_exponents(spec(n=3, p=2.2), 0.5, 1.0)
    assert delta == pytest.approx(0.3)
    assert delta_prime == pytest.approx(0.2)


def test_weight_exponents_subcritical_branches():
    assert gl.weight_exponents(spec(n=3, p=1.5))[0] == pytest.approx(0.25)
    assert gl.weight_exponents(spec(n=3, p=1.3))[0] == pytest.approx(0.3)
    assert gl.weight_exponents(spec(n=3, p=1.5), 0.5, 1.0) == (0.25, 0.0)


def test_weight_exponents_critical_reports_log_family():
    delta, delta_prime = gl.weight_exponents(spec(n=3, p=2.0), s2=0.75)
    assert delta == pytest.approx((3 - 1.5) / 4.0)
    assert delta_prime == delta


def test_weight_exponents_window_gate():
    with pytest.raises(gl.PreconditionViolation, match="violates"):
        gl.weight_exponents(spec(n=3, p=2.1), 0.75, 0.95)  # s1 above the pivot 0.59
    with pytest.raises(gl.PreconditionViolation, match="needs s1 and s2"):
        gl.weight_exponents(spec(n=3, p=2.5))
    with pytest.raises(gl.PreconditionViolation, match="needs s in"):
        gl.weight_exponents(spec(n=3, p=2.0), s2=0.5)


@pytest.mark.parametrize("n,p,s1,s2", [(3, 2.2, 0.5, 1.0), (3, 2.7, 0.5, 0.95),
                                       (4, 1.9, 0.5, 0.95), (5, 1.6, 0.75, 0.95)])
def test_weight_exponents_always_admissible(n, p, s1, s2):
    delta, delta_prime = gl.weight_exponents(spec(n=n, p=p), s1, s2)
    assert 0.0 < delta < 0.5
    assert delta_prime < delta


def test_weight_params_gate():
    with pytest.raises(gl.PreconditionViolation):
        gl.WeightParams(delta=0.6, delta_prime=0.1, horizon=1.0)
    with pytest.raises(gl.PreconditionViolation):
        gl.WeightParams(delta=0.3, delta_prime=0.3, horizon=1.0)
    with pytest.raises(gl.PreconditionViolation):
        gl.WeightParams(delta=0.3, delta_prime=0.1, horizon=0.0)


# ---------------------------------------------------------------------------
# grid, fields, trajectories
# ---------------------------------------------------------------------------

def test_grid_nodes_uniform():
    g = gl.RadialGrid(r_max=10.0, num_cells=100)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 10.0
    assert np.allclose(np.diff(g.nodes), g.spacing)
    with pytest.raises(gl.PreconditionViolation):
        gl.RadialGrid(r_max=10.0, num_cells=8)


def test_grid_refuses_a_node_array_numpy_cannot_index():
    # the most cells whose float64 nodes numpy can index; the nodes are built
    # on first use, so the grid is made without allocating them
    limit = np.iinfo(np.intp).max // 8 - 1
    assert gl.RadialGrid(r_max=1.0, num_cells=limit).num_cells == limit
    for cells in (limit + 1, 10**22):
        with pytest.raises(gl.PreconditionViolation,
                           match=re.escape(f"num_cells {cells:.3g} is past the node arrays")):
            gl.RadialGrid(r_max=1.0, num_cells=cells)


def test_field_validation():
    g = gl.RadialGrid(r_max=10.0, num_cells=100)
    with pytest.raises(gl.PreconditionViolation):
        gl.RadialField(g, np.zeros(5))
    bad = np.zeros(101)
    bad[3] = np.nan
    with pytest.raises(gl.PreconditionViolation):
        gl.RadialField(g, bad)
    f = gl.RadialField(g, np.ones(101))
    assert not f.values.flags.writeable


def test_trajectory_gap_invariant():
    g = gl.RadialGrid(r_max=10.0, num_cells=100)
    z = np.zeros((3, 101))
    traj = gl.Trajectory(spec(), g, np.array([0.0, 0.5, 1.0]), z, z)
    assert traj.t_end == 1.0
    assert traj.dt_sample == 0.5
    with pytest.raises(gl.PreconditionViolation):
        gl.Trajectory(spec(), g, np.array([0.0, 0.5, 1.5]), z, z)
    with pytest.raises(gl.PreconditionViolation):
        gl.Trajectory(spec(), g, np.array([0.0, 1.0, 0.5]), z, z)


def test_trajectory_rejects_non_finite_values():
    g = gl.RadialGrid(r_max=10.0, num_cells=100)
    u = np.zeros((2, 101))
    u[1, 7] = np.nan
    with pytest.raises(gl.PreconditionViolation):
        gl.Trajectory(spec(), g, np.array([0.0, 1.0]), u, np.zeros((2, 101)))
    with pytest.raises(gl.PreconditionViolation):
        gl.Trajectory(spec(), g, np.array([0.0, 1.0]), np.zeros((2, 101)), u)


def test_trajectory_rejects_wrong_row_length():
    g = gl.RadialGrid(r_max=10.0, num_cells=100)
    z = np.zeros((2, 101))
    with pytest.raises(gl.PreconditionViolation):
        gl.Trajectory(spec(), g, np.array([0.0, 1.0]), np.zeros((2, 100)), z)
    with pytest.raises(gl.PreconditionViolation):
        gl.Trajectory(spec(), g, np.array([0.0, 1.0]), z, np.zeros((3, 101)))


def test_trajectory_arrays_read_only():
    g = gl.RadialGrid(r_max=10.0, num_cells=100)
    z = np.zeros((2, 101))
    traj = gl.Trajectory(spec(), g, np.array([0.0, 1.0]), z, z.copy())
    assert not traj.u.flags.writeable and not traj.v.flags.writeable
    with pytest.raises(ValueError):
        traj.u[0, 0] = 1.0
    assert z.flags.writeable


# ---------------------------------------------------------------------------
# discrete calculus
# ---------------------------------------------------------------------------

def test_derivative_exact_on_quadratics():
    g = gl.RadialGrid(r_max=5.0, num_cells=50)
    f = gl.RadialField(g, g.nodes**2)
    df = gl.radial_derivative(f)
    assert np.max(np.abs(df.values - 2.0 * g.nodes)) <= 1e-10


def test_derivative_zero_field():
    g = gl.RadialGrid(r_max=5.0, num_cells=50)
    df = gl.radial_derivative(gl.RadialField.zeros(g))
    assert not np.any(df.values)


def test_derivative_end_rows_are_the_written_out_formula_to_the_bit():
    # the end rows run on Python floats; they must match numpy-scalar
    # arithmetic byte for byte, -0.0, overflow to inf and NaN included
    dr = 0.05
    rng = np.random.default_rng(3)
    rows = [rng.standard_normal(12), np.full(12, -0.0), np.full(12, 1e308),
            np.array([1e308, -1e308, np.inf] * 4), np.array([np.nan] + [1.0] * 11)]
    for u in rows:
        with np.errstate(all="ignore"):
            out = _derivative_values(u, dr)
            first = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * dr)
            last = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
        assert out[:1].tobytes() == np.array([first]).tobytes()
        assert out[-1:].tobytes() == np.array([last]).tobytes()


def test_derivative_second_order_on_gaussian():
    errs = {}
    for cells in (200, 400):
        g = gl.RadialGrid(r_max=8.0, num_cells=cells)
        f = gl.RadialField(g, np.exp(-(g.nodes**2)))
        df = gl.radial_derivative(f)
        exact = -2.0 * g.nodes * np.exp(-(g.nodes**2))
        errs[cells] = np.max(np.abs(df.values - exact))
    order = math.log2(errs[200] / errs[400])
    assert 1.8 <= order <= 2.2


def test_laplacian_quadratic_and_constant():
    g = gl.RadialGrid(r_max=5.0, num_cells=50)
    f = gl.RadialField(g, g.nodes**2)
    lap = gl.radial_laplacian(f, 3)
    assert np.max(np.abs(lap.values - 6.0)) <= 1e-9
    const = gl.RadialField(g, np.full_like(g.nodes, 4.2))
    assert np.max(np.abs(gl.radial_laplacian(const, 5).values)) <= 1e-9


def test_laplacian_second_order_on_gaussian():
    errs = {}
    for cells in (200, 400):
        g = gl.RadialGrid(r_max=8.0, num_cells=cells)
        f = gl.RadialField(g, np.exp(-(g.nodes**2)))
        lap = gl.radial_laplacian(f, 3)
        exact = (4.0 * g.nodes**2 - 6.0) * np.exp(-(g.nodes**2))
        errs[cells] = np.max(np.abs(lap.values - exact))
    order = math.log2(errs[200] / errs[400])
    assert 1.8 <= order <= 2.2


def _flux_laplacian_reference(u, g, n, last):
    """The flux-form rows written out: c+ (u[j+1] - u[j]) - c- (u[j] - u[j-1])
    with c+- = r_{j+-1/2}^(n-1) / (V_j dr) through q = r_{j-1/2}/r_{j+1/2};
    `last` is the outer row."""
    dr = g.spacing
    half = np.arange(1, g.num_cells) + 0.5
    log_q = np.log1p(-1.0 / half)
    c_plus = np.concatenate([[2.0 * n / dr**2], n / (half * dr * -np.expm1(n * log_q) * dr)])
    c_minus = c_plus[1:] * np.exp((n - 1) * log_q)
    lap = np.empty_like(u)
    lap[0] = c_plus[0] * (u[1] - u[0])
    lap[1:-1] = c_plus[1:] * (u[2:] - u[1:-1]) - c_minus * (u[1:-1] - u[:-2])
    lap[-1] = last
    return lap


@pytest.mark.parametrize("n", [2, 3, 5, 12])
def test_laplacian_is_the_written_out_flux_form_to_the_bit(n):
    g = gl.RadialGrid(r_max=7.0, num_cells=140)
    r, dr = g.nodes, g.spacing
    u = np.exp(-((r - 1.0) ** 2)) + 0.3 * np.cos(3.0 * r) * np.exp(-r)
    outer = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / dr**2 + (
        (n - 1) / r[-1]) * (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * dr)
    assert np.array_equal(_laplacian_values(u, g, n), _flux_laplacian_reference(u, g, n, outer))
    # the row kernel evolve applies leaves the outer row untouched
    out = np.full_like(u, 7.0)
    _flux_stencil(u, *_flux_weights(g, n), out, np.empty_like(u))()
    assert np.array_equal(out, _flux_laplacian_reference(u, g, n, 7.0))
    assert np.array_equal(gl.radial_laplacian(gl.RadialField(g, u), n).values,
                          _flux_laplacian_reference(u, g, n, outer))
    # the ratio form agrees with the plain r^(n-1) / (V_j dr) definition
    hi = (np.arange(g.num_cells) + 0.5) * dr
    lo = np.maximum(np.arange(g.num_cells) - 0.5, 0.0) * dr
    vol = (hi**n - lo**n) / n
    c_plus, c_minus = _flux_weights(g, n)
    np.testing.assert_allclose(c_plus, hi ** (n - 1) / (vol * dr), rtol=1e-12)
    np.testing.assert_allclose(c_minus, lo[1:] ** (n - 1) / (vol[1:] * dr), rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_stencils_of_a_block_are_those_of_each_row(n):
    # the nodes run along the last axis; any leading axes are rows
    g = gl.RadialGrid(r_max=7.0, num_cells=140)
    r = g.nodes
    rows = np.array([np.exp(-((r - c) ** 2)) * np.cos(c * r) for c in np.linspace(0.0, 3.0, 6)])
    block = rows.reshape(2, 3, -1)
    for stencil in (lambda u: _derivative_values(u, g.spacing),
                    lambda u: _laplacian_values(u, g, n)):
        each = np.array([stencil(row) for row in rows])
        assert stencil(rows).tobytes() == each.tobytes()
        assert stencil(block).tobytes() == each.tobytes()


def test_flux_weights_are_read_only_and_finite_at_large_n():
    g = gl.RadialGrid(r_max=18.0, num_cells=1800)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = _flux_weights(g, 400)
    for c in weights:
        assert np.all(np.isfinite(c)) and np.all(c >= 0.0)
        with pytest.raises(ValueError):
            c[0] = 1.0
    assert _flux_weights(g, 400) is weights


# ---------------------------------------------------------------------------
# weighted norms
# ---------------------------------------------------------------------------

def test_weighted_l2_zero(grid12):
    assert gl.weighted_l2(gl.RadialField.zeros(grid12), 3, 0.0, 0.0) == 0.0


def test_weighted_l2_gaussian_moment():
    g = gl.RadialGrid(r_max=12.0, num_cells=4000)
    f = gl.RadialField(g, np.exp(-(g.nodes**2)))
    exact = math.sqrt(4 * math.pi * math.sqrt(2 * math.pi) / 16.0)
    assert gl.weighted_l2(f, 3, 0.0, 0.0) == pytest.approx(exact, abs=1e-3)
    exact_inv = math.sqrt(4 * math.pi * 0.5 * math.sqrt(math.pi / 2.0))
    assert gl.weighted_l2(f, 3, -1.0, 0.0) == pytest.approx(exact_inv, abs=1e-3)


def test_weighted_l2_grid_convergence():
    # trapezoid error on the Gaussian goldens: at least second order, though
    # on these entire integrands it collapses straight to the rounding floor
    exact = math.sqrt(4 * math.pi * math.sqrt(2 * math.pi) / 16.0)
    errs = []
    for cells in (16, 32):
        g = gl.RadialGrid(r_max=6.0, num_cells=cells)
        f = gl.RadialField(g, np.exp(-(g.nodes**2)))
        errs.append(abs(gl.weighted_l2(f, 3, 0.0, 0.0) - exact))
    converged = max(errs) <= 1e-12
    assert converged or math.log2(errs[0] / errs[1]) >= 1.8


def test_weighted_l2_mu_gate(gaussian12):
    with pytest.raises(gl.PreconditionViolation):
        gl.weighted_l2(gaussian12, 3, -1.5, 0.0)


def test_singular_first_cell_quadrature():
    # int_0^R r^(-0.6) e^{-2 r^2} r^2 dr has an unbounded-integrand analogue
    # when weighted by r^(-1-delta); compare two resolutions for stability
    vals = []
    for cells in (2000, 4000):
        g = gl.RadialGrid(r_max=12.0, num_cells=cells)
        f = gl.RadialField(g, np.exp(-(g.nodes**2)))
        vals.append(gl.weighted_l2(f, 3, -1.3, -0.2))
    assert abs(vals[1] - vals[0]) / vals[1] < 5e-3


def _plain_weighted_square_integral(values, grid, n, mu, nu, inv_r_coeff=0.0):
    """_weighted_square_integral with its weight r^q <r>^(2nu) computed
    inline on every call, as it was before the weight was cached."""
    r, dr = grid.nodes, grid.spacing
    q = 2.0 * mu + (n - 1)
    tail = r[1:]
    g = tail**q * (1.0 + tail**2) ** nu * np.asarray(values)[1:] ** 2
    total = dr * (0.5 * g[0] + g[1:-1].sum() + 0.5 * g[-1])
    if inv_r_coeff != 0.0:
        alpha = inv_r_coeff
        beta = values[1] - alpha / dr
        first = (alpha**2 * _power_cell(dr, q - 2.0)
                 + 2.0 * alpha * beta * _power_cell(dr, q - 1.0)
                 + beta**2 * _power_cell(dr, q))
    elif q < -1e-12:
        c0 = values[0]
        c1 = (values[1] - values[0]) / dr
        first = (c0**2 * _power_cell(dr, q)
                 + 2.0 * c0 * c1 * _power_cell(dr, q + 1.0)
                 + c1**2 * _power_cell(dr, q + 2.0))
    elif abs(q) <= 1e-12:
        first = 0.5 * dr * (values[0] ** 2 + g[0])
    else:
        first = 0.5 * dr * g[0]
    return gl.sphere_area(n) * (total + first)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("branch", ["inv_r", "q_negative", "q_zero", "q_positive"])
def test_cached_weight_gives_the_inline_formula_bits(n, branch):
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    r = g.nodes
    f = np.exp(-(r**2)) * (1.0 + 0.1 * np.sin(7.0 * r)) + 0.05 * np.exp(-((r - 3.0) ** 2))
    mu, nu, alpha = {
        "inv_r": (0.3, -0.2, 0.7),
        "q_negative": (-(n - 1) / 2.0 - 0.3, -0.3, 0.0),
        "q_zero": (-(n - 1) / 2.0, 0.25, 0.0),
        "q_positive": (0.0, -0.3, 0.0),
    }[branch]
    plain = _plain_weighted_square_integral(f, g, n, mu, nu, inv_r_coeff=alpha)
    assert _weighted_square_integral(f, g, n, mu, nu, inv_r_coeff=alpha) == plain
    # a hit on an equal grid built anew gives the same bits
    same = gl.RadialGrid(r_max=12.0, num_cells=600)
    assert _weighted_square_integral(f, same, n, mu, nu, inv_r_coeff=alpha) == plain


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("branch", ["inv_r", "q_negative", "q_zero", "q_positive"])
def test_block_of_rows_gives_the_inline_formula_bits_of_each_row(n, branch):
    # six rows at once, as (6, nodes) and as (2, 3, nodes); on the inv_r
    # branch every other row has alpha 0 and takes the q_positive branch
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    r = g.nodes
    rows = np.array([np.exp(-((r - c) ** 2)) * (1.0 + 0.1 * np.sin(k * r))
                     for k, c in enumerate((0.0, 0.5, 1.0, 2.0, 3.0, 4.5))])
    mu, nu, alpha = {
        "inv_r": (0.3, -0.2, 0.7),
        "q_negative": (-(n - 1) / 2.0 - 0.3, -0.3, 0.0),
        "q_zero": (-(n - 1) / 2.0, 0.25, 0.0),
        "q_positive": (0.0, -0.3, 0.0),
    }[branch]
    alphas = alpha * np.array([1.0, 0.0, 2.0, 0.0, -1.0, 0.0])
    plain = [_plain_weighted_square_integral(row, g, n, mu, nu, inv_r_coeff=a)
             for row, a in zip(rows, alphas)]
    block = _weighted_square_integral(rows, g, n, mu, nu, inv_r_coeff=alphas)
    assert block.shape == (6,) and list(block) == plain
    deep = _weighted_square_integral(rows.reshape(2, 3, -1), g, n, mu, nu,
                                     inv_r_coeff=alphas.reshape(2, 3))
    assert deep.shape == (2, 3) and list(deep.ravel()) == plain


def test_block_whose_alphas_are_all_zero_never_forms_the_alpha_squared_cell():
    # at q = 1 the 1/r^2 cell r^(q - 2) is not integrable: a block with no
    # 1/r part must not ask for it, one with any must refuse
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    rows = np.exp(-(g.nodes**2)) * np.array([[1.0], [2.0], [3.0]])
    got = _weighted_square_integral(rows, g, 3, -0.5, 0.0, inv_r_coeff=np.zeros(3))
    assert list(got) == [_plain_weighted_square_integral(row, g, 3, -0.5, 0.0) for row in rows]
    with pytest.raises(gl.PreconditionViolation, match="not integrable"):
        _weighted_square_integral(rows, g, 3, -0.5, 0.0, inv_r_coeff=np.array([0.0, 1.0, 0.0]))


def test_cached_weight_is_read_only():
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    weight = _quadrature_weight(g, 2.0, -0.3)
    assert weight is _quadrature_weight(g, 2.0, -0.3)
    assert not weight.flags.writeable
    with pytest.raises(ValueError):
        weight[0] = 1.0


def test_values_past_the_double_range_raise_a_precondition():
    # Gamma(n/2) overflows past n ~ 343, r^(n-1) on [0, 12] past n ~ 287;
    # neither may reach a norm as inf or NaN, nor warn on the way
    assert math.isfinite(gl.sphere_area(343))
    g = gl.RadialGrid(r_max=12.0, num_cells=240)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gl.PreconditionViolation, match="overflows a double"):
            gl.sphere_area(400)
        with pytest.raises(gl.PreconditionViolation, match="weight r"):
            _quadrature_weight(g, 339.0, 0.0)
        with pytest.raises(gl.PreconditionViolation, match="weight r"):
            gl.weighted_l2(gl.RadialField.zeros(g), 340, 0.0, 0.0)
    assert math.isfinite(gl.weighted_l2(gl.RadialField.zeros(g), 280, 0.0, 0.0))


def test_sup_trace_norm_gaussian():
    # the trace norm || r^{n/2-s} f ||_{L_r^inf L_omega^2} at n=3, s=1/2
    g = gl.RadialGrid(r_max=12.0, num_cells=4000)
    f = gl.RadialField(g, np.exp(-(g.nodes**2)))
    exact = math.sqrt(4 * math.pi) * (1.0 / math.sqrt(2.0)) * math.exp(-0.5)
    assert gl.weighted_sup(f, 3, 1.5 - 0.5) == pytest.approx(exact, abs=1e-4)
    assert gl.weighted_sup(gl.RadialField.zeros(g), 3, 1.5 - 0.5) == 0.0
    assert gl.weighted_sup(
        gl.RadialField(f.grid, 2.0 * f.values), 3, 1.5 - 0.5
    ) == pytest.approx(2.0 * gl.weighted_sup(f, 3, 1.5 - 0.5), rel=1e-14)


def test_lambda_norms_golden(goldens):
    value, cells, tol = goldens["lambda1_gaussian_n3"]
    g = gl.RadialGrid(r_max=12.0, num_cells=cells)
    f = gl.RadialField(g, np.exp(-(g.nodes**2)))
    z = gl.RadialField.zeros(g)
    lam = gl.lambda_norms(f, z, 3)
    assert lam.lambda1 == pytest.approx(value, abs=tol)
    zero = gl.lambda_norms(z, z, 3)
    assert zero.lambda1 == 0.0 and zero.lambda2 == 0.0
    scaled = gl.lambda_norms(gl.RadialField(f.grid, 3.0 * f.values),
                             gl.RadialField(z.grid, 3.0 * z.values), 3)
    assert scaled.lambda1 == pytest.approx(3.0 * lam.lambda1, rel=1e-12)
    assert scaled.lambda2 == pytest.approx(3.0 * lam.lambda2, rel=1e-12)


def _random_field(seed, grid):
    rng = np.random.default_rng(seed)
    r = grid.nodes
    vals = np.zeros_like(r)
    for _ in range(4):
        c = rng.uniform(0.0, grid.r_max / 2.0)
        w = rng.uniform(0.3, 2.0)
        a = rng.uniform(-1.0, 1.0)
        vals += a * np.exp(-(((r - c) / w) ** 2))
    return gl.RadialField(grid, vals)


@pytest.mark.parametrize("mu,nu", [(0.0, 0.0), (-0.3, -0.2), (0.3, 0.5), (-1.0, 0.1)])
def test_norm_homogeneity_and_triangle(mu, nu):
    g = gl.RadialGrid(r_max=10.0, num_cells=500)
    for seed in range(100):
        f = _random_field(2 * seed, g)
        h = _random_field(2 * seed + 1, g)
        nf = gl.weighted_l2(f, 3, mu, nu)
        f25 = gl.RadialField(f.grid, 2.5 * f.values)
        assert gl.weighted_l2(f25, 3, mu, nu) == pytest.approx(2.5 * nf, rel=1e-12)
        nh = gl.weighted_l2(h, 3, mu, nu)
        nsum = gl.weighted_l2(gl.RadialField(g, f.values + h.values), 3, mu, nu)
        assert nsum <= nf + nh + 1e-12


# ---------------------------------------------------------------------------
# trajectory norms
# ---------------------------------------------------------------------------

def _free_trajectory(cells=600, t_end=4.0, eps=1.0, rmax=12.0):
    g = gl.RadialGrid(r_max=rmax, num_cells=cells)
    prof = gl.DataProfile(family="gaussian", epsilon=eps, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    out = gl.evolve(spec(a=0.0, b=0.0), data.u0, data.u1, g, t_end)
    return out.trajectory, data


def test_e_norms_zero_and_single_state():
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    z = gl.RadialField.zeros(g)
    traj = gl.Trajectory(spec(), g, np.zeros(1), z.values[None], z.values[None])
    assert gl.e_norms(traj) == 0.0

    f = gl.RadialField(g, np.exp(-(g.nodes**2)))
    traj1 = gl.Trajectory(spec(), g, np.zeros(1), f.values[None], z.values[None])
    assert gl.e_norms(traj1) == pytest.approx(
        gl.weighted_l2(gl.radial_derivative(f), 3, 0.0, 0.0), rel=1e-12
    )


@pytest.mark.parametrize("horizon, counts", [
    (0.5, (2, 2)), (0.5 + 1e-10, (2, 2)), (0.6, (2, 3)), (0.1, (0, 0)), (1.75, (7, 7)),
])
def test_read_off_adds_the_next_sample_only_between_two(horizon, counts):
    times = np.linspace(0.25, 1.75, 7)
    assert core._read_off(times, horizon) == counts


def test_e_norms_refuses_a_horizon_past_the_end_as_le_norm_does():
    traj, _ = _free_trajectory(t_end=2.0)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=5.0)
    with pytest.raises(gl.PreconditionViolation) as e_exc:
        gl.e_norms(traj, t_max=5.0)
    with pytest.raises(gl.PreconditionViolation) as le_exc:
        gl.le_norm(traj, w)
    assert str(e_exc.value) == str(le_exc.value) == "trajectory ends at t=2 before horizon T=5"
    # no t_max reads every sample; one before the first sample reads none
    assert gl.e_norms(traj) == math.sqrt((2.0 * gl.energy(traj)).max())
    late = gl.Trajectory(traj.problem, traj.grid, traj.times + 0.5, traj.u, traj.v)
    assert gl.e_norms(late, t_max=0.25) == 0.0


def test_e1_conserved_for_free_wave():
    traj, _ = _free_trajectory(cells=3600, t_end=4.0)
    per_state = []
    for k in range(traj.times.size):
        sub = gl.Trajectory(traj.problem, traj.grid, traj.times[k:k + 1],
                            traj.u[k:k + 1], traj.v[k:k + 1])
        per_state.append(gl.e_norms(sub))
    per_state = np.array(per_state)
    assert np.max(np.abs(per_state / per_state[0] - 1.0)) <= 1e-5


def test_le_norm_zero_scaling_components():
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    z = np.zeros((5, 601))
    traj = gl.Trajectory(spec(), g, np.linspace(0.0, 2.0, 5), z, z)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=2.0)
    le = gl.le_norm(traj, w)
    assert le.total == 0.0 and all(v == 0.0 for v in le.components.values())

    traj1, _ = _free_trajectory(t_end=2.0)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=2.0)
    le1 = gl.le_norm(traj1, w)
    assert set(le1.components) == {"deriv", "field", "log", "horizon"}
    assert le1.total == pytest.approx(sum(le1.components.values()), rel=1e-12)

    traj2 = gl.Trajectory(traj1.problem, traj1.grid, traj1.times,
                          3.0 * traj1.u, 3.0 * traj1.v)
    le2 = gl.le_norm(traj2, w)
    assert le2.total == pytest.approx(3.0 * le1.total, rel=1e-12)


def test_le_norm_n2_drops_field_terms():
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    out = gl.evolve(gl.ProblemSpec(n_dim=2, p=4.0, a=0.0, b=0.0), data.u0, data.u1, g,
                    2.0)
    w = gl.WeightParams(delta=0.25, delta_prime=0.0, horizon=2.0)
    le = gl.le_norm(out.trajectory, w)
    assert set(le.components) == {"deriv", "log", "horizon"}
    assert le.total > 0.0


def test_le_norm_horizon_mismatch():
    traj, _ = _free_trajectory(t_end=2.0)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=5.0)
    with pytest.raises(gl.PreconditionViolation, match="before horizon"):
        gl.le_norm(traj, w)


def _le1_reference(traj, w, second_order=False):
    """le_norm components with u_r taken from _slopes, which also computes
    v_r and lap u; second order (norm_report's le2) puts (v_r, lap u) in the
    gradient slot and u_r in the field slot."""
    n, grid = traj.problem.n_dim, traj.grid
    d, dp, horizon = w.delta, w.delta_prime, w.horizon
    sums = {"deriv": [], "field": [], "log": [], "horizon": []}
    for u, v in zip(traj.u, traj.v):
        du, dv, lap = _slopes(u, v, grid, n)
        if second_order:
            du_abs = np.sqrt(dv**2 + lap**2)
            u_abs = np.abs(du)
        else:
            du_abs = np.sqrt(v**2 + du**2)
            u_abs = np.abs(u)
        sums["deriv"].append(_weighted_square_integral(du_abs, grid, n, -d, -0.5 + dp))
        if n >= 3:
            comp = du_abs.copy()
            comp[1:] += u_abs[1:] / grid.nodes[1:]
            alpha = u_abs[0]
            sums["field"].append(
                _weighted_square_integral(u_abs, grid, n, -1.0 - d, -0.5 + dp))
        else:
            comp, alpha = du_abs, 0.0
        sums["log"].append(
            _weighted_square_integral(comp, grid, n, -d, -0.5 + d, inv_r_coeff=alpha))
        sums["horizon"].append(
            _weighted_square_integral(comp, grid, n, -d, 0.0, inv_r_coeff=alpha))
    scale = {"deriv": 1.0, "field": 1.0, "log": math.log(2.0 + horizon) ** -0.5,
             "horizon": horizon ** (d - 0.5)}
    return {name: scale[name] * math.sqrt(
                _integrate_to_horizon(traj.times, np.array(vals), horizon))
            for name, vals in sums.items() if vals}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_le_norm_first_order_matches_slopes_reference(n):
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="split")
    data = gl.make_profile(prof, g)
    out = gl.evolve(gl.ProblemSpec(n_dim=n, p=4.0, a=0.0, b=0.0), data.u0, data.u1, g,
                    2.0)
    w = gl.WeightParams(delta=0.25, delta_prime=0.1, horizon=2.0)
    assert gl.le_norm(out.trajectory, w).components == _le1_reference(out.trajectory, w)
    # the same bits at second order, which norm_report alone takes
    second = _le1_reference(out.trajectory, w, second_order=True)
    assert gl.norm_report(out.trajectory, w).le2 == sum(second.values())


def test_le_golden_self_convergence(goldens):
    value, cells, tol = goldens["le1_free_gaussian_n3"]
    g = gl.RadialGrid(r_max=18.0, num_cells=cells)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u0")
    data = gl.make_profile(prof, g)
    out = gl.evolve(spec(a=0.0, b=0.0), data.u0, data.u1, g, 10.0)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=10.0)
    le = gl.le_norm(out.trajectory, w)
    assert le.total == pytest.approx(value, rel=tol)


def test_norm_report_component_sum():
    traj, _ = _free_trajectory(t_end=2.0)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=2.0)
    rep = gl.norm_report(traj, w)
    assert rep.le1 == pytest.approx(sum(rep.components.values()), rel=1e-12)
    assert rep.e1 > 0 and rep.e2 > 0 and rep.le2 > 0


@pytest.mark.parametrize("n", [2, 3])
def test_norm_report_is_e_norms_and_both_le_norms(n):
    # one pass over the states gives the bits of the three norms taken apart,
    # on a nonlinear run that goes on past the weights' horizon
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    prof = gl.DataProfile(family="gaussian", epsilon=0.5, assigns="split")
    data = gl.make_profile(prof, g)
    traj = gl.evolve(spec(n=n), data.u0, data.u1, g, 3.0).trajectory
    w = gl.WeightParams(delta=0.25, delta_prime=0.1, horizon=2.0)
    rep = gl.norm_report(traj, w)
    first = gl.le_norm(traj, w)
    assert (rep.e1, rep.le1) == (gl.e_norms(traj, t_max=w.horizon), first.total)
    assert rep.components == first.components
    # the second order: E2 from _slopes up to the horizon, LE2 as the reference
    e2 = 0.0
    for t, u, v in zip(traj.times, traj.u, traj.v):
        if t <= w.horizon:
            du, dv, lap = _slopes(u, v, g, n)
            e2 = max(e2, math.sqrt(_energy_integral(dv, lap, g, n)))
    second = _le1_reference(traj, w, second_order=True)
    assert (rep.e2, rep.le2) == (e2, sum(second.values()))
    # at n = 2 the energy still grows after the horizon, so the cut shows
    if n == 2:
        assert gl.e_norms(traj) > rep.e1


def test_lestar_upper_min_property():
    g = gl.RadialGrid(r_max=8.0, num_cells=400)
    f = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=1.0)
    times = np.linspace(0.0, 1.0, 21)
    source = np.array([f.envelope(t) for t in times])[:, None] * f.shape(g)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=1.0)
    got = gl.lestar_upper(times, source, g, 3, w)

    # recompute the three single-term decompositions independently
    d, dp, T = 0.3, 0.2, 1.0
    shape = f.shape(g)
    cand = []
    for mu, nu, pref in ((d, 0.5 - dp, 1.0),
                         (d, 0.5 - d, math.sqrt(math.log(2.0 + T))),
                         (d, 0.0, T ** (0.5 - d))):
        sq = [
            gl.weighted_l2(gl.RadialField(g, f.envelope(t) * shape), 3, mu, nu) ** 2
            for t in times
        ]
        cand.append(pref * math.sqrt(np.trapezoid(sq, times)))
    assert got <= min(cand) + 1e-12
    assert got == pytest.approx(min(cand), rel=1e-12)

    zeros = np.zeros((times.size, g.num_cells + 1))
    assert gl.lestar_upper(times, zeros, g, 3, w) == 0.0


@pytest.mark.parametrize("center, d, dp, T, winner", [
    (0.0, 0.05, 0.04, 50.0, 0), (1.0, 0.05, -1.0, 50.0, 1), (0.5, 0.3, 0.1, 1.1, 2),
])
def test_lestar_upper_matches_quadrature_reference(center, d, dp, T, winner):
    # the three decompositions written out, to the bit; each wins one case
    g = gl.RadialGrid(r_max=8.0, num_cells=400)
    f = gl.ForcingSpec(amplitude=1.0, space_center=center, space_width=1.5,
                       t_on=0.0, t_off=T + 1.0)
    times = np.linspace(0.0, T + 0.5, 41)
    source = np.array([f.envelope(t) for t in times])[:, None] * f.shape(g)
    cand = []
    for nu, pref in ((0.5 - dp, 1.0), (0.5 - d, math.sqrt(math.log(2.0 + T))),
                     (0.0, T ** (0.5 - d))):
        sq = [_weighted_square_integral(np.abs(row), g, 5, d, nu) for row in source]
        cand.append(pref * math.sqrt(_integrate_to_horizon(times, np.array(sq), T)))
    assert cand.index(min(cand)) == winner
    w = gl.WeightParams(delta=d, delta_prime=dp, horizon=T)
    assert gl.lestar_upper(times, source, g, 5, w) == min(cand)


def _cut_after_the_horizon(traj, horizon):
    """traj up to and with its first sample past horizon, and that count."""
    kept = int(np.flatnonzero(traj.times > horizon)[0]) + 1
    return gl.Trajectory(traj.problem, traj.grid, traj.times[:kept], traj.u[:kept],
                         traj.v[:kept]), kept


@pytest.mark.parametrize("horizon", [1.0, 1.03])
def test_horizon_norms_of_a_longer_trajectory_are_those_of_its_cut(horizon):
    # the horizon on a sample and between two; the run goes on to t = 3
    traj, _ = _free_trajectory(t_end=3.0)
    cut, kept = _cut_after_the_horizon(traj, horizon)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=horizon)
    assert gl.le_norm(traj, w) == gl.le_norm(cut, w)
    assert gl.norm_report(traj, w) == gl.norm_report(cut, w)
    f = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                       t_on=0.0, t_off=horizon + 1.0)
    source = np.array([f.envelope(t) for t in traj.times])[:, None] * f.shape(traj.grid)
    assert (gl.lestar_upper(traj.times, source, traj.grid, 3, w)
            == gl.lestar_upper(cut.times, source[:kept], traj.grid, 3, w))


def test_le_squares_runs_for_no_sample_past_the_first_after_the_horizon(monkeypatch):
    traj, _ = _free_trajectory(t_end=3.0)
    w = gl.WeightParams(delta=0.3, delta_prime=0.2, horizon=1.03)
    _, kept = _cut_after_the_horizon(traj, w.horizon)
    assert kept < traj.times.size
    # _le_squares takes a block of states a call: count the rows it is handed
    rows = []
    squares = core._le_squares
    monkeypatch.setattr(core, "_le_squares",
                        lambda *args: rows.append(len(args[0])) or squares(*args))
    gl.le_norm(traj, w)
    assert sum(rows) == kept
    rows.clear()
    gl.norm_report(traj, w)
    assert sum(rows) == 2 * kept


@pytest.mark.parametrize("n", [2, 3, 5])
def test_block_norms_are_the_per_state_references_across_block_boundaries(n):
    # 601 nodes make blocks of 27 states; the horizon 2.03 lies between two
    # samples, so each norm reads more than one block and ends in a part of
    # one.  In every block u(0) = 0 on some states (a row with alpha 0 in the
    # first-order field term), u_r(0) = 0 on others (the same at second order)
    # and neither on the rest.
    g = gl.RadialGrid(r_max=12.0, num_cells=600)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="split")
    data = gl.make_profile(prof, g)
    run = gl.evolve(spec(n=n, a=0.0, b=0.0), data.u0, data.u1, g, 3.0).trajectory
    u = run.u.copy()
    u[0::3, 0] = 0.0
    u[1::3, :3] = 0.0
    traj = gl.Trajectory(run.problem, g, run.times, u, run.v)
    w = gl.WeightParams(delta=0.25, delta_prime=0.1, horizon=2.03)
    step = core.BLOCK_BUDGET // g.nodes.size
    kept = int(np.count_nonzero(traj.times <= w.horizon))
    for rows in (traj.times.size, kept, kept + 1):
        assert rows > step and rows % step != 0
    dr = g.spacing

    energies = [_energy_integral(v, _derivative_values(u, dr), g, n)
                for u, v in zip(traj.u, traj.v)]
    assert list(gl.energy(traj)) == [0.5 * e for e in energies]
    e1 = max(math.sqrt(e) for e in energies[:kept])
    assert gl.e_norms(traj, t_max=w.horizon) == e1

    first = _le1_reference(traj, w)
    assert gl.le_norm(traj, w).components == first
    e2 = 0.0
    for t, u, v in zip(traj.times, traj.u, traj.v):
        if t <= w.horizon:
            du, dv, lap = _slopes(u, v, g, n)
            e2 = max(e2, math.sqrt(_energy_integral(dv, lap, g, n)))
    second = _le1_reference(traj, w, second_order=True)
    assert gl.norm_report(traj, w) == core.NormReport(
        e1=e1, e2=e2, le1=sum(first.values()), le2=sum(second.values()), components=first)

    f = gl.ForcingSpec(amplitude=1.0, space_center=0.5, space_width=1.5, t_on=0.0, t_off=3.0)
    source = np.array([f.envelope(t) for t in traj.times])[:, None] * f.shape(g)
    cand = []
    for nu, pref in ((0.5 - w.delta_prime, 1.0),
                     (0.5 - w.delta, math.sqrt(math.log(2.0 + w.horizon))),
                     (0.0, w.horizon ** (0.5 - w.delta))):
        sq = [_weighted_square_integral(np.abs(row), g, n, w.delta, nu) for row in source]
        cand.append(pref * math.sqrt(_integrate_to_horizon(traj.times, np.array(sq), w.horizon)))
    assert gl.lestar_upper(traj.times, source, g, n, w) == min(cand)


def test_norm_report_of_the_benchmark_sized_trajectory_keeps_block_sized_temporaries():
    # 401 states of 1801 nodes, as picard stores at --cells 1800 --t-end 10:
    # a temporary of the whole trajectory would take 5.8 MB, of a block of 9
    # states 130 KB
    g = gl.RadialGrid(r_max=18.0, num_cells=1800)
    times = np.linspace(0.0, 10.0, 401)
    front = g.nodes - times[:, None]
    traj = gl.Trajectory(spec(p=2.5), g, times, np.exp(-front**2), 2.0 * front * np.exp(-front**2))
    w = gl.WeightParams(delta=0.25, delta_prime=0.1, horizon=10.0)
    gl.norm_report(traj, w)
    tracemalloc.start()
    try:
        gl.norm_report(traj, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25e6


def test_trajectory_difference():
    traj1, _ = _free_trajectory(t_end=2.0, eps=1.0)
    traj2, _ = _free_trajectory(t_end=2.0, eps=2.0)
    diff = gl.trajectory_difference(traj2, traj1)
    en_d = gl.e_norms(diff)
    en_1 = gl.e_norms(traj1)
    assert en_d == pytest.approx(en_1, rel=1e-9)
