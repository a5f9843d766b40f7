import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import glassey_lab as gl
from glassey_lab import solver
from glassey_lab.lifespan import LifespanRecord


def spec(n=3, p=1.5):
    return gl.ProblemSpec(n_dim=n, p=p, a=1.0, b=0.0)


def record(eps, t, censored=False, agreement=0.0):
    return LifespanRecord(epsilon=eps, t_observed=t, censored=censored,
                          num_cells=100, agreement=agreement)


# ---------------------------------------------------------------------------
# predicted laws
# ---------------------------------------------------------------------------

def test_predicted_law_examples():
    assert gl.predicted_exponent(spec(3, 1.5)) == pytest.approx(-1.0)
    assert gl.predicted_exponent(spec(2, 2.0)) == pytest.approx(-2.0)
    # no power law at or above the threshold power; the error names the regime
    with pytest.raises(gl.PreconditionViolation, match="in the critical regime"):
        gl.predicted_exponent(spec(3, 2.0))
    with pytest.raises(gl.PreconditionViolation, match="supercritical regime"):
        gl.predicted_exponent(spec(3, 2.5))


def test_power_exponent_monotone_in_p():
    # exponents are strictly negative and steepen toward the threshold power,
    # where the power law degenerates into the exponential rate law
    ps = np.linspace(1.05, 1.95, 19)
    exps = [gl.predicted_exponent(spec(3, p)) for p in ps]
    mags = [abs(e) for e in exps]
    assert all(m2 > m1 for m1, m2 in zip(mags, mags[1:]))
    assert all(e < 0 for e in exps)


# ---------------------------------------------------------------------------
# fits
# ---------------------------------------------------------------------------

def test_fit_power_exact_synthetic():
    recs = [record(e, 1.0 / e) for e in (0.5, 1.0, 2.0, 4.0)]
    fit = gl.fit_power(recs, spec(3, 1.5))
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-10)
    assert fit.verdict == "consistent"


def test_fit_power_intercept():
    recs = [record(e, 3.0 * e**-2.0) for e in (0.5, 1.0, 2.0, 4.0)]
    fit = gl.fit_power(recs, spec(2, 2.0))
    assert fit.slope == pytest.approx(-2.0, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-10)


def test_fit_power_determinism():
    recs = [record(e, 2.0 * e**-1.1) for e in (0.5, 0.8, 1.3, 2.1, 3.4)]
    a = gl.fit_power(recs, spec(3, 1.5))
    b = gl.fit_power(recs, spec(3, 1.5))
    assert a == b


def test_fit_exponential_exact_synthetic():
    recs = [record(e, math.exp(2.0 / e)) for e in (0.5, 0.7, 1.0, 1.5)]
    fit = gl.fit_exponential(recs, spec(3, 2.0))
    assert fit.model == "exponential_rate"
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
    assert fit.verdict == "consistent"
    assert fit.r_squared_alt < fit.r_squared


def test_fit_exponential_rejects_power_data():
    # planted power-law data: the power model must out-fit the rate model
    recs = [record(e, 5.0 * e**-3.0) for e in (0.5, 0.7, 1.0, 1.5, 2.2)]
    fit = gl.fit_exponential(recs, spec(3, 2.0))
    assert fit.r_squared < fit.r_squared_alt
    assert fit.verdict == "inconsistent"


def test_fit_exponential_regime_gate():
    recs = [record(e, 1.0 / e) for e in (0.5, 1.0, 2.0, 4.0)]
    with pytest.raises(gl.PreconditionViolation):
        gl.fit_exponential(recs, spec(3, 1.5))


def test_fit_censoring_rules():
    good = [record(e, 1.0 / e) for e in (0.5, 1.0, 2.0, 4.0)]
    # censored records never enter the fit
    mixed = good + [record(8.0, 99.0, censored=True)]
    fit = gl.fit_power(mixed, spec(3, 1.5))
    assert fit.slope == pytest.approx(-1.0, abs=1e-10)
    # majority-censored set is refused
    mostly = good[:2] + [record(e, 9.9, censored=True) for e in (3.0, 4.0, 5.0)]
    with pytest.raises(gl.PreconditionViolation, match="records censored"):
        gl.fit_power(mostly, spec(3, 1.5))
    # agreement-failing records are excluded and can starve the fit
    shaky = [record(e, 1.0 / e, agreement=0.5) for e in (0.5, 1.0, 2.0, 4.0)]
    with pytest.raises(gl.PreconditionViolation, match="usable records"):
        gl.fit_power(shaky, spec(3, 1.5))


def test_fit_needs_four_records():
    recs = [record(e, 1.0 / e) for e in (0.5, 1.0, 2.0)]
    with pytest.raises(gl.PreconditionViolation, match="usable records"):
        gl.fit_power(recs, spec(3, 1.5))


# ---------------------------------------------------------------------------
# measurement and sweeps
# ---------------------------------------------------------------------------

def test_measure_lifespan_zero_amplitude_censors():
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="split")
    rec = gl.measure_lifespan(spec(3, 1.5), prof, 0.0, (160, 320), 4.0, 16.0)
    assert rec.censored
    assert rec.t_observed == 4.0
    assert rec.agreement == 0.0


def test_measure_lifespan_blowup_record():
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    rec = gl.measure_lifespan(spec(3, 1.5), prof, 5.0, (320, 640), 8.0, 16.0)
    assert not rec.censored
    assert rec.t_observed < 8.0
    assert rec.agreement <= 0.10
    assert rec.num_cells == 640


def _rung_by_hand(sp, prof, eps, cells, horizon, r_max):
    """(blew, t) of one rung solved at the lifespan step, storing every step."""
    grid = gl.RadialGrid(r_max=r_max, num_cells=cells)
    data = gl.make_profile(replace(prof, epsilon=eps), grid)
    out = gl.evolve(sp, data.u0, data.u1, grid, horizon, cfl=gl.lifespan.DEFAULT_CFL,
                    sample_stride=1)
    blew = out.status == "blew_up"
    return blew, out.t_blowup if blew else horizon


@pytest.mark.parametrize("eps, censored", [(5.0, False), (0.5, True)])
def test_measure_lifespan_rungs_store_at_most_two_samples(monkeypatch, eps, censored):
    # a rung reads only the status and the blow-up time, so it keeps the t = 0
    # sample and at most the t = horizon one; the record is the one built
    # from the same rungs solved at the same step count, storing every step
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    sp, ladder, horizon, r_max = spec(3, 1.5), (320, 640), 4.0, 16.0
    stored = []

    def recording_evolve(*args, **kwargs):
        outcome = solver.evolve(*args, **kwargs)
        stored.append(outcome.trajectory.times.size)
        return outcome

    monkeypatch.setattr(gl.lifespan, "evolve", recording_evolve)
    rec = gl.measure_lifespan(sp, prof, eps, ladder, horizon, r_max)
    assert stored == [1 if not censored else 2] * 2

    (blew_c, t_c), (blew_f, t_f) = [
        _rung_by_hand(sp, prof, eps, cells, horizon, r_max) for cells in ladder]
    assert blew_c == blew_f == (not censored)
    expected = LifespanRecord(
        epsilon=eps, t_observed=t_f, censored=censored, num_cells=640,
        agreement=0.0 if censored else abs(t_f - t_c) / t_f,
    )
    assert rec == expected


def test_lifespan_rung_memory_stays_within_a_few_rows():
    # one 1920-cell blow-up rung (the benchmark's fine rung and its fastest
    # epsilon).  Measured peak: ~27 rows of 1921 nodes (stage buffers, data,
    # grid and weights); storing every 20th step, as before, peaked at ~670
    # rows (10.3 MB)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="split")
    tracemalloc.start()
    try:
        rec = gl.measure_lifespan(spec(3, 1.5), prof, 2.8, (480, 1920), 40.0, 48.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rec.censored
    assert peak <= 40 * 1921 * 8


def test_sweep_requires_increasing_epsilons():
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    with pytest.raises(gl.PreconditionViolation):
        gl.sweep(spec(3, 1.5), prof, (1.0, 1.0, 2.0), (160, 320), 4.0, 16.0)
    for jobs in (1, 2):
        assert gl.sweep(spec(3, 1.5), prof, (), (160, 320), 4.0, 16.0, jobs=jobs) == []


def _no_solve(*args, **kwargs):
    raise AssertionError("evolve was called")


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_refuses_causality_before_any_solve(monkeypatch, jobs):
    # the data's support plus the horizon reaches past r_max for every
    # epsilon: the sweep is refused once, before any solve, at any jobs
    # (it used to warn once per epsilon and return no records)
    monkeypatch.setattr(gl.lifespan, "evolve", _no_solve)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(gl.PreconditionViolation, match="causality: support"):
            gl.sweep(spec(3, 1.5), prof, (4.0, 5.0), (160, 320), 20.0, 16.0, jobs=jobs)


@pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
def test_measure_lifespan_refuses_a_horizon_not_finite_and_positive(monkeypatch, horizon):
    # a run to t = 0 takes no step, so the horizon 0 is refused by name, as
    # sweep refuses it, and no rung measures it as a censored run
    monkeypatch.setattr(gl.lifespan, "evolve", _no_solve)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, assigns="to_u1")
    with pytest.raises(gl.PreconditionViolation, match="horizon must be finite and > 0"):
        gl.measure_lifespan(spec(3, 1.5), prof, 2.0, (160, 320), horizon, 16.0)


@pytest.mark.parametrize("eps", [(-1.0, 2.0), (0.0, 2.0)])
def test_sweep_checks_each_epsilon_before_any_solve(monkeypatch, eps):
    # a negative epsilon is refused by DataProfile's own rule.  Each point's
    # own data is checked, not the template's: at the template's epsilon 0
    # the data has no support, and only epsilon 2's reach fails causality
    monkeypatch.setattr(gl.lifespan, "evolve", _no_solve)
    prof = gl.DataProfile(family="gaussian", epsilon=0.0, width=1.0, center=0.0,
                          assigns="to_u1")
    message = "epsilon must be >= 0" if eps[0] < 0 else "causality: support"
    with pytest.raises(gl.PreconditionViolation, match=message):
        gl.sweep(spec(3, 1.5), prof, eps, (160, 320), 12.0, 16.0)


def test_sweep_error_in_a_run_ends_the_sweep(monkeypatch):
    # nothing is skipped: an error raised by a point reaches the caller
    calls = []

    def failing_evolve(*args, **kwargs):
        calls.append(args)
        raise gl.PreconditionViolation("injected")

    monkeypatch.setattr(gl.lifespan, "evolve", failing_evolve)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    with pytest.raises(gl.PreconditionViolation, match="injected"):
        gl.sweep(spec(3, 1.5), prof, (4.0, 5.0), (160, 320), 4.0, 16.0)
    assert len(calls) == 1


def test_ladder_duplicate_resolutions_rejected():
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    with pytest.raises(gl.PreconditionViolation):
        gl.measure_lifespan(spec(3, 1.5), prof, 1.0, (320, 320), 4.0, 16.0)


def test_ladder_of_three_rungs_rejected(monkeypatch):
    # the record reads two rungs, so a third would be a solve whose result is
    # never used; the ladder is refused before any solve
    monkeypatch.setattr(gl.lifespan, "evolve", _no_solve)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    with pytest.raises(gl.PreconditionViolation):
        gl.measure_lifespan(spec(3, 1.5), prof, 1.0, (160, 240, 320), 4.0, 16.0)
    with pytest.raises(gl.PreconditionViolation):
        gl.sweep(spec(3, 1.5), prof, (1.0, 2.0), (160, 240, 320), 4.0, 16.0)


@pytest.mark.parametrize("ladder, bad", [
    ((120.9, 240), "120.9"), ((240.5, 240), "240.5"), ((160, math.nan), "nan"),
])
def test_ladder_fractional_count_rejected_not_truncated(monkeypatch, ladder, bad):
    # 120.9 would otherwise run a 120-cell rung, and 240.5 would read as a
    # duplicate of 240
    monkeypatch.setattr(gl.lifespan, "evolve", _no_solve)
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    with pytest.raises(gl.PreconditionViolation, match=f"ladder cell count {bad} is not a whole"):
        gl.measure_lifespan(spec(3, 1.5), prof, 1.0, ladder, 12.0, 24.0)
    with pytest.raises(gl.PreconditionViolation, match="is not a whole number"):
        gl.sweep(spec(3, 1.5), prof, (1.0, 2.0), ladder, 12.0, 24.0)


def test_sweep_pool_matches_serial():
    prof = gl.DataProfile(family="gaussian", epsilon=1.0, width=1.0, center=0.0,
                          assigns="to_u1")
    args = (spec(3, 1.5), prof, (4.0, 5.0), (160, 320), 8.0, 16.0)
    serial = gl.sweep(*args, jobs=1)
    assert len(serial) == 2 and not any(r.censored for r in serial)
    assert gl.sweep(*args, jobs=2) == serial
