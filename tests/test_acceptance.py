"""End-to-end acceptance runs.

One test per criterion; each prints a single PASS/FAIL line so the suite
output doubles as the acceptance report.  Configurations are the calibrated
production settings; pinned parameters (epsilon ladders, horizons, weights,
tolerances) come straight from the criteria.
"""

import math
import os
import time

import numpy as np
import pytest

import glassey_lab as gl
from glassey_lab.cli import main as cli_main
from oracles import exact_free_n3

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} — {detail}")
    assert ok, detail


def _gaussian(eps=1.0, assigns="to_u0"):
    return gl.DataProfile(family="gaussian", epsilon=eps, width=1.0, center=0.0,
                          assigns=assigns)


def test_criterion_01_linear_solver_vs_exact_oracle():
    t0 = time.time()
    spec = gl.ProblemSpec(n_dim=3, p=2.0, a=0.0, b=0.0)
    errs = {}
    for cells in (1000, 2000, 4000):
        g = gl.RadialGrid(r_max=20.0, num_cells=cells)
        data = gl.make_profile(_gaussian(), g)
        out = gl.evolve(spec, data.u0, data.u1, g, 1.0)
        exact_u, _ = exact_free_n3(data.u0, data.u1, 1.0, g)
        fin_u = out.trajectory.u[-1]
        diff = gl.RadialField(g, fin_u - exact_u.values)
        errs[cells] = gl.weighted_l2(diff, 3, 0, 0) / gl.weighted_l2(exact_u, 3, 0, 0)
    orders = [math.log2(errs[1000] / errs[2000]), math.log2(errs[2000] / errs[4000])]
    elapsed = time.time() - t0
    ok = (errs[2000] <= 1e-3 and all(1.8 <= o <= 2.2 for o in orders)
          and elapsed <= 30.0)
    report(1, ok,
           f"rel L2 err @2000 = {errs[2000]:.2e} (<=1e-3), orders = "
           f"{orders[0]:.2f}/{orders[1]:.2f} in [1.8,2.2], {elapsed:.0f}s")


def test_criterion_02_linear_energy_conservation():
    t0 = time.time()
    spec = gl.ProblemSpec(n_dim=3, p=2.0, a=0.0, b=0.0)
    g = gl.RadialGrid(r_max=18.0, num_cells=7200)
    data = gl.make_profile(_gaussian(), g)
    out = gl.evolve(spec, data.u0, data.u1, g, 10.0, cfl=0.25, sample_stride=40)
    energies = gl.energy(out.trajectory)
    drift = float(np.max(np.abs(energies / energies[0] - 1.0)))
    elapsed = time.time() - t0
    ok = drift <= 1e-5 and elapsed <= 60.0
    report(2, ok, f"max |E(t)/E(0)-1| = {drift:.2e} (<=1e-5) over [0,10], {elapsed:.0f}s")


def test_criterion_03_hardy_suite():
    t0 = time.time()
    worst = 0.0
    violations = 0
    for n, s in ((3, 0.5), (3, 1.0), (4, 1.0), (2, 0.5)):
        samples = gl.run_ineq_suite("hardy", n, s, 200, 7, r_max=12.0, num_cells=2400)
        violations += sum(1 for x in samples if x.violation)
        worst = max(worst, max(x.ratio / x.bound for x in samples))
    g = gl.RadialGrid(r_max=12.0, num_cells=2400)
    f = gl.RadialField(g, np.exp(-(g.nodes**2)))
    golden = abs(gl.hardy_check(f, 3, 1.0).ratio - 2.0 / math.sqrt(3.0))
    elapsed = time.time() - t0
    ok = violations == 0 and golden <= 1e-3 and elapsed <= 60.0
    report(3, ok,
           f"800 samples, {violations} violations, worst ratio/bound = {worst:.3f}, "
           f"golden gap {golden:.1e} (<=1e-3), {elapsed:.0f}s")


def test_criterion_04_trace_variant_suite():
    t0 = time.time()
    worst = 0.0
    violations = 0
    for n, s in ((2, 0.0), (2, 0.125), (3, 0.25)):
        samples = gl.run_ineq_suite("trace_variant", n, s, 200, 7, r_max=12.0,
                                     num_cells=2400)
        violations += sum(1 for x in samples if x.violation)
        worst = max(worst, max(x.ratio / x.bound for x in samples))
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed <= 60.0
    report(4, ok,
           f"600 compact samples, {violations} violations of sqrt(2), "
           f"worst ratio/bound = {worst:.3f}, {elapsed:.0f}s")


def test_criterion_05_kss_uniformity():
    t0 = time.time()
    g = gl.RadialGrid(r_max=108.0, num_cells=2160)
    data = gl.make_profile(_gaussian(), g)
    hom = gl.kss_hom_check(data.u0, data.u1, 3, 0.3, 0.2, [1.0, 10.0, 100.0])
    hom_ok = gl.kss_band_ok(hom)

    forcing = gl.ForcingSpec(amplitude=1.0, space_center=0.0, space_width=1.0,
                             t_on=0.0, t_off=0.5)
    source_grid = gl.RadialGrid(r_max=103.5, num_cells=2070)
    inhom = gl.kss_inhom_check(forcing, source_grid, 3, 0.3, 0.2, [1.0, 10.0, 100.0])
    inhom_ok = gl.kss_band_ok(inhom)

    gate_ok = False
    try:
        gl.kss_inhom_check(forcing, source_grid, 2, 0.3, 0.2, [1.0])
    except gl.PreconditionViolation:
        gate_ok = True
    elapsed = time.time() - t0
    ok = hom_ok and inhom_ok and gate_ok and elapsed <= 600.0
    report(5, ok,
           f"hom ratios {[round(s.ratio, 3) for s in hom]} band<=25%: {hom_ok}; "
           f"inhom {[round(s.ratio, 3) for s in inhom]} band<=25%: {inhom_ok}; "
           f"n=2 gate: {gate_ok}; {elapsed:.0f}s")


def test_criterion_06_subcritical_lifespan_law():
    t0 = time.time()
    spec = gl.ProblemSpec(n_dim=3, p=1.5, a=1.0, b=0.0)
    records = gl.sweep(spec, _gaussian(assigns="split"),
                       (0.7, 1.0, 1.4, 2.0, 2.8), (1920, 3840), 40.0, 48.0)
    agree_ok = all((not r.censored) and r.agreement <= 0.10 for r in records)
    fit = gl.fit_power(records, spec)
    elapsed = time.time() - t0
    ok = (agree_ok and len(records) == 5
          and abs(fit.slope - (-1.0)) <= 0.2 and fit.r_squared >= 0.95
          and elapsed <= 1200.0)
    report(6, ok,
           f"slope = {fit.slope:.3f} (-1 +/- 0.2), r2 = {fit.r_squared:.4f} (>=0.95), "
           f"agreements <= {max(r.agreement for r in records):.3f}, {elapsed:.0f}s")


def test_criterion_07_critical_model_selection():
    t0 = time.time()
    spec = gl.ProblemSpec(n_dim=3, p=2.0, a=1.0, b=0.0)
    records = gl.sweep(spec, _gaussian(assigns="split"),
                       (1.5, 1.8, 2.2, 2.6, 3.0), (3600, 7200), 110.0, 120.0)
    usable = [r for r in records if not r.censored and r.agreement <= 0.10]
    fit = gl.fit_exponential(records, spec)
    elapsed = time.time() - t0
    ok = (len(usable) >= 4 and fit.r_squared > fit.r_squared_alt
          and fit.verdict == "consistent" and elapsed <= 1800.0)
    report(7, ok,
           f"{len(usable)} uncensored points, exponential r2 = {fit.r_squared:.5f} > "
           f"power r2 = {fit.r_squared_alt:.5f}, {elapsed:.0f}s")


def test_criterion_08_supercritical_global_evidence():
    t0 = time.time()
    details = []
    ok = True
    for n, p in ((3, 2.5), (2, 3.5)):
        spec = gl.ProblemSpec(n_dim=n, p=p, a=1.0, b=0.0)
        g = gl.RadialGrid(r_max=208.0, num_cells=2600)
        data = gl.make_profile(_gaussian(eps=0.05, assigns="split"), g)
        out = gl.evolve(spec, data.u0, data.u1, g, 200.0, sample_stride=40)
        energies = []
        for u, v in zip(out.trajectory.u, out.trajectory.v):
            du = gl.radial_derivative(gl.RadialField(g, u))
            energies.append(math.hypot(gl.weighted_l2(gl.RadialField(g, v), n, 0, 0),
                                       gl.weighted_l2(du, n, 0, 0)))
        surv = out.status == "completed"
        bounded = max(energies) <= 2.0 * energies[0]

        big = gl.make_profile(_gaussian(eps=5.0, assigns="split"), g)
        boom = gl.evolve(spec, big.u0, big.u1, g, 200.0, sample_stride=40)
        detects = boom.status == "blew_up" and boom.t_blowup is not None
        ok = ok and surv and bounded and detects
        details.append(f"n={n},p={p}: survived={surv}, "
                       f"E_sup/E0={max(energies) / energies[0]:.3f}, "
                       f"eps=5 blew at {boom.t_blowup}")
    elapsed = time.time() - t0
    ok = ok and elapsed <= 1200.0
    report(8, ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_09_picard_contraction():
    t0 = time.time()
    spec = gl.ProblemSpec(n_dim=3, p=2.5, a=1.0, b=0.0)
    g = gl.RadialGrid(r_max=18.0, num_cells=1800)
    data = gl.make_profile(_gaussian(eps=0.05, assigns="split"), g)
    res = gl.picard_run(spec, data.u0, data.u1, 10.0, max_iters=12, tol=1e-8)
    rhos = [t.rho_step for t in res.trace]
    ratios = [b / a for a, b in zip(rhos, rhos[1:])]
    contracting = res.converged and all(r <= 0.9 for r in ratios)

    direct = gl.evolve(spec, data.u0, data.u1, g, 10.0).trajectory
    dist = gl.e_norms(gl.trajectory_difference(res.final, direct))
    close = dist <= 1e-3 * res.lambda1
    elapsed = time.time() - t0
    ok = contracting and close and elapsed <= 600.0
    report(9, ok,
           f"ratios {[f'{r:.3f}' for r in ratios]} all <= 0.9, fixed point at "
           f"E1-distance {dist:.2e} <= 1e-3*Lambda1 = {1e-3 * res.lambda1:.2e}, "
           f"{elapsed:.0f}s")


def test_criterion_10_determinism(tmp_path):
    t0 = time.time()
    identical = True
    runs = [
        ["ineq", "--lemma", "hardy", "--n", "3", "--s", "1.0",
         "--samples", "200", "--seed", "7"],
        ["kss", "--variant", "hom", "--n", "3", "--delta", "0.3",
         "--delta-prime", "0.2", "--t-list", "1,4,16", "--rmax", "24",
         "--cells", "960"],
        ["lifespan", "--n", "3", "--p", "1.5", "--a", "1", "--b", "0",
         "--eps-list", "1.4,2.0,2.8,4.0", "--horizon", "15", "--rmax", "23",
         "--ladder", "460,920", "--assigns", "split"],
    ]
    for idx, argv in enumerate(runs):
        out1 = str(tmp_path / f"{idx}_a")
        out2 = str(tmp_path / f"{idx}_b")
        assert cli_main(argv + ["--out", out1]) == 0
        assert cli_main(["--config", os.path.join(out1, "config.txt"),
                         "--out", out2]) == 0
        for name in os.listdir(out1):
            if not name.endswith(".csv"):
                continue
            with open(os.path.join(out1, name), "rb") as fa, \
                    open(os.path.join(out2, name), "rb") as fb:
                if fa.read() != fb.read():
                    identical = False
    elapsed = time.time() - t0
    ok = identical
    report(10, ok, f"3 subcommand configs re-run byte-identically: {identical}, "
                   f"{elapsed:.0f}s")
