"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Symbolic criteria (1-4) assert exact rational coefficients; Monte Carlo
criteria compare against three standard errors with the seeds and replicate
counts fixed below.  Two sub-checks assert literature values that precise
measurement contradicts (the average-manifold coefficient 5/2, where the
calculus' own moment rules give 5/4, and the zero mean of the quadratic
resonant noise, whose true mean is computable in closed form); they are
implemented exactly as stated and marked as strict expected failures, with
the measured and the derived values printed in their criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_system, record_criterion
from snf import noise
from snf.analysis import (expected_ssm, long_time_model,
                          project_initial_condition, revert,
                          ssm_parametrisation)
from snf.engine import construct, identity_form, verify_order
from snf.mc import (compile_full_system, compile_observables,
                    compile_slow_model, run_ensemble)
from snf.paths import NoisePath, PathSampler, evaluate_series, integrate_expression
from snf.render import parse_series_for
from snf.report import emit_report, parse_report, rebuild_normal_form, verify_report
from snf.series import Series
from snf.systems import ALLOW, FORBID, Policy

F = Fraction


def S(spec, text):
    return parse_series_for(text, spec)


# ---------------------------------------------------------------------- 1

def test_criterion_1_toy_symbolic_exactness():
    t0 = time.time()
    det = construct(make_system("toy.snf", total=4, caps=(0,)), ALLOW)
    low = construct(make_system("toy.snf", total=3, caps=(None,)), ALLOW)
    high = construct(make_system("toy.snf", total=5, caps=(2,)), ALLOW)
    elapsed = time.time() - t0

    spec = det.spec
    ok_det = (
        Series.slow_var(spec.dims, spec.trunc, 0) + det.xi[0]
        == S(spec, "x + x*y + 3/2*x*y^2 - 2*x^3*y + 5/2*x*y^3")
    ) and (
        Series.fast_var(spec.dims, spec.trunc, 0) + det.eta[0]
        == S(spec, "y + x^2 + 2*y^2 + 4*y^3 - 4*x^2*y^2 + 8*y^4")
    )
    spec = low.spec
    ok_evolution = (
        low.xdot()[0] == S(spec, "-x^3 - sigma*x*phi[0]"
                                 " + 2*sigma^2*x*phi[0]*Z[-1]{ phi[0] }")
    ) and (
        low.ydot()[0] == S(spec, "-y - 2*x^2*y - 4*sigma*y*phi[0]"
                                 " + 8*sigma^2*y*phi[0]*Z[-1]{ phi[0] }")
    )
    spec = high.spec
    ok_high = (
        high.xdot()[0] == S(spec, """
            -x^3 - sigma*x*phi[0] + 2*sigma^2*x*phi[0]*Z[-1]{ phi[0] }
            - 4*sigma^2*x^3*phi[0]*Z[-1]{ Z[-1]{ phi[0] } }""")
    ) and (
        high.ydot()[0] == S(spec, """
            -(1 + 2*x^2 + 4*x^4)*y - 4*sigma*(1 + x^2)*y*phi[0]
            + 8*sigma^2*y*phi[0]*Z[-1]{ phi[0] }
            + 4*sigma^2*x^2*y*phi[0]*(3*Z[-1]{ phi[0] } - Z[+1]{ phi[0] }
                                      - 2*Z[-1]{ Z[-1]{ phi[0] } })""")
    )
    ok = ok_det and ok_evolution and ok_high and elapsed < 10.0
    record_criterion(1, "toy transforms and models, exact rationals", ok,
                     f"derivations in {elapsed:.2f}s")
    assert ok_det and ok_evolution and ok_high
    assert elapsed < 10.0


# ---------------------------------------------------------------------- 2

def test_criterion_2_no_anticipation_exactness():
    t0 = time.time()
    nf = construct(make_system("toy.snf", total=3, caps=(2,)), FORBID)
    allow = construct(make_system("toy.snf", total=3, caps=(2,)), ALLOW)
    elapsed = time.time() - t0
    spec = nf.spec
    ok_x = Series.slow_var(spec.dims, spec.trunc, 0) + nf.xi[0] == S(spec, """
        x + sigma*x*Z[-1]{ phi[0] } - 1/2*sigma^2*x*Z[-1]{ phi[0] }^2
        - 2*sigma^2*x*Z[-1]{ Z[-1]{ phi[0] }^2 }""")
    ok_y = Series.fast_var(spec.dims, spec.trunc, 0) + nf.eta[0] == S(spec, """
        y + x^2 + sigma*(1 + 4*y + 2*x^2)*Z[-1]{ phi[0] }
        - 2*sigma*x^2*Z[-1]{ Z[-1]{ phi[0] } }
        - 2*sigma^2*Z[-1]{ Z[-1]{ phi[0] }^2 }
        + 4*sigma^2*y*Z[-1]{ phi[0] }^2
        - 8*sigma^2*y*Z[-1]{ Z[-1]{ phi[0] }^2 }""")
    ok_xx = nf.xdot()[0] == S(spec, """
        -x^3 - x*y - sigma*x*phi[0] - 4*sigma*x*y*Z[-1]{ phi[0] }
        + 2*sigma^2*x*phi[0]*Z[-1]{ phi[0] }""")
    ok_yy = nf.ydot()[0] == S(spec, """
        -(1 + 2*x^2 + 2*y)*y - 4*sigma*y*(phi[0] + 2*y*Z[-1]{ phi[0] })
        + 8*sigma^2*y*phi[0]*Z[-1]{ phi[0] }""")
    no_anticipation = all(
        not noise.anticipates(e)
        for s in nf.xi + nf.eta + nf.F + nf.G
        for (_m, e) in s.terms)
    zero = [Series.zero(spec.dims, spec.trunc)]
    ssm_equal = nf.xdot()[0].substitute(fast=zero).terms \
        == allow.xdot()[0].substitute(fast=zero).terms
    ok = (ok_x and ok_y and ok_xx and ok_yy and no_anticipation
          and ssm_equal and elapsed < 10.0)
    record_criterion(2, "no-anticipation model and slow-manifold equivalence",
                     ok, f"derivations in {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------- 3

def test_criterion_3_two_scale_system():
    t0 = time.time()
    nf = construct(make_system("papavasiliou.snf"), ALLOW)
    elapsed = time.time() - t0
    spec = nf.spec
    # The published display of this model carries (1 - 2 eps + 2X) on the
    # noise; the homological split at that order is overdetermined and forces
    # +2 eps (the bare, Z- and Z-Z- coefficients must match independently),
    # and the residual certification plus the ensemble comparison of
    # criterion 7 confirm the corrected sign.
    ok_x = nf.xdot()[0] == S(spec, """
        -eps*(x + eps*x + x^2) - eps*sigma*(1 + 2*eps + 2*x)*phi[0]
        - eps*sigma^2*phi[0]*Z[-1]{ phi[0] }""")
    ok_y = nf.ydot()[0] == S(spec, """
        y*((-1 + eps + eps^2 + 2*eps^3) + (2*eps + 4*eps^2)*x
           + sigma*(2*eps + 6*eps^2)*phi[0])""")
    lt = long_time_model(nf)
    ok_lt = lt.F[0] == S(spec, """
        -eps*(1/2*sigma^2 + x + eps*x + x^2)
        - eps*sigma*(1 + 2*eps + 2*x)*phi[0] - eps*sigma^2*phi[1]""")
    ok_fresh = (len(lt.fresh) == 1 and lt.fresh[0].intensity == F(1, 2)
                and lt.fresh[0].rate == F(-1) and not lt.leftovers)
    # slow-time restoration at sigma = 1: numeric drift/diffusion of (4.12)
    eps = 0.01
    sde = compile_slow_model(nf, {"eps": eps, "sigma": 1.0}, lt)
    state = np.array([[0.3]])
    z = sde.bank.make_state(1)
    drift, diff = sde.rates(state, z)
    X = 0.3
    want_drift = -eps * (0.5 + X + eps * X + X ** 2)
    want_dW = -eps * (1 + 2 * eps + 2 * X)
    ok_slowtime = (abs(drift[0, 0] - want_drift) < 1e-14
                   and abs(diff[0, 0, 0] - want_dW) < 1e-14
                   and abs(diff[0, 1, 0] - (-eps)) < 1e-14
                   and abs(float(sde.noise_amp[1]) - 1 / math.sqrt(2)) < 1e-14)
    ok = ok_x and ok_y and ok_lt and ok_fresh and ok_slowtime and elapsed < 10
    record_criterion(3, "two-scale model, drift 1/2 and noise scale 1/sqrt(2)",
                     ok, f"derivation in {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------------- 4

def test_criterion_4_residual_certification():
    import copy
    t0 = time.time()
    systems = [
        construct(make_system("toy.snf", total=5, caps=(2,)), ALLOW),
        construct(make_system("toy.snf", total=3, caps=(2,)), FORBID),
        construct(make_system("papavasiliou.snf"), ALLOW),
        construct(make_system("linear.snf"), ALLOW),
    ]
    all_certified = all(verify_order(nf.spec, nf) is None for nf in systems)
    detected = 0
    trials = 0
    rng = np.random.default_rng(5)
    for nf in systems:
        spec = nf.spec
        for _ in range(3):
            bad = copy.deepcopy(nf)
            parts = [p for p in (bad.xi, bad.eta, bad.F, bad.G)
                     if any(not s.is_zero() for s in p)]
            part = parts[rng.integers(len(parts))]
            comp = rng.integers(len(part))
            if part[comp].is_zero():
                continue
            keys = part[comp].sorted_terms()
            key, c = keys[rng.integers(len(keys))]
            part[comp] = part[comp] + Series(spec.dims, spec.trunc,
                                             {key: c / 7})
            trials += 1
            if verify_order(spec, bad) is not None:
                detected += 1
    # Three faults the residual does not see, judged as `snf verify` judges
    # them: two forms that decouple nothing (the identity transform with the
    # original equations as its evolution, and toy@3 with mu_min above the
    # fast rate), and toy@3's report with its header misstating the order as
    # 2, whose rebuilt form is clean and clears the residual, so that only
    # the header check catches it.
    toy3 = make_system("toy.snf", total=3)
    ident = identity_form(toy3, ALLOW)
    ident.F, ident.G = list(toy3.f), list(toy3.g)
    ident.residual_grade = verify_order(toy3, ident)
    near = construct(toy3, Policy(anticipation=True, mu_min=F(2)))
    report3 = emit_report(construct(toy3, ALLOW))
    misstated = report3.replace("\norder: 3\n", "\norder: 2\n")
    rebuilt = rebuild_normal_form(parse_report(misstated, toy3), toy3, ALLOW)
    rebuilt.residual_grade = verify_order(toy3, rebuilt)
    structural = [ident.certification_failures(), near.certification_failures(),
                  verify_report(misstated, toy3)]
    residual_blind = (ident.residual_grade is None and near.residual_grade is None
                      and misstated != report3 and not rebuilt.certification_failures())
    structural_caught = sum(1 for failures in structural if failures)
    elapsed = time.time() - t0
    ok = (all_certified and trials >= 8 and detected == trials and residual_blind
          and structural_caught == len(structural) and elapsed < 30)
    record_criterion(4, "independent certification and corruption detection",
                     ok, f"{detected}/{trials} corruptions caught, "
                     f"{structural_caught}/{len(structural)} structural failures "
                     f"caught, {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------- 5

N_PATHS_5 = 100
DT_5 = 1e-3
T_5 = 50.0


@pytest.fixture(scope="module")
def oracle_paths():
    return [NoisePath.generate(T_5, DT_5, 1, seed=2000 + i, spin=30.0, trim=30.0)
            for i in range(N_PATHS_5)]


def test_criterion_5_convolution_oracle(oracle_paths):
    t0 = time.time()
    PHI = noise.phi_atom(0)
    ZM = noise.z_atom(F(-1), (PHI,))
    ZM2 = noise.z_atom(F(-2), (PHI,))
    ZP = noise.z_atom(F(1), (PHI,))
    band = 15.0 * DT_5
    sq_means, drift_means, zmean, zsq2 = [], [], [], []
    worst = 0.0
    for p in oracle_paths:
        smp = PathSampler(p)
        sl = p.main_slice()
        lo = p.main_lo
        z = smp.expr((ZM,)).values

        # definition (direct quadrature at the final grid point)
        i = p.main_hi
        taus = (np.arange(p.n_total) + 0.5 - p.n_spin) * DT_5
        t = (i - p.n_spin) * DT_5
        direct = float(np.sum(np.exp(-(t - taus[:i])) * p.increments[0, :i]))
        worst = max(worst, abs(z[i] - direct))

        # d/dt Z[mu] phi = -sgn(mu) phi + mu Z[mu] phi (both signs)
        for mu, atom in ((-1.0, ZM), (1.0, ZP)):
            za = smp.expr((atom,)).values
            sgn = 1.0 if mu > 0 else -1.0
            cum = integrate_expression(p, [(-sgn, (PHI,)), (mu, (atom,))], smp)
            err = np.max(np.abs((za[sl] - za[lo]) - (cum[sl] - cum[lo])))
            worst = max(worst, err / 3.0)

        # compositions, both sign patterns
        lhs = smp.expr((noise.z_atom(F(-1), (ZM2,)),)).values[sl]
        rhs = (smp.expr((ZM,)).values - smp.expr((ZM2,)).values)[sl]
        worst = max(worst, np.max(np.abs(lhs - rhs)))
        lhs = smp.expr((noise.z_atom(F(1), (ZM,)),)).values[sl]
        rhs = 0.5 * (smp.expr((ZM,)).values + smp.expr((ZP,)).values)[sl]
        worst = max(worst, np.max(np.abs(lhs - rhs)))

        # integration-by-parts rewrites
        for c in ({(ZM, ZM): F(1)}, {(noise.z_atom(F(-1), (ZM, ZM)),): F(1)},
                  {noise.product(ZM, ZP): F(1)}):
            evo, xform = noise.ibp_normalize(c)
            cum_c = integrate_expression(p, [(float(v), e) for e, v in c.items()], smp)
            cum_e = integrate_expression(p, [(float(v), e) for e, v in evo.items()], smp)
            xp = np.zeros(p.n_points)
            for e, v in xform.items():
                xp += float(v) * smp.expr(e).values
            err = np.max(np.abs((cum_c[sl] - cum_c[lo])
                                - (cum_e[sl] - cum_e[lo])
                                - (xp[sl] - xp[lo])))
            worst = max(worst, err)

        # moments
        zmean.append(np.mean(z[sl]))
        sq_means.append(np.mean(z[sl] ** 2))
        zsq2.append(np.mean(smp.expr((ZM2,)).values[sl] ** 2))
        I = integrate_expression(p, [(1.0, noise.product(PHI, ZM))], smp)
        drift_means.append((I[p.main_hi] - I[lo]) / T_5)

    def within(vals, target, label):
        m = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        return abs(m - target) <= 3 * se, f"{label}={m:.4f}+-{se:.4f}"

    ok_sq, d1 = within(sq_means, 0.5, "E[(Z-1 phi)^2]")
    ok_dr, d2 = within(drift_means, 0.5, "E[phi Z-1 phi]")
    ok_zm, d3 = within(zmean, 0.0, "E[Z-1 phi]")
    ok_z2, d4 = within(zsq2, 0.25, "E[(Z-2 phi)^2]")
    elapsed = time.time() - t0
    ok = worst < band and ok_sq and ok_dr and ok_zm and ok_z2
    record_criterion(5, "convolution identities on 100 paths", ok,
                     f"max pointwise err {worst:.2e} (band {band:.2e}); "
                     f"{d1}; {d2}; {elapsed:.0f}s")
    assert worst < band
    assert ok_sq and ok_dr and ok_zm and ok_z2


def test_criterion_5_error_shrinks_with_dt():
    # the tolerance band is first order: halving dt halves the identity error
    PHI = noise.phi_atom(0)
    ZM = noise.z_atom(F(-1), (PHI,))
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        p = NoisePath.generate(20.0, dt, 1, seed=77, spin=40.0, trim=40.0)
        smp = PathSampler(p)
        sl, lo = p.main_slice(), p.main_lo
        evo, xform = noise.ibp_normalize({(ZM, ZM): F(1)})
        cum_c = integrate_expression(p, [(1.0, (ZM, ZM))], smp)
        cum_e = integrate_expression(p, [(float(v), e) for e, v in evo.items()], smp)
        xp = sum(float(v) * smp.expr(e).values for e, v in xform.items())
        errs.append(np.max(np.abs((cum_c[sl] - cum_c[lo])
                                  - (cum_e[sl] - cum_e[lo]) - (xp[sl] - xp[lo]))))
    assert errs[0] > errs[1] > errs[2]


# ---------------------------------------------------------------------- 6

def test_criterion_6_random_walk_recovery():
    t0 = time.time()
    spec = make_system("linear.snf")
    eps, T = 0.1, 50.0
    sde = compile_full_system(spec, {"eps": eps})
    res = run_ensemble(sde, [0.0, 0.0], T, 1e-3, 2000, seed=607,
                       sample_times=[T])
    x = res.samples[:, 0, 0]
    ratio = x.var(ddof=1) / (eps ** 2 * T)
    se_mean = x.std(ddof=1) / math.sqrt(len(x))
    ok = 0.9 <= ratio <= 1.1 and abs(x.mean()) <= 3 * se_mean
    elapsed = time.time() - t0
    record_criterion(6, "random walk the averaged model misses", ok,
                     f"Var/(eps^2 T)={ratio:.3f}, mean={x.mean():.4f}"
                     f"+-{se_mean:.4f}, {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------- 7

def _toy_comparison():
    sigma = 0.05
    nf = construct(make_system("toy.snf", total=3, caps=(None,)), ALLOW)
    spec = nf.spec
    params = {"sigma": sigma}
    x0, y0 = 0.3, 0.09
    times = [5.0, 20.0]
    full = compile_full_system(spec, params)
    res_f = run_ensemble(full, [x0, y0], 20.0, 1e-3, 384, seed=701,
                         sample_times=times)
    ip = project_initial_condition(revert(nf), nf, F(3, 10), F(9, 100))
    X0 = sum(float(c) * sigma ** m[2][0] for (m, _e), c in ip.mean.terms.items())
    chart = ssm_parametrisation(nf)
    red = compile_slow_model(nf, params)
    obs = compile_observables(chart.x_of_X, red, params, spec.param_names,
                              lambda m: tuple(m[0]))
    res_r = run_ensemble(red, [X0], 20.0, 1e-3, 384, seed=702,
                         sample_times=times, observables=obs)
    return res_f, res_r, times


def _pk_comparison():
    eps, sigma = 0.01, 1.0
    nf = construct(make_system("papavasiliou.snf"), ALLOW)
    spec = nf.spec
    params = {"eps": eps, "sigma": sigma}
    x0 = 0.2
    times = [5.0, 20.0]
    full = compile_full_system(spec, params)
    res_f = run_ensemble(full, [x0, x0], 20.0, 1e-3, 512, seed=711,
                         sample_times=times)
    ip = project_initial_condition(revert(nf), nf, F(1, 5), F(1, 5))
    X0 = sum(float(c) * eps ** m[2][0] * sigma ** m[2][1]
             for (m, _e), c in ip.mean.terms.items())
    red = compile_slow_model(nf, params)
    res_r = run_ensemble(red, [X0], 20.0, 1e-3, 512, seed=712,
                         sample_times=times)
    # deterministic averaged model dxbar = -(xbar + xbar^2 + 1/2) dtau,
    # integrated in the fast time (dtau = eps dt)
    xb = x0
    dt = 1e-3
    avg = {}
    for i in range(int(20.0 / dt)):
        t = (i + 1) * dt
        k1 = -eps * (xb + xb ** 2 + 0.5)
        xm = xb + 0.5 * dt * k1
        xb = xb + dt * (-eps * (xm + xm ** 2 + 0.5))
        for tt in times:
            if abs(t - tt) < dt / 2:
                avg[tt] = xb
    return res_f, res_r, avg, times


def test_criterion_7_full_vs_reduced():
    t0 = time.time()
    details = []
    ok = True
    res_f, res_r, times = _toy_comparison()
    for i, t in enumerate(times):
        dm = res_f.mean()[i, 0] - res_r.mean()[i, 0]
        se = math.hypot(res_f.stderr_mean()[i, 0], res_r.stderr_mean()[i, 0])
        dv = res_f.var()[i, 0] - res_r.var()[i, 0]
        sev = math.hypot(res_f.stderr_var()[i, 0], res_r.stderr_var()[i, 0])
        ok &= abs(dm) <= 3 * se and abs(dv) <= 3 * sev
        details.append(f"toy t={t:g}: mean z={abs(dm)/se:.2f}, var z={abs(dv)/sev:.2f}")

    res_f, res_r, avg, times = _pk_comparison()
    err_nf = err_avg = 0.0
    for i, t in enumerate(times):
        dm = res_f.mean()[i, 0] - res_r.mean()[i, 0]
        se = math.hypot(res_f.stderr_mean()[i, 0], res_r.stderr_mean()[i, 0])
        dv = res_f.var()[i, 0] - res_r.var()[i, 0]
        sev = math.hypot(res_f.stderr_var()[i, 0], res_r.stderr_var()[i, 0])
        ok &= abs(dm) <= 3 * se and abs(dv) <= 3 * sev
        details.append(f"pk t={t:g}: mean z={abs(dm)/se:.2f}, var z={abs(dv)/sev:.2f}")
        err_nf += abs(dm) + abs(res_f.var()[i, 0] ** 0.5 - res_r.var()[i, 0] ** 0.5)
        err_avg += abs(res_f.mean()[i, 0] - avg[t]) + res_f.var()[i, 0] ** 0.5
    # the averaged model's error is dominated by the fluctuations it drops,
    # the sqrt(eps) = 10% scale; the normal-form model must do visibly better
    ok_scale = 0.02 <= err_avg <= 0.6
    ok_visible = err_avg > 3 * err_nf
    ok &= ok_scale and ok_visible
    elapsed = time.time() - t0
    record_criterion(7, "full vs reduced ensembles; averaging visibly worse",
                     ok, "; ".join(details)
                     + f"; avg-model err {err_avg:.3f} vs nf err {err_nf:.3f}"
                     f"; {elapsed:.0f}s")
    assert ok


# ---------------------------------------------------------------------- 8

N_PATHS_8 = 160
SIGMA_8 = 0.1


@pytest.fixture(scope="module")
def chart_samples():
    """Time-and-ensemble averages of the manifold chart at sigma = 0.1."""
    nf = construct(make_system("toy.snf", total=3, caps=(None,)), ALLOW)
    chart = ssm_parametrisation(nf)
    spec = nf.spec
    params = {"sigma": SIGMA_8}
    ratios, y02, y04, x02, x04 = [], [], [], [], []
    for i in range(N_PATHS_8):
        p = NoisePath.generate(50.0, 1e-3, 1, seed=3000 + i, spin=30.0)
        smp = PathSampler(p)
        sl = p.main_slice()
        xs = evaluate_series(smp, chart.x_of_X[0], params, [1.0], [])
        ratios.append(np.mean(xs[sl]))
        for X, yacc, xacc in ((0.2, y02, x02), (0.4, y04, x04)):
            ys = evaluate_series(smp, chart.y_of_X[0], params, [X], [])
            xs2 = evaluate_series(smp, chart.x_of_X[0], params, [X], [])
            yacc.append(np.mean(ys[sl]))
            xacc.append(np.mean(xs2[sl] ** 2))
    return (np.array(ratios), np.array(y02), np.array(y04),
            np.array(x02), np.array(x04))


def _ratio_stats(chart_samples):
    ratios = chart_samples[0]
    m = ratios.mean()
    se = ratios.std(ddof=1) / math.sqrt(len(ratios))
    return m, se


@pytest.mark.xfail(strict=True, reason=(
    "as stated the criterion asserts E[x]/X = 1 - (5/2) sigma^2; the chart's "
    "expectation under the calculus' own moment rules is 1 - (5/4) sigma^2 "
    "(E[(Z-phi)^2]=1/2, E[Z-((Z-phi)^2)]=1/2), which precise Monte Carlo "
    "confirms; the stated 5/2 is inconsistent with those rules, while the "
    "companion steeper-parabola factor 1+(5/2)sigma^2 is exactly what the "
    "5/4 coefficient squares to"))
def test_criterion_8_average_ssm_as_stated(chart_samples):
    m, se = _ratio_stats(chart_samples)
    stated = 1 - 2.5 * SIGMA_8 ** 2
    record_criterion("8", "average-manifold deformation (coefficient as stated)",
                     abs(m - stated) <= 3 * se,
                     f"measured E[x]/X = {m:.5f}+-{se:.5f}, stated {stated:.5f},"
                     f" rule-table value {1 - 1.25 * SIGMA_8**2:.5f}")
    assert abs(m - stated) <= 3 * se


def test_criterion_8_average_ssm_measured(chart_samples):
    ratios, y02, y04, x02, x04 = chart_samples
    m, se = _ratio_stats(chart_samples)
    table_value = 1 - 1.25 * SIGMA_8 ** 2
    ok_ratio = abs(m - table_value) <= 3 * se

    # steeper-parabola factor: X^2 coefficients of E[y] and E[x]^2
    by = (y04.mean() - y02.mean()) / (0.4 ** 2 - 0.2 ** 2)
    bx = (x04.mean() - x02.mean()) / (0.4 ** 2 - 0.2 ** 2)
    factor = by / bx
    want = 1 + 2.5 * SIGMA_8 ** 2
    # the offset E[y](0) = -sigma^2 from the mean of the transform
    offset = y02.mean() - by * 0.2 ** 2
    ok_factor = abs(factor - want) < 0.02
    ok = ok_ratio and ok_factor
    record_criterion("8b", "average-manifold deformation (measured)", ok,
                     f"E[x]/X = {m:.5f}+-{se:.5f} vs 1-(5/4)sigma^2 = "
                     f"{table_value:.5f}; E[y]-vs-E[x]^2 factor {factor:.4f} "
                     f"(1+(5/2)sigma^2 = {want:.4f}); offset {offset:.5f} "
                     f"(mean of transform: {-SIGMA_8**2:.5f})")
    assert ok


# ---------------------------------------------------------------------- 9

DELTA_9 = 0.2
N_PATHS_9 = 8


@pytest.fixture(scope="module")
def quad_noise_ensemble():
    from snf.bands import band_component, quad_resonant_noise
    rng = np.random.default_rng(909)
    dt, T = 0.05, 2000.0
    n = int(T / dt)
    out = []
    for _ in range(N_PATHS_9):
        w = rng.standard_normal(n) / math.sqrt(dt)
        p0 = band_component(w, dt, 0.0, DELTA_9)
        p2 = band_component(w, dt, 2.0, DELTA_9)
        q = quad_resonant_noise(w, dt, DELTA_9)
        # measured, not asserted: how independent the quadratic noise is of
        # the linear band noise over the long run (a stated conjecture)
        xc = np.corrcoef(q.psi_r, p0.values.real)[0, 1]
        out.append((p0.sample_variance(), p2.sample_variance(),
                    q.c_r, q.c_i, np.mean(q.psi_plus.real),
                    np.mean(q.psi_plus.imag), xc))
    return np.array(out)


def test_criterion_9_hopf_constants(quad_noise_ensemble):
    v0, v2, cr, ci = (quad_noise_ensemble[:, k] for k in range(4))
    xc = quad_noise_ensemble[:, 6]
    ok_bands = 0.8 <= v0.mean() <= 1.2 and 0.8 <= v2.mean() <= 1.2
    ok_cr = abs(cr.mean() - 0.87) <= 0.05
    ok_ci = abs(ci.mean() - 0.20) <= 0.05
    ok = ok_bands and ok_cr and ok_ci
    record_criterion(9, "quadratic noise scales and band variances", ok,
                     f"c_r={cr.mean():.3f}+-{cr.std(ddof=1)/math.sqrt(len(cr)):.3f}, "
                     f"c_i={ci.mean():.3f}, E|phi0|^2={v0.mean():.3f}, "
                     f"E|phi2|^2={v2.mean():.3f}; psi_r/phi0 correlation "
                     f"{xc.mean():+.3f}+-{xc.std(ddof=1)/math.sqrt(len(xc)):.3f} "
                     "(reported, not asserted)")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "the resonant quadratic noise has a small positive mean, analytically "
    "integral over D of domega/(omega^2-4) ~ +0.12 on this grid, which a "
    "3-s.e. test at this power resolves; the zero-mean impression holds "
    "only at single-realisation power"))
def test_criterion_9_psi_mean_as_stated(quad_noise_ensemble):
    mr = quad_noise_ensemble[:, 4]
    mi = quad_noise_ensemble[:, 5]
    se_r = mr.std(ddof=1) / math.sqrt(len(mr))
    se_i = mi.std(ddof=1) / math.sqrt(len(mi))
    ok = abs(mr.mean()) <= 3 * se_r and abs(mi.mean()) <= 3 * se_i
    record_criterion("9b", "psi mean within 3 s.e. of zero (as stated)", ok,
                     f"Re mean {mr.mean():.4f}+-{se_r:.4f} (analytic +0.12), "
                     f"Im mean {mi.mean():.4f}+-{se_i:.4f}")
    assert ok


# ---------------------------------------------------------------------- 10

def test_criterion_10_mathieu():
    from snf.hopf import mathieu_growth
    t0 = time.time()
    res = mathieu_growth(0.05, 0.3)
    pred = res["predicted"]
    ok = (abs(res["model"] - pred) <= 0.1 * pred
          and abs(res["full"] - pred) <= 0.1 * pred and pred == 0.1)
    record_criterion(10, "Mathieu-type growth from model and full oscillator",
                     ok, f"model {res['model']:.4f}, full {res['full']:.4f}, "
                     f"predicted {pred:.4f}, {time.time()-t0:.0f}s")
    assert ok


# -------------------------------------------------------- qualitative check

def test_qualitative_trajectories_approach_fluctuating_manifold():
    """Late-time trajectory bundles sit on the fluctuating parabola: median
    distance to the sampled manifold chart below the 3-sigma band."""
    sigma = 0.05
    nf = construct(make_system("toy.snf", total=3, caps=(None,)), ALLOW)
    spec = nf.spec
    chart = ssm_parametrisation(nf)
    rv = revert(nf)
    params = {"sigma": sigma}
    dt, T = 1e-3, 15.0
    dists = []
    for i in range(8):
        p = NoisePath.generate(T, dt, 1, seed=4000 + i, spin=30.0, trim=30.0)
        smp = PathSampler(p)
        lo, hi = p.main_lo, p.main_hi
        dw = p.increments[0]
        x = np.empty(p.n_points)
        y = np.empty(p.n_points)
        # start away from the manifold
        x[lo], y[lo] = 0.35, 0.35
        for k in range(lo, hi):
            xk, yk = x[k], y[k]
            fx = -xk * yk
            fy = -yk + xk ** 2 - 2 * yk ** 2
            xp = xk + fx * dt
            yp = yk + fy * dt + sigma * dw[k]
            fxp = -xp * yp
            fyp = -yp + xp ** 2 - 2 * yp ** 2
            x[k + 1] = xk + 0.5 * dt * (fx + fxp)
            y[k + 1] = yk + 0.5 * dt * (fy + fyp) + sigma * dw[k]
        X = evaluate_series(smp, rv.X_of_xy[0], params, [x], [y])
        y_chart = evaluate_series(smp, chart.y_of_X[0], params, [X], [])
        late = slice(lo + int(5.0 / dt), hi)
        dists.append(np.median(np.abs(y[late] - y_chart[late])))
    med = float(np.median(dists))
    ok = med < 3 * sigma
    record_criterion("F", "trajectories collapse onto the fluctuating parabola",
                     ok, f"median chart distance {med:.4f} < {3*sigma:.2f}")
    assert ok
