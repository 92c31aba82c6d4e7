"""Path sampling oracles: the convolution definition, its five properties,
and the integration-by-parts rewrites, all checked on sampled paths."""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from conftest import make_system, no_child_left
from snf import noise
from snf.noise import phi_atom, product, z_atom
from snf.mc import filter_weights, run_filter, trapezoid_input
from snf.render import parse_series_for
from snf.paths import (IllFormedForSampling, NoisePath, PathSampler,
                       evaluate_series, integrate_expression)

F = Fraction
PHI = phi_atom(0)
ZM = z_atom(F(-1), (PHI,))
ZP = z_atom(F(1), (PHI,))

DT = 1e-3
T = 50.0
N_PATHS = 24


def paths(n=N_PATHS, dt=DT, T_=T, trim=30.0):
    return [NoisePath.generate(T_, dt, 1, seed=1000 + i, spin=30.0, trim=trim)
            for i in range(n)]


def test_definition_matches_direct_quadrature():
    # Z[-1] phi at a grid point versus the brute-force Riemann sum of
    # exp(-(t - tau)) dW over the whole available past.
    p = NoisePath.generate(10.0, DT, 1, seed=3, spin=30.0)
    s = PathSampler(p).expr((ZM,))
    i = p.main_hi
    taus = (np.arange(p.n_total) + 0.5 - p.n_spin) * DT
    t = (i - p.n_spin) * DT
    direct = float(np.sum(np.exp(-(t - taus[: i])) * p.increments[0, : i]))
    assert abs(s.values[i] - direct) < 5e-3


def test_constant_input():
    # Z[mu] 1 = 1/|mu| : a filter driven by the unit signal converges to 1/2
    # for mu = -2 after its spin-up window.
    p = NoisePath.generate(10.0, DT, 1, seed=4, spin=30.0)
    one = PathSampler(p).expr(noise.ONE).values
    a, _c = filter_weights(-2.0, p.dt)
    out = np.concatenate(([0.0], run_filter(a, trapezoid_input(a, one[:-1], one[1:], p.dt))))
    assert abs(out[p.main_hi] - 0.5) < 1e-6


def test_stationary_second_moments():
    vals_m, vals_p = [], []
    for p in paths(12):
        smp = PathSampler(p)
        sl = p.main_slice()
        vals_m.append(np.mean(smp.expr((ZM,)).values[sl] ** 2))
        vals_p.append(np.mean(smp.expr((ZP,)).values[sl] ** 2))
    for vals in (vals_m, vals_p):
        m = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(m - 0.5) < 3 * se + 1e-3


def test_derivative_identity_pathwise():
    # d/dt Z[mu] phi = -sgn(mu) phi + mu Z[mu] phi, in cumulative form
    for mu, atom in ((F(-1), ZM), (F(1), ZP)):
        p = NoisePath.generate(20.0, DT, 1, seed=17, spin=30.0, trim=30.0)
        smp = PathSampler(p)
        z = smp.expr((atom,)).values
        sgn = 1 if mu > 0 else -1
        cum = integrate_expression(
            p, [(-float(sgn), (PHI,)), (float(mu), (atom,))], smp)
        sl = p.main_slice()
        lhs = z[sl] - z[p.main_lo]
        rhs = cum[sl] - cum[p.main_lo]
        assert np.max(np.abs(lhs - rhs)) < 2e-5


def test_nested_derivative_identity():
    # d/dt Z[-1]((Z[-1] phi)^2) = (Z- phi)^2 - Z[-1]((Z- phi)^2)
    outer = z_atom(F(-1), (ZM, ZM))
    p = NoisePath.generate(20.0, DT, 1, seed=19, spin=40.0)
    smp = PathSampler(p)
    z = smp.expr((outer,)).values
    cum = integrate_expression(p, [(1.0, (ZM, ZM)), (-1.0, (outer,))], smp)
    sl = p.main_slice()
    err = (z[sl] - z[p.main_lo]) - (cum[sl] - cum[p.main_lo])
    assert np.max(np.abs(err)) < 5e-4


def test_composition_identity_pointwise():
    # Z[-1] Z[-2] phi = Z[-1] phi - Z[-2] phi, sampled
    z2 = z_atom(F(-2), (PHI,))
    nested = z_atom(F(-1), (z2,))
    p = NoisePath.generate(20.0, DT, 1, seed=23, spin=40.0)
    smp = PathSampler(p)
    sl = p.main_slice()
    lhs = smp.expr((nested,)).values[sl]
    rhs = smp.expr((ZM,)).values[sl] - smp.expr((z2,)).values[sl]
    assert np.max(np.abs(lhs - rhs)) < 2e-4


def test_composition_opposite_signs_pointwise():
    nested = z_atom(F(1), (ZM,))
    p = NoisePath.generate(20.0, DT, 1, seed=29, spin=40.0, trim=40.0)
    smp = PathSampler(p)
    sl = p.main_slice()
    lhs = smp.expr((nested,)).values[sl]
    rhs = 0.5 * (smp.expr((ZM,)).values + smp.expr((ZP,)).values)[sl]
    assert np.max(np.abs(lhs - rhs)) < 2e-4


def test_ibp_rewrites_pathwise():
    # Every rewrite c = evolution + d/dt(transform) holds along paths.  The
    # discrepancy of the discrete quadratures is first order: measured about
    # 5*dt per unit coefficient; the band below allows three times that.
    cases = [
        {(ZM,): F(1)},
        {(ZM, ZM): F(1)},
        {(z_atom(F(-1), (ZM, ZM)),): F(1)},
        {product(ZM, ZP): F(1)},
        {product(ZM, z_atom(F(-2), (PHI,))): F(2)},
    ]
    p = NoisePath.generate(20.0, DT, 1, seed=31, spin=60.0, trim=60.0)
    smp = PathSampler(p)
    sl = p.main_slice()
    for c in cases:
        evo, xform = noise.ibp_normalize(c)
        cum_c = integrate_expression(p, [(float(v), e) for e, v in c.items()], smp)
        cum_e = integrate_expression(p, [(float(v), e) for e, v in evo.items()], smp)
        x_path = np.zeros(p.n_points)
        for e, v in xform.items():
            x_path += float(v) * smp.expr(e).values
        lhs = cum_c[sl] - cum_c[p.main_lo]
        rhs = (cum_e[sl] - cum_e[p.main_lo]) + (x_path[sl] - x_path[p.main_lo])
        scale = float(sum(abs(v) for v in c.values()))
        assert np.max(np.abs(lhs - rhs)) < 15.0 * DT * scale, c


def test_quadratic_drift_estimate():
    # time average of phi Z- phi is 1/2 within three standard errors
    drifts = []
    for p in paths(16, T_=50.0):
        smp = PathSampler(p)
        I = integrate_expression(p, [(1.0, product(PHI, ZM))], smp)
        drifts.append((I[p.main_hi] - I[p.main_lo]) / 50.0)
    m = np.mean(drifts)
    se = np.std(drifts, ddof=1) / math.sqrt(len(drifts))
    assert abs(m - 0.5) < 3 * se


def test_canonical_product_samples_as_pointwise_product():
    # (sigma Z- phi)*(sigma Z- phi) canonicalises to one squared term whose
    # sample equals the pointwise product of the factor samples
    p = NoisePath.generate(10.0, DT, 1, seed=53, spin=30.0)
    smp = PathSampler(p)
    sq = smp.expr((ZM, ZM)).values
    single = smp.expr((ZM,)).values
    assert np.array_equal(sq, single * single)


def test_time_reversal_duality():
    p = NoisePath.generate(20.0, DT, 1, seed=37, spin=30.0, trim=30.0)
    rev = NoisePath(p.dt, p.n_main, p.n_trim, p.n_spin, p.increments[:, ::-1].copy(), p.seed)
    sl = p.main_slice()
    fwd = PathSampler(p).expr((ZP,)).values[sl]
    dual = PathSampler(rev).expr((ZM,)).values[::-1][sl]
    assert np.max(np.abs(fwd - dual)) < 1e-12


def test_bare_noise_rejected_pointwise():
    p = NoisePath.generate(5.0, DT, 1, seed=41, spin=10.0)
    smp = PathSampler(p)
    with pytest.raises(IllFormedForSampling):
        smp.expr((PHI,))
    with pytest.raises(IllFormedForSampling):
        smp.expr((z_atom(F(-1), product(PHI, ZM)),))
    with pytest.raises(IllFormedForSampling):
        integrate_expression(p, [(1.0, product(PHI, PHI))], smp)


def test_window_too_short_rejected():
    p = NoisePath.generate(5.0, DT, 1, seed=43, spin=1.0)
    s = PathSampler(p).expr((ZM,))
    with pytest.raises(IllFormedForSampling):
        s.main_values(p)


NO_STEP = "the horizon must be positive, at least one step of dt = 0.001 and finitely many"


@pytest.mark.parametrize("kw,message", [
    # nan T or dt ended in "cannot convert float NaN to integer", inf T in
    # OverflowError; spin = -1 gave a path of no increments
    ({"T": math.nan}, f"T = nan: {NO_STEP}"),
    ({"T": math.inf}, f"T = inf: {NO_STEP}"),
    ({"T": 0.0}, f"T = 0.0: {NO_STEP}"),
    ({"dt": math.nan}, "dt = nan: the step must be positive and finite"),
    ({"dt": -1e-3}, "dt = -0.001: the step must be positive and finite"),
    ({"spin": -1.0}, "need non-negative finite spin, got -1"),
    ({"spin": math.inf}, "need non-negative finite spin, got inf"),
    ({"trim": -1.0}, "need non-negative finite trim, got -1"),
    ({"trim": math.nan}, "need non-negative finite trim, got nan"),
    # an empty window, n_main = 0, and numpy's unnamed "negative dimensions
    # are not allowed"
    ({"T": 1e-13}, f"T = 1e-13: {NO_STEP}"),
    ({"n_noise": -1}, "need non-negative finite n_noise, got -1"),
])
def test_generate_refuses_what_it_cannot_lay_out(kw, message):
    args = {"T": 1.0, "dt": DT, "n_noise": 1, "spin": 0.0, "trim": 0.0, **kw}
    with pytest.raises(ValueError, match=f"^{message}$"):
        NoisePath.generate(args["T"], args["dt"], args["n_noise"], seed=5,
                           spin=args["spin"], trim=args["trim"])
    no_child_left()


@pytest.mark.parametrize("T,dt", [(1.0005, 1e-3), (1e-4, 1e-3)])
def test_generate_refuses_a_horizon_off_the_step_grid(T, dt):
    # these used to be rounded to 1000 steps and to an empty window
    with pytest.raises(ValueError, match="^" + re.escape(
            f"horizon {T:g} is not a whole number of steps of dt = {dt:g}") + "$"):
        NoisePath.generate(T, dt, 1, seed=5, spin=0.0)
    # spin-up and trim stay lower bounds, rounded up
    p = NoisePath.generate(1.0, dt, 1, seed=5, spin=1.0005, trim=1e-4)
    assert (p.n_main, p.n_spin, p.n_trim) == (1000, 1001, 1)


def test_a_path_refuses_a_noise_it_does_not_carry():
    # each used to end in numpy's IndexError
    p = NoisePath.generate(1.0, 1e-2, n_noise=1, spin=0.0)
    carried = ": the path carries 1 noise(s)"
    with pytest.raises(IllFormedForSampling, match="^" + re.escape(
            "Z[-1]{ phi[1] }" + carried) + "$"):
        PathSampler(p).expr((z_atom(F(-1), (phi_atom(1),)),))
    with pytest.raises(IllFormedForSampling, match="^" + re.escape("phi[1]" + carried) + "$"):
        integrate_expression(p, [(1.0, product(phi_atom(1), ZM))])
    # a series of the toy system's one noise, on a path of none
    series = parse_series_for("x*Z[-1]{ phi[0] }", make_system("toy.snf"))
    p = NoisePath.generate(1.0, 1e-2, n_noise=0, spin=0.0)
    with pytest.raises(IllFormedForSampling, match="^" + re.escape(
            "Z[-1]{ phi[0] }: the path carries 0 noise(s)") + "$"):
        evaluate_series(PathSampler(p), series, {"sigma": 1.0}, [1.0], [0.0])


def test_filter_error_shrinks_with_dt():
    # strong error of the sampled convolution against a fine-grid reference,
    # must decrease monotonically over three refinements
    errs = []
    seed = 51
    fine_dt = 2.5e-4
    ref = NoisePath.generate(5.0, fine_dt, 1, seed=seed, spin=20.0)
    ref_z = PathSampler(ref).expr((ZM,)).values
    for factor in (8, 4, 2):
        dt = fine_dt * factor
        # coarse path uses the same Brownian motion: sum fine increments
        inc = ref.increments[0].reshape(-1, factor).sum(axis=1)[None, :]
        coarse = NoisePath(dt, int(round(5.0 / dt)), int(ref.n_spin / factor),
                           0, inc, seed)
        z = PathSampler(coarse).expr((ZM,)).values
        errs.append(np.max(np.abs(z[coarse.main_slice()]
                                  - ref_z[::factor][coarse.main_slice()])))
    assert errs[0] > errs[1] > errs[2]


def test_evaluate_series_samples_anticipating_factors():
    # reversions carry Z[+1] terms, which a forward simulation rejects but a
    # path evaluates; the reference multiplies the sampled factors directly
    from conftest import make_system
    from snf.render import parse_series_for
    spec = make_system("toy.snf")
    s = parse_series_for("x*Z[+1]{phi[0]} - 3/2*sigma^2*x^2*y*Z[-1]{phi[0]}"
                         "*Z[+1]{phi[0]} + 5*x", spec)
    p = NoisePath.generate(5.0, DT, 1, seed=61, spin=30.0, trim=30.0)
    smp = PathSampler(p)
    x = np.linspace(0.1, 0.4, p.n_points)
    sigma, y = 0.3, 0.2
    got = evaluate_series(smp, s, {"sigma": sigma}, [x], [y])
    zm, zp = smp.expr((ZM,)).values, smp.expr((ZP,)).values
    want = x * zp - 1.5 * sigma ** 2 * x ** 2 * y * zm * zp + 5 * x
    assert np.max(np.abs(got - want)) < 1e-12
    with pytest.raises(IllFormedForSampling):
        evaluate_series(smp, parse_series_for("x*phi[0]", spec),
                        {"sigma": sigma}, [x], [y])


def test_moment_recursion_values_match_long_path_means():
    # Products the moment recursion of noise.expectation evaluates and the
    # old rule table did not: the first three are its closed-world values,
    # the next two the old toy@5 expected_ssm tail (Z[-1]{ phi*ZZ } has the
    # child's mean, E[Z[mu]{ c }] = E[c]/|mu|), and the last two the
    # quadratic-noise drift.  The s.e. of a time mean over total time T is
    # about sqrt(2*tau*Var/T); for Z[-1]{ phi }^4 (Var 6, 2*tau*Var = 21/4)
    # a 3-s.e. band of +-0.06, narrower than the gap between 1/4 and 1/3,
    # needs T >= 13 000, so 8 paths of 2000.  Batches of 100 time units, many
    # correlation times, give 160 nearly independent batch means.  dt = 5e-3
    # keeps the midpoint rule's low bias of phi*Z[mu]{ phi } (about
    # |mu|*dt/4) under a quarter s.e.
    ZZ = z_atom(F(-1), (ZM,))
    cases = [product(ZM, z_atom(F(-2), (PHI,))), product(ZM, ZZ), (ZM,) * 4,
             (z_atom(F(-1), product(ZM, ZZ)),), product(PHI, ZZ),
             product(PHI, ZM), product(PHI, z_atom(F(-1, 3), (PHI,)))]
    T_, batch = 2000.0, 100.0
    batches = {expr: [] for expr in cases}
    for i in range(8):
        p = NoisePath.generate(T_, 5e-3, 1, seed=2000 + i, spin=40.0)
        smp = PathSampler(p)
        nb = int(T_ / batch)
        per = p.n_main // nb
        for expr in cases:
            ks, rest = noise.split_bare(expr)
            smp.expr(rest).main_values(p)       # refuses a window too short
            if ks:
                I = integrate_expression(p, [(1.0, expr)], smp)[p.main_slice()]
                batches[expr] += list((I[per::per] - I[:-per:per]) / batch)
            else:
                v = smp.expr(expr).main_values(p)[:-1]
                batches[expr] += list(v.reshape(nb, per).mean(axis=1))
    want = [F(1, 3), F(1, 4), F(3, 4), F(1, 4), F(0), F(1, 2), F(1, 2)]
    assert noise.expectation((z_atom(F(-1), product(PHI, ZZ)),)) == 0
    for expr, exact in zip(cases, want):
        assert noise.expectation(expr) == exact, expr
        m = np.mean(batches[expr])
        se = np.std(batches[expr], ddof=1) / math.sqrt(len(batches[expr]))
        assert abs(m - float(exact)) < 3 * se, (expr, m, se)
