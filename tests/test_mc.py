"""Compiled SDE models and the Heun ensemble integrator."""

import hashlib
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bundled_text, make_system
from snf import mc, noise
from snf.engine import construct
from snf.mc import (CompileError, FilterBank, compile_full_system,
                    compile_observables, compile_slow_model, heun_path,
                    heun_step, run_ensemble, sampleable_part)
from snf.render import parse_series_for
from snf.sysfile import load_system, system_as_written
from snf.systems import ALLOW

F = Fraction


def test_reproducible_from_master_seed(linear3):
    spec = linear3.spec
    sde = compile_full_system(spec, {"eps": 0.1})
    a = run_ensemble(sde, [0.0, 0.0], 2.0, 1e-2, 64, 9, [1.0, 2.0])
    b = run_ensemble(sde, [0.0, 0.0], 2.0, 1e-2, 64, 9, [1.0, 2.0])
    assert np.array_equal(a.samples, b.samples)
    c = run_ensemble(sde, [0.0, 0.0], 2.0, 1e-2, 64, 10, [1.0, 2.0])
    assert not np.array_equal(a.samples, c.samples)


def test_chunking_does_not_change_replicates():
    spec = make_system("linear.snf")
    nf = construct(spec, ALLOW)
    sde = compile_full_system(spec, {"eps": 0.1})
    a = run_ensemble(sde, [0.0, 0.0], 1.0, 1e-2, 64, 3, [1.0], chunk=64)
    b = run_ensemble(sde, [0.0, 0.0], 1.0, 1e-2, 64, 3, [1.0], chunk=16)
    # chunking respawns streams, so only the statistics agree
    assert abs(a.mean()[0, 1] - b.mean()[0, 1]) < 5 * (
        a.stderr_mean()[0, 1] + b.stderr_mean()[0, 1])


def test_ou_variance_heun():
    # dy = -y dt + dW: stationary variance 1/2
    spec = make_system("linear.snf")
    sde = compile_full_system(spec, {"eps": 0.0})
    res = run_ensemble(sde, [0.0, 0.0], 8.0, 1e-3, 800, 123, [6.0, 8.0])
    v = res.var()[:, 1]
    assert abs(v.mean() - 0.5) < 0.05


def test_heun_strong_convergence_trend():
    # against the exactly integrable linear SDE dx = eps*y dt, dy = -y + dW:
    # halving dt must reduce the strong error, three refinements
    spec = make_system("linear.snf")
    rng = np.random.default_rng(7)
    n_fine = 4096
    dt_fine = 1.0 / 1024
    dw = rng.standard_normal(n_fine) * math.sqrt(dt_fine)
    # exact solution on the fine grid
    t = np.arange(n_fine + 1) * dt_fine
    y_exact = np.zeros(n_fine + 1)
    for i in range(n_fine):
        y_exact[i + 1] = y_exact[i] * math.exp(-dt_fine) + math.exp(-dt_fine / 2) * dw[i]
    errs = []
    for factor in (16, 8, 4):
        dt = dt_fine * factor
        inc = dw.reshape(-1, factor).sum(axis=1)
        y = 0.0
        ys = [0.0]
        for i in range(len(inc)):
            pred = y - y * dt + inc[i]
            y = y + 0.5 * dt * (-y - pred) + inc[i]
            ys.append(y)
        errs.append(np.max(np.abs(np.array(ys) - y_exact[::factor])))
    assert errs[0] > errs[1] > errs[2]


def test_zero_noise_ensemble_has_zero_variance():
    spec = make_system("toy.snf", total=3)
    sde = compile_full_system(spec, {"sigma": 0.0})
    res = run_ensemble(sde, [0.3, 0.09], 2.0, 1e-3, 16, 5, [2.0])
    assert np.array_equal(res.samples, np.broadcast_to(
        res.samples[:1], res.samples.shape))
    assert np.max(res.var()) < 1e-30


def test_deterministic_toy_approaches_slow_manifold():
    # sigma = 0 from (0.3, 0.2): y -> x^2 and x follows the cubic decay
    spec = make_system("toy.snf", total=3)
    sde = compile_full_system(spec, {"sigma": 0.0})
    res = run_ensemble(sde, [0.3, 0.2], 10.0, 1e-3, 1, 5, [10.0])
    x = res.samples[0, 0, 0]
    y = res.samples[0, 0, 1]
    assert abs(y - x ** 2) < 1e-3


def test_reduced_model_with_conv_coefficient_runs(toy3):
    sde = compile_slow_model(toy3, {"sigma": 0.1})
    res = run_ensemble(sde, [0.3], 5.0, 1e-3, 32, 11, [5.0])
    assert res.samples.shape == (32, 1, 1)
    assert np.all(np.isfinite(res.samples))


def test_observables_via_chart(toy3):
    from snf.analysis import ssm_parametrisation
    chart = ssm_parametrisation(toy3)
    sde = compile_slow_model(toy3, {"sigma": 0.05})
    obs = compile_observables(chart.x_of_X, sde, {"sigma": 0.05},
                              toy3.spec.param_names, lambda m: tuple(m[0]))
    res = run_ensemble(sde, [0.3], 2.0, 1e-3, 16, 13, [2.0], observables=obs)
    assert np.all(np.isfinite(res.samples))
    # the chart fluctuates around X by O(sigma)
    assert np.std(res.samples) < 0.1


# sha256 of repr(RatesPlan) of each bundled system's reduced model and its
# chart observables, built as `snf compare` builds them.  compile_series adds
# terms in series term order, so a seeded ensemble depends on that order;
# float(Fraction) is exact, so these digests do not depend on the machine.
PLAN_DIGESTS = [
    ("toy.snf", {"sigma": 0.05},
     "c2f8107f25b39b3e8d75738c0ebc0c4d83f7543616cca1dd038904cfbc9e9d30",
     "662f4ee5bce12e6327eafaf034689e33d50f1c7eb6e8a16e8cfd1c8afa4c4469"),
    ("papavasiliou.snf", {"eps": 0.01, "sigma": 1.0},
     "def4b4883ae4a20b2bd71db088e84a16ac4c007f636e77343b604cbb1b29d8e0",
     "53392df5d5015b8f62f96a9c6a1eb0252a0955448f270596c49d41efda6cd9ee"),
]


# the full model as the file writes it: the loader's term order feeds its
# plan and so the seeded statistics of the full model
FULL_PLAN_DIGESTS = [
    ("toy.snf", {"sigma": 0.05},
     "bc2c81fbd7da74d1b94e9798e7e1e5e1fe49550a68c351e22eb6ecdc560c3d31"),
    ("papavasiliou.snf", {"eps": 0.01, "sigma": 1.0},
     "15bca4fda849a23c8ed97230a3c0b5a86d734e20092bdb485a488e578015d9ee"),
    ("linear.snf", {"eps": 0.1},
     "6574e21e655b13b045c094dbafa985b9e97a7ec5bef58ccb8e5ff7eb09f660ae"),
]


@pytest.mark.parametrize("name,params,digest", FULL_PLAN_DIGESTS)
def test_full_model_plan_matches_golden_digest(name, params, digest):
    _spec, sf = load_system(bundled_text(name), label=name)
    plan = compile_full_system(system_as_written(sf), params).plan
    assert hashlib.sha256(repr(plan).encode()).hexdigest() == digest


@pytest.mark.parametrize("name,params,reduced_digest,chart_digest", PLAN_DIGESTS)
def test_compiled_plans_match_golden_digest(name, params, reduced_digest, chart_digest):
    from snf.analysis import ssm_parametrisation
    spec = make_system(name)
    nf = construct(spec, ALLOW)
    reduced = compile_slow_model(nf, params)
    chart = ssm_parametrisation(nf)
    obs = compile_observables([sampleable_part(s)[0] for s in chart.x_of_X], reduced,
                              params, spec.param_names, lambda m: tuple(m[0]))
    digest = lambda plan: hashlib.sha256(repr(plan).encode()).hexdigest()
    assert digest(reduced.plan) == reduced_digest
    assert digest(obs.plan) == chart_digest


def test_anticipatory_model_rejected(toy3):
    # fast evolution of the anticipating construction cannot be pre-sampled
    spec = toy3.spec
    bad = parse_series_for("x*Z[+1]{ phi[0] }", spec)
    with pytest.raises(CompileError):
        compile_slow_model(replace(toy3, F=[bad]), {"sigma": 0.1})


def test_filter_bank_names_the_anticipating_product():
    # refused at compile time, naming the whole product, not its inner rate
    inner = noise.z_atom(F(1), (noise.phi_atom(0),))
    with pytest.raises(CompileError, match=r"forward simulation: "
                       r"Z\[-1\]\{ Z\[\+1\]\{ phi\[0\] \} \}$"):
        FilterBank().slot_for(noise.z_atom(F(-1), (inner,)))


def test_filter_bank_names_a_product_without_pointwise_values(toy3):
    # the Stratonovich integral of Z against dW: a filter of bare noise
    # times a slot, which no filter slot samples yet
    bad = parse_series_for("x*Z[-1]{ phi[0]*Z[-1]{ phi[0] } }", toy3.spec)
    with pytest.raises(CompileError, match=r"^no pointwise values: "
                       r"Z\[-1\]\{ phi\[0\]\*Z\[-1\]\{ phi\[0\] \} \}$"):
        compile_slow_model(replace(toy3, F=[bad]), {"sigma": 0.1})


def test_slow_model_must_not_depend_on_fast(toy3_noanticipate):
    with pytest.raises(CompileError):
        compile_slow_model(toy3_noanticipate, {"sigma": 0.1})


def test_sampleable_part_splits_filtered_bare(toy5):
    from snf.analysis import ssm_parametrisation
    chart = ssm_parametrisation(toy5)
    good, dropped = sampleable_part(chart.x_of_X[0])
    assert dropped, "grade-5 chart should contain filtered bare products"
    assert not good.is_zero()


def test_coupled_path_full_vs_reduced(toy5):
    """Full system and reduced model driven by the same Brownian path agree
    pathwise through the manifold chart, within the truncation band."""
    import numpy as np
    from snf.analysis import revert, ssm_parametrisation
    from snf.mc import sampleable_part
    from snf.paths import NoisePath, PathSampler, evaluate_series

    sigma = 0.05
    params = {"sigma": sigma}
    spec = toy5.spec
    chart_full = ssm_parametrisation(toy5)
    chart_x, _dropped = sampleable_part(chart_full.x_of_X[0])
    rv = revert(toy5)
    rv_x, _ = sampleable_part(rv.X_of_xy[0])
    dt, T = 1e-3, 20.0
    worst = 0.0
    for seed in range(4):
        p = NoisePath.generate(T, dt, 1, seed=7000 + seed, spin=30.0, trim=30.0)
        smp = PathSampler(p)
        lo, hi = p.main_lo, p.main_hi
        dw = p.increments[0]
        # full system, Heun
        x = np.empty(p.n_points)
        y = np.empty(p.n_points)
        x[lo], y[lo] = 0.3, 0.09
        for k in range(lo, hi):
            xk, yk = x[k], y[k]
            fx, fy = -xk * yk, -yk + xk ** 2 - 2 * yk ** 2
            xp = xk + fx * dt
            yp = yk + fy * dt + sigma * dw[k]
            x[k + 1] = xk + 0.5 * dt * (fx + (-xp * yp))
            y[k + 1] = yk + 0.5 * dt * (fy + (-yp + xp ** 2 - 2 * yp ** 2)) \
                + sigma * dw[k]
        # reduced model on the same path: dX = -X^3 - sigma X o dW
        #   + quadratic coefficient terms, coefficients sampled from the path
        zm = smp.expr((noise.z_atom(F(-1), (noise.phi_atom(0),)),)).values
        zmm = smp.expr((noise.z_atom(
            F(-1), (noise.z_atom(F(-1), (noise.phi_atom(0),)),)),)).values
        X = np.empty(p.n_points)
        X0_series = evaluate_series(smp, rv_x, params, [x[lo]], [y[lo]])
        X[lo] = X0_series[lo]
        s2 = sigma ** 2
        for k in range(lo, hi):
            Xk = X[k]

            def drift(v, i):
                return -v ** 3

            def diffu(v, i):
                return (-sigma * v + 2 * s2 * v * zm[i]
                        - 4 * s2 * v ** 3 * zmm[i])

            pred = Xk + drift(Xk, k) * dt + diffu(Xk, k) * dw[k]
            X[k + 1] = Xk + 0.5 * dt * (drift(Xk, k) + drift(pred, k + 1)) \
                + 0.5 * (diffu(Xk, k) + diffu(pred, k + 1)) * dw[k]
        x_red = evaluate_series(smp, chart_x, params, [X], [])
        # skip the fast transient: the full state is off the fluctuating
        # manifold at t=0 by the sampled noise displacement
        window = slice(lo + int(3.0 / dt), hi)
        worst = max(worst, float(np.max(np.abs(x[window] - x_red[window]))))
    # truncation band: the certified residual is O(grade 6, sigma^3); over
    # T=20 the accumulated defect stays a couple orders under sigma
    assert worst < 5e-3, worst


def test_linear_chain_noise_coefficient_against_exact_variance():
    """Arbitrates the +2 eps^2 noise coefficient of the two-scale slow model.

    The linearised system xdot = -eps*y, ydot = -y + x + sigma*phi is stable
    with stationary Var[x] = eps*sigma^2/2 exactly (Lyapunov equation), and
    its derivation carries the same disputed coefficient.  The consistent
    model+chart pair must hit the exact value; flipping the eps^2 noise term
    to -2 (a published variant) misses it by tens of standard errors.
    """
    from fractions import Fraction as F
    from snf.analysis import ssm_parametrisation
    from snf.mc import compile_observables
    from snf.render import parse_series_for
    from snf.series import Dims, Series, Trunc
    from snf.systems import SystemSpec, ALLOW

    dims = Dims(1, 1, ("eps", "sigma"), 1)
    tr = Trunc(4, (None, None), False)
    Y = Series.fast_var(dims, tr, 0)
    X = Series.slow_var(dims, tr, 0)
    e = Series.param(dims, tr, "eps")
    s = Series.param(dims, tr, "sigma")
    phi = Series.noise_sum(dims, tr, noise.nsum_bare(0))
    spec = SystemSpec(("x",), ("y",), ("eps", "sigma"), ((F(0),),), (F(-1),),
                      [-(e * Y)], [X + s * phi], 1, tr, "pk-linear")
    nf = construct(spec, ALLOW)
    # deterministic coefficients are the exact eigenvalue series of the
    # two-by-two linear block: (1 - sqrt(1 - 4 eps))/2 = eps + eps^2 + 2eps^3
    want_drift = parse_series_for("-eps*x - eps^2*x - 2*eps^3*x", spec)
    det = nf.F[0].build_like({k: c for k, c in nf.F[0].terms.items()
                              if k[1] == noise.ONE})
    assert det == want_drift

    eps, sigma = 0.05, 1.0
    params = {"eps": eps, "sigma": sigma}
    chart = ssm_parametrisation(nf)
    times = [80.0, 100.0, 120.0]

    def stationary_var(F_series, seed):
        sde = compile_slow_model(replace(nf, F=[F_series]), params)
        obs = compile_observables(chart.x_of_X, sde, params, spec.param_names,
                                  lambda m: tuple(m[0]))
        r = run_ensemble(sde, [0.0], 120.0, 2e-3, 512, seed, times,
                         observables=obs)
        return (r.var()[:, 0].mean(),
                r.stderr_var()[:, 0].mean() / math.sqrt(len(times)))

    exact = eps * sigma ** 2 / 2
    v_c, se_c = stationary_var(nf.F[0], 41)
    flipped = parse_series_for("""
        -eps*x - eps^2*x - 2*eps^3*x
        - eps*sigma*phi[0] + 2*eps^2*sigma*phi[0] - 6*eps^3*sigma*phi[0]""", spec)
    v_f, se_f = stationary_var(flipped, 41)
    assert abs(v_c - exact) < max(3 * se_c, 10 * eps ** 3)
    assert abs(v_f - exact) > 10 * se_f


def test_summary_table_format(linear3):
    sde = compile_full_system(linear3.spec, {"eps": 0.1})
    res = run_ensemble(sde, [0.0, 0.0], 1.0, 1e-2, 8, 2, [0.5, 1.0])
    table = res.summary_table()
    lines = table.strip().split("\n")
    assert lines[0].startswith("time\t")
    assert len(lines) == 3
    assert len(lines[1].split("\t")) == 1 + 2 * 3


def _gbm_error(dw, dt, a, b):
    """Worst error of Heun steps of dx = a x dt + b x o dW, x0 = 1, against
    the exact Stratonovich solution exp(a t + b W_t); one row of ``dw`` per
    step, one column per path."""
    x = np.ones(dw.shape[1])
    W = np.zeros(dw.shape[1])
    worst = np.zeros(dw.shape[1])
    for i, d in enumerate(dw):
        x = heun_step(x, lambda y, _end: a * y * dt + b * y * d)
        W = W + d
        worst = np.maximum(worst, np.abs(x - np.exp(a * (i + 1) * dt + b * W)))
    return worst


def test_heun_step_converges_to_stratonovich_gbm():
    # Strong order 1: a quarter of the step cuts the error about 4x.  The
    # coarse increments are sums of the fine ones, so both runs follow the
    # same Brownian paths.  One path's ratio is itself random (below 2.5
    # for 12-16 % of seeds), so the root mean square over 256 independent
    # paths, stepped as one array, is compared.
    a, b, n = 0.3, 0.8, 256
    dt = 1.0 / n
    rng = np.random.default_rng(2024)
    fine = rng.standard_normal((n, 256)) * math.sqrt(dt)
    coarse = fine.reshape(n // 4, 4, -1).sum(axis=1)
    rms = [math.sqrt(np.mean(_gbm_error(dw, h, a, b) ** 2))
           for dw, h in ((coarse, 4 * dt), (fine, dt))]
    assert rms[0] >= 2.5 * rms[1], rms


def test_heun_step_second_order_on_linear_ode():
    # x' = lam x on Python complex scalars, exact exp(lam T)
    lam, T = -1.0 + 2.0j, 1.0
    errs = []
    for n in (20, 40, 80):
        dt = T / n
        x = 1.0 + 0.0j
        for _ in range(n):
            x = heun_step(x, lambda y, _end: lam * y * dt)
        errs.append(abs(x - np.exp(lam * T)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.6 < coarse / fine < 4.4, errs


def test_heun_path_is_heun_steps_with_their_index():
    # a time-dependent increment, so that each step must see its own i, on a
    # scalar and on a (2, 5) array state; the steps are written out with the
    # Heun formula too, so that a change to the one step shows even though
    # heun_step runs through heun_path
    dt = 0.1

    def increment(y, i, end):
        return (math.cos((i + end) * dt) * y + 1j) * dt

    for x0 in (1.0 + 0.5j, np.arange(10.0).reshape(2, 5) / 7 - 0.4):
        path = heun_path(x0, 7, increment)
        x = by_step = x0
        want, steps = [x], [by_step]
        for i in range(7):
            d0 = increment(x, i, 0)
            d1 = increment(x + d0, i, 1)
            x = x + (d0 + d1) / 2
            want.append(x)
            by_step = heun_step(by_step, lambda y, end: increment(y, i, end))
            steps.append(by_step)
        assert len(path) == 8
        for got, w, st in zip(path, want, steps):
            assert np.shape(got) == np.shape(x0)
            assert np.asarray(got).tobytes() == np.asarray(w).tobytes()
            assert np.asarray(st).tobytes() == np.asarray(w).tobytes()
    assert heun_path(2.0, 0, None) == [2.0]


def test_heun_path_refuses_a_negative_step_count():
    with pytest.raises(ValueError, match=r"^n = -3: a path needs a non-negative"):
        heun_path(1.0, -3, None)


# -- the block filter step against the per-step recursion ------------------

def _per_step(bank, z, dw):
    """One step of every filter slot, slot by slot (the reference for the
    block step); ``dw`` has shape (n_noise, R)."""
    out = np.empty_like(z)
    for i, s in enumerate(bank.slots):
        if s.driver_kind == "w":
            out[i] = bank._a[i] * z[i] + bank._c[i] * dw[s.driver_k]
        else:
            u_old = np.prod(z[list(s.driver_slots)], axis=0)
            u_new = np.prod(out[list(s.driver_slots)], axis=0)
            out[i] = bank._a[i] * z[i] + (bank._dt / 2.0) * (
                bank._a[i] * u_old + u_new)
    return out


def _per_step_ensemble(sde, x0, T, dt, n_rep, seed, sample_times,
                       observables=None, chunk=512, warm=None):
    """``run_ensemble`` drawing increments and stepping the filters one
    step at a time (the reference for the block version).  A chunk's first
    draw, when its bank has linear slots, is their stationary start; the
    other slots start at their stationary mean."""
    sample_times = np.asarray(sorted(sample_times), dtype=float)
    n_steps = int(round(T / dt))
    sample_idx = [int(round(t / dt)) for t in sample_times]
    warm_time = sde.bank.max_spin() if warm is None else warm
    warm_steps = int(math.ceil(warm_time / dt))
    sde.bank.prepare(dt)
    n_out = observables.dim if observables else sde.dim
    out = np.empty((n_rep, len(sample_times), n_out))
    master = np.random.SeedSequence(seed)
    chunks = [(lo, min(lo + chunk, n_rep)) for lo in range(0, n_rep, chunk)]
    for child, (lo, hi) in zip(master.spawn(len(chunks)), chunks):
        rng = np.random.default_rng(child)
        R = hi - lo
        state = np.tile(np.asarray(x0, dtype=float)[:, None], (1, R))
        z = sde.bank.make_state(R)
        lin = sde.bank._lin
        if lin:
            z[lin] = sde.bank._start @ rng.standard_normal((len(lin), R))
        for atom, i in sde.bank._index.items():
            if i not in lin:
                z[i] = float(noise.expectation((atom,)))
        sqdt = math.sqrt(dt)
        for _ in range(warm_steps):
            z = _per_step(sde.bank, z, rng.standard_normal((sde.n_noise, R)) * sqdt)
        pos = 0
        for t_i in range(n_steps + 1):
            while pos < len(sample_idx) and sample_idx[pos] == t_i:
                out[lo:hi, pos, :] = (observables.rates(state, z)[0]
                                      if observables else state).T
                pos += 1
            if t_i == n_steps:
                break
            dw = rng.standard_normal((sde.n_noise, R)) * sqdt
            dw_amp = dw * sde.noise_amp[:, None]
            z_ends = (z, _per_step(sde.bank, z, dw))

            def increment(y, end):
                drift, diff = sde.rates(y, z_ends[end])
                return drift * dt + np.einsum("dkr,kr->dr", diff, dw_amp)

            state = heun_step(state, increment)
            z = z_ends[1]
    return out


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _chart_model(nf, params):
    """The reduced model with its chart as observables, as ``snf compare``
    builds them."""
    from snf.analysis import ssm_parametrisation
    sde = compile_slow_model(nf, params)
    chart = ssm_parametrisation(nf)
    obs = compile_observables([sampleable_part(s)[0] for s in chart.x_of_X],
                              sde, params, nf.spec.param_names,
                              lambda m: tuple(m[0]))
    return sde, obs


@pytest.fixture(scope="module")
def toy_chart_model(toy5):
    """The toy chart model: five filters, Brownian and product slots."""
    return _chart_model(toy5, {"sigma": 0.05})


def test_block_filter_step_is_the_per_step_recursion(toy_chart_model):
    bank = toy_chart_model[0].bank
    kinds = sorted((s.driver_kind, len(s.driver_slots)) for s in bank.slots)
    assert kinds == [("prod", 1), ("prod", 1), ("prod", 2), ("prod", 2), ("w", 0)]
    dt, R = 1e-2, 3
    bank.prepare(dt)
    warm_steps = int(math.ceil(bank.max_spin() / dt))
    rng = np.random.default_rng(17)
    z_ref = z = bank.make_state(R)
    for steps in (1, 7, warm_steps + 5, 7, 1):
        dw = rng.standard_normal((steps, 1, R)) * math.sqrt(dt)
        block = bank.step(z, dw)
        assert block.shape == (steps, bank.n, R)
        for t in range(steps):
            z_ref = _per_step(bank, z_ref, dw[t])
            assert _same_bits(block[t], z_ref), (steps, t)
        z = block[-1]
    assert np.all(z != 0)


def test_path_sampler_builds_the_toy_chart_bank(toy_chart_model):
    from test_filter import path_slots
    bank = toy_chart_model[0].bank
    atoms = list(bank._index)       # in slot order
    assert len(atoms) == 5
    assert path_slots(atoms) == bank.slots


def test_filter_step_groups_the_toy_chart_into_three_runs(toy_chart_model):
    bank = toy_chart_model[0].bank
    bank.prepare(1e-2)
    assert bank._groups == [(0, 1), (1, 3), (3, 5)]


@pytest.mark.parametrize("R", [1, 3, 600])
def test_block_filter_step_of_mixed_slots_is_the_per_step_recursion(R):
    bank = _mixed_bank()
    assert [(s.driver_kind, s.driver_slots) for s in bank.slots] == [
        ("w", ()), ("prod", (0,)), ("w", ()), ("prod", (1, 2)), ("w", ())]
    dt = 1e-2
    bank.prepare(dt)
    assert bank._groups == [(0, 1), (1, 3), (3, 5)]
    rng = np.random.default_rng(41)
    z_ref = z = bank.make_state(R)
    for steps in (1, 7, 130, 7, 1):
        dw = rng.standard_normal((steps, 2, R)) * math.sqrt(dt)
        block = bank.step(z, dw)
        assert block.shape == (steps, bank.n, R)
        for t in range(steps):
            z_ref = _per_step(bank, z_ref, dw[t])
            assert _same_bits(block[t], z_ref), (steps, t)
        z = block[-1]
    assert np.all(z != 0)


def test_filter_bank_stepped_at_changing_widths_is_the_per_step_recursion():
    # One bank at R = 3, 600, then 3 again, from random states and with a
    # longer block after a shorter one: a workspace made for another width
    # or a shorter block is never read.
    bank = _mixed_bank()
    dt = 1e-2
    bank.prepare(dt)
    rng = np.random.default_rng(43)
    for R in (3, 600, 3):
        z_ref = z = rng.standard_normal((bank.n, R))
        for steps in (7, 1, 12):
            dw = rng.standard_normal((steps, 2, R)) * math.sqrt(dt)
            block = bank.step(z, dw)
            for t in range(steps):
                z_ref = _per_step(bank, z_ref, dw[t])
                assert _same_bits(block[t], z_ref), (R, steps, t)
            z = block[-1]


def test_filter_step_allocates_no_block_after_the_first(toy_chart_model):
    # Each block writes the bank's workspace: stepping the benchmark's
    # widest ensemble allocates less than one block's output per call.
    import tracemalloc
    bank = toy_chart_model[0].bank
    dt, R = 2e-3, 4096
    bank.prepare(dt)
    steps = mc._BLOCK * 512 // R
    dw = np.random.default_rng(59).standard_normal((steps, 1, R)) * math.sqrt(dt)
    z = bank.step(bank.make_state(R), dw)[-1]
    tracemalloc.start()
    try:
        for _ in range(50):
            z = bank.step(z, dw)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (steps + 1) * bank.n * R * 8


# -- stationary start of the linear slots ----------------------------------

def _linear_chain(bank, dt):
    """Phi and G of the linear slots, built from the one-step update of
    ``_per_step``, one unit increment of each state entry and noise at a
    time."""
    lin, n_noise = bank._lin, 1 + max(s.driver_k for s in bank.slots)
    cols = []
    for j in range(len(lin) + n_noise):
        z, dw = np.zeros((bank.n, 1)), np.zeros((n_noise, 1))
        if j < len(lin):
            z[lin[j]] = 1.0
        else:
            dw[j - len(lin)] = 1.0
        cols.append(_per_step(bank, z, dw)[lin, 0])
    m = np.array(cols).T
    return m[:, :len(lin)], m[:, len(lin):]


def _mixed_bank():
    # A Brownian slot registered after a product slot joins its run; a
    # product of both starts the next run.  Rates -1, -2 and -3, two noises.
    z1 = noise.z_atom(F(-1), (noise.phi_atom(0),))
    z2 = noise.z_atom(F(-2), (z1,))
    z3 = noise.z_atom(F(-3), (noise.phi_atom(1),))
    bank = FilterBank()
    for atom in (z1, z2, z3, noise.z_atom(F(-1), (z2, z3)),
                 noise.z_atom(F(-2), (noise.phi_atom(0),))):
        bank.slot_for(atom)
    return bank


@pytest.mark.parametrize("case", ["toy chart", "mixed"])
@pytest.mark.parametrize("dt", [2e-3, 1e-2, 0.3])
def test_stationary_start_solves_the_discrete_lyapunov_equation(toy_chart_model,
                                                                case, dt):
    bank = toy_chart_model[0].bank if case == "toy chart" else _mixed_bank()
    bank.prepare(dt)
    phi, g = _linear_chain(bank, dt)
    p = bank._start @ bank._start.T
    assert np.abs(p - phi @ p @ phi.T - dt * g @ g.T).max() < 1e-12


def _hand_built_start(bank, dt):
    """The stationary start from Phi and G built slot by slot: a Brownian
    slot puts a on the diagonal of Phi and c in G; a slot driven by one
    linear slot d puts a e_i + (dt/2)(a e_d + Phi_d) in Phi and (dt/2) G_d
    in G."""
    lin = [i for i, s in enumerate(bank.slots) if not s.spin_time]
    row = {i: r for r, i in enumerate(lin)}
    n = len(lin)
    phi = np.zeros((n, n))
    g = np.zeros((n, 1 + max((s.driver_k for s in bank.slots), default=-1)))
    for r, i in enumerate(lin):
        s = bank.slots[i]
        phi[r, r] = bank._a[i]
        if s.driver_kind == "w":
            g[r, s.driver_k] = bank._c[i]
        else:
            d = row[s.driver_slots[0]]
            phi[r] += (dt / 2.0) * phi[d]
            phi[r, d] += (dt / 2.0) * bank._a[i]
            g[r] = (dt / 2.0) * g[d]
    p = np.linalg.solve(np.eye(n * n) - np.kron(phi, phi),
                        (dt * g @ g.T).ravel()).reshape(n, n)
    w, v = np.linalg.eigh((p + p.T) / 2.0)
    return v * np.sqrt(np.clip(w, 0.0, None))


@pytest.mark.parametrize("name,order,params", [
    ("toy.snf", 5, {"sigma": 0.05}),
    ("papavasiliou.snf", 3, {"eps": 0.01, "sigma": 1.0}),
    ("linear.snf", 3, {"eps": 0.1})], ids=["toy", "papavasiliou", "linear"])
def test_stationary_start_is_the_hand_built_chains(name, order, params):
    # the bundled chart banks: the start read off one step is bitwise the
    # one from Phi and G built slot by slot
    bank = _chart_model(construct(make_system(name, total=order), ALLOW), params)[0].bank
    for dt in (1e-3, 2e-3):
        bank.prepare(dt)
        want = _hand_built_start(bank, dt)
        assert _same_bits(bank._start, want), dt


def test_stationary_start_of_the_toy_chart_is_its_long_run_law(toy_chart_model):
    bank = toy_chart_model[0].bank
    bank.prepare(1e-2)
    assert bank._lin == [0, 1]
    p = bank._start @ bank._start.T
    # Z[-1]{phi} and Z[-1]{Z[-1]{phi}}: variances 1/2, 1/4, covariance 1/4
    assert np.abs(p - [[0.5, 0.25], [0.25, 0.25]]).max() < 1e-2
    # from zero, 30 time units of the filters' own recursion forget the start
    dt, R, steps = 1e-2, 2000, 3000
    rng = np.random.default_rng(53)
    z = bank.make_state(R)
    for _ in range(0, steps, 100):
        z = bank.step(z, rng.standard_normal((100, 1, R)) * math.sqrt(dt))[-1]
    s = z[[0, 1]]
    for i in range(2):
        for j in range(2):
            prod = s[i] * s[j]
            assert abs(prod.mean() - p[i, j]) < 3 * prod.std() / math.sqrt(R), (i, j)


def test_stationary_start_of_a_singular_chain_is_finite():
    # Z[-2]{Z[-1]{phi0}} is Z[-1]{phi0} - Z[-2]{phi0}: the three phi0 slots
    # span two dimensions, the phi1 slot one more
    bank = _mixed_bank()
    bank.prepare(1e-2)
    assert bank._lin == [0, 1, 2, 4]
    z = bank.make_state(5)
    bank.start(z, np.random.default_rng(3))
    assert np.all(np.isfinite(z)) and np.all(z[3] == 0)
    p = bank._start @ bank._start.T
    w = np.linalg.eigvalsh(p[np.ix_([0, 1, 3], [0, 1, 3])])
    assert w[0] < 1e-12 * w[-1] < w[1]
    assert np.linalg.matrix_rank(p, tol=1e-12) == 3


def test_only_nonlinear_slots_spin_up(toy_chart_model, pk3):
    # A slot is linear when Brownian, or driven by one linear slot.  The
    # others start at their mean and spin up for 10 / (|mu| + min(|mu|, r))
    # time units after their slowest-spinning driver, r the smallest |rate|
    # of the slots feeding them at any depth.
    assert [s.spin_time for s in toy_chart_model[0].bank.slots] == [0, 0, 5, 5, 10]
    assert toy_chart_model[0].bank.max_spin() == 10
    pk = _chart_model(pk3, {"eps": 0.01, "sigma": 1.0})[0]
    assert pk.bank.n == 2 and pk.bank.max_spin() == 0
    bank = _mixed_bank()
    two_slot_product = list(bank._index)[3]
    assert bank.slots[bank.slot_for(noise.z_atom(F(-1), (two_slot_product,)))].spin_time == 10
    assert [s.spin_time for s in bank.slots] == [0, 0, 0, 5, 0, 10]


def test_a_slow_feeder_lengthens_the_spin_up():
    # Z[-2]{Z[-1/2]{phi}^2}: covariances with the start decay at 1/2, so
    # 10 / (2 + 1/2); its filter Z[-1]{.} adds 10 / (1 + 1/2)
    inner = noise.z_atom(F(-2), (noise.z_atom(F(-1, 2), (noise.phi_atom(0),)),) * 2)
    bank = FilterBank()
    assert bank.slots[bank.slot_for(inner)].spin_time == 4
    outer = bank.slot_for(noise.z_atom(F(-1), (inner,)))
    assert bank.slots[outer].spin_time == pytest.approx(4 + 10 / 1.5, rel=1e-15)


def test_start_sets_the_product_slots_to_their_means_and_draws_only_the_linear_ones(
        toy_chart_model):
    bank = toy_chart_model[0].bank
    bank.prepare(1e-2)
    R = 7
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    z = bank.make_state(R)
    bank.start(z, rng)
    want = bank._start @ twin.standard_normal((len(bank._lin), R))
    assert _same_bits(z[bank._lin], want)
    assert _same_bits(rng.standard_normal(5), twin.standard_normal(5))
    # E Z[-1]{z0^2} = 1/2, E Z[-1]{z0*z1} = 1/4, E Z[-1]{Z[-1]{z0^2}} = 1/2
    assert np.array_equal(z[2:], np.repeat([[0.5], [0.25], [0.5]], R, axis=1))


def test_a_product_slot_without_a_stationary_mean_is_refused(monkeypatch):
    z1 = noise.z_atom(F(-1), (noise.phi_atom(0),))
    bank = FilterBank()
    monkeypatch.setattr(noise, "expectation", lambda expr: None)
    with pytest.raises(CompileError, match=re.escape(
            "no stationary mean to start the filter of Z[-2]{ Z[-1]{ phi[0] }^2 }")):
        bank.slot_for(noise.z_atom(F(-2), (z1, z1)))
    # the refused slot is not kept; its linear driver is
    assert list(bank._index) == [z1] and bank.n == 1


_FORWARD_RATES = st.sampled_from([F(-1), F(-2), F(-3), F(-1, 2)])


@st.composite
def _forward_atoms(draw, depth=3):
    """A forward, pointwise convolution nested at most ``depth`` deep: a
    filter of one bare noise, or of a product of one to three such atoms."""
    mu = draw(_FORWARD_RATES)
    if depth == 1 or draw(st.booleans()):
        return noise.z_atom(mu, (noise.phi_atom(draw(st.integers(0, 1))),))
    n = draw(st.integers(1, 3))
    return noise.z_atom(mu, noise.product(
        *[draw(_forward_atoms(depth=depth - 1)) for _ in range(n)]))


@settings(max_examples=200, deadline=None)
@given(st.lists(_forward_atoms(), min_size=1, max_size=3))
def test_every_spun_slot_of_a_sampleable_bank_starts_at_a_rational_mean(atoms):
    bank = FilterBank()
    for atom in atoms:
        bank.slot_for(atom)
    bank.prepare(0.1)
    z = bank.make_state(2)
    bank.start(z, np.random.default_rng(0))
    for atom, i in bank._index.items():
        if bank.slots[i].spin_time:
            mean = noise.expectation((atom,))
            assert type(mean) is Fraction
            assert np.all(z[i] == float(mean))


def _slot_moments(bank, dt, R, seed, warm, start=True):
    """Per replicate, after ``warm`` time units from the bank's start (or
    from zero): z2, z3, z4, z2^2, z4^2, z2*z0^2 and z4*z2 of the toy chart
    bank."""
    bank.prepare(dt)
    rng = np.random.default_rng(seed)
    z = bank.make_state(R)
    if start:
        bank.start(z, rng)
    steps = int(math.ceil(warm / dt))
    for b0 in range(0, steps, 100):
        dw = rng.standard_normal((min(100, steps - b0), 1, R)) * math.sqrt(dt)
        z = bank.step(z, dw)[-1].copy()
    z0, z2, z3, z4 = z[0], z[2], z[3], z[4]
    return np.array([z2, z3, z4, z2 * z2, z4 * z4, z2 * z0 * z0, z4 * z2])


def test_product_slots_started_at_their_means_reach_the_long_run_law(toy_chart_model):
    # After the default warm-up from the mean start, the product slots'
    # means and second moments are those of a 40-unit run from zero.  With
    # no warm-up the means agree already but the second moments do not:
    # every replicate still sits at the mean.
    bank = toy_chart_model[0].bank
    dt, R = 1e-2, 10000
    ref = _slot_moments(bank, dt, R, 7100, 40.0, start=False)

    def z_scores(warm):
        got = _slot_moments(bank, dt, R, 7101, warm)
        se = np.hypot(got.std(axis=1), ref.std(axis=1)) / math.sqrt(R)
        return (got.mean(axis=1) - ref.mean(axis=1)) / se

    assert bank.max_spin() == 10
    z = z_scores(bank.max_spin())
    assert np.all(np.abs(z) < 3), z
    z = z_scores(0.0)
    assert np.all(np.abs(z[:3]) < 3) and np.all(np.abs(z[3:]) > 3), z


def test_block_filter_step_of_an_empty_bank():
    bank = FilterBank()
    bank.prepare(1e-2)
    assert bank.step(bank.make_state(4), np.ones((5, 2, 4))).shape == (5, 0, 4)


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("model", ["reduced", "full"])
def test_run_ensemble_is_the_per_step_loop(toy_chart_model, toy5, model, R):
    # Warm-up and horizon are not whole blocks, the horizon spans several
    # blocks, and two chunks each draw their own stream.  The full model's
    # bank has no slots but its warm-up still consumes the stream.
    dt, warm, T = 1e-2, 0.75, 0.93
    assert int(math.ceil(warm / dt)) % mc._BLOCK and int(round(T / dt)) % mc._BLOCK
    times = [0.0, 0.05, 0.32, 0.33, 0.64, T]
    if model == "reduced":
        sde, obs = toy_chart_model
        x0 = [0.3]
    else:
        sde, obs = compile_full_system(toy5.spec, {"sigma": 0.05}), None
        x0 = [0.3, 0.09]
        assert sde.bank.n == 0
    got = run_ensemble(sde, x0, T, dt, 2 * R, 23, times, observables=obs,
                       chunk=R, warm=warm)
    want = _per_step_ensemble(sde, x0, T, dt, 2 * R, 23, times, observables=obs,
                              chunk=R, warm=warm)
    assert _same_bits(got.samples, want)
    assert np.all(np.isfinite(want)) and len(np.unique(want[:, -1, 0])) == 2 * R


def test_run_ensemble_default_warmup_is_the_per_step_loop(toy_chart_model):
    # the chart's nonlinear filters need their full 10 time units of warm-up
    sde, obs = toy_chart_model
    got = run_ensemble(sde, [0.3], 0.1, 1e-2, 2, 5, [0.1], observables=obs)
    want = _per_step_ensemble(sde, [0.3], 0.1, 1e-2, 2, 5, [0.1], observables=obs)
    assert _same_bits(got.samples, want)


@pytest.mark.parametrize("observe", [True, False])
def test_a_second_run_leaves_the_first_result_unchanged(toy_chart_model, observe):
    # a run's filter states live in the bank's workspace; the samples it
    # returns are its own
    sde, obs = toy_chart_model
    obs = obs if observe else None
    times = [0.0, 0.05, 0.1]
    first = run_ensemble(sde, [0.3], 0.1, 1e-2, 4, 5, times, observables=obs, warm=0.5)
    kept = first.samples.copy()
    again = run_ensemble(sde, [0.3], 0.1, 1e-2, 4, 6, times, observables=obs, warm=0.5)
    assert _same_bits(first.samples, kept)
    assert not np.array_equal(again.samples[:, -1], kept[:, -1])


@pytest.mark.parametrize("times", [[-0.5, 0.1], [0.05, 0.2]])
def test_run_ensemble_rejects_a_sample_time_off_the_horizon(linear3, times):
    sde = compile_full_system(linear3.spec, {"eps": 0.1})
    bad = next(t for t in times if not 0 <= t <= 0.1)
    with pytest.raises(ValueError, match=f"sample time {bad:g} outside"):
        run_ensemble(sde, [0.0, 0.0], 0.1, 1e-2, 4, 1, times)


# -- the rates plan against the per-term evaluator -------------------------

def _rates_reference(sde, state, z):
    """Every term from ``np.full`` of its coefficient, times each state
    power ``x**p`` and convolution row in turn, added into drift or
    diffusion in term order: the evaluator the compiled plan replaced."""
    R = state.shape[1]
    drift = np.zeros((sde.dim, R))
    diff = np.zeros((sde.dim, sde.n_noise, R))
    for d, terms in enumerate(sde.terms):
        for t in terms:
            val = np.full(R, t.coeff)
            for c, p in enumerate(t.pows):
                if p:
                    val = val * state[c] ** p
            for s in t.conv_slots:
                val = val * z[s]
            if t.noise_k < 0:
                drift[d] += val
            else:
                diff[d, t.noise_k] += val
    return drift, diff


def _check_rates(sde, n_slots, R=37, seed=0):
    rng = np.random.default_rng(seed)
    state = rng.standard_normal((sde.dim, R)) * 1.5
    z = rng.standard_normal((n_slots, R))
    # signed zeros and non-finite values take the same path as numbers
    state[:, :4] = [0.0, -0.0, np.inf, np.nan]
    with np.errstate(all="ignore"):
        got, want = sde.rates(state, z), _rates_reference(sde, state, z)
    assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])


def _two_fast_model(reduced):
    from test_engine_vector import two_fast_system
    params = {"s": 0.1}
    if reduced:
        return compile_slow_model(construct(two_fast_system(total=4), ALLOW), params)
    return compile_full_system(two_fast_system(), params)


@pytest.mark.parametrize("case", ["toy5 full", "toy5 reduced", "pk3 full",
                                  "pk3 reduced", "linear3 full", "linear3 reduced",
                                  "pk3 longtime", "two-fast full", "two-fast reduced"])
def test_rates_is_the_per_term_evaluator(request, toy_chart_model, case):
    name, model = case.split()
    if name == "two-fast":
        sde = _two_fast_model(model == "reduced")
    else:
        nf = request.getfixturevalue(name)
        params = {p: 0.3 for p in nf.spec.param_names}
        if model == "full":
            sde = compile_full_system(nf.spec, params)
        elif model == "reduced":
            sde = (toy_chart_model[0] if name == "toy5"
                   else compile_slow_model(nf, params))
        else:
            from snf.analysis import long_time_model
            sde = compile_slow_model(nf, params, long_time_model(nf))
            assert sde.n_noise == 2 and any(t.noise_k == 1 for t in sde.terms[0])
    _check_rates(sde, sde.bank.n)


def test_rates_of_the_chart_observables(toy_chart_model):
    _sde, obs = toy_chart_model
    assert any(t.conv_slots for t in obs.terms[0])
    _check_rates(obs, obs.bank.n)


@st.composite
def _term_lists(draw):
    dim = draw(st.integers(1, 3))
    n_noise = draw(st.integers(2, 3))
    # a few (powers, slots) shapes, so that terms repeat them
    shapes = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(0, 4)] * dim),
        st.lists(st.integers(0, 3), max_size=3).map(tuple)), min_size=1, max_size=4))
    term = st.tuples(st.sampled_from(shapes),
                     st.floats(-4, 4, allow_nan=False, allow_infinity=False),
                     st.integers(-1, n_noise - 1))
    rows = draw(st.lists(st.lists(term, max_size=8), min_size=dim, max_size=dim))
    return [[mc.CompiledTerm(c, pows, slots, k) for (pows, slots), c, k in row]
            for row in rows], n_noise


@settings(max_examples=200, deadline=None)
@given(_term_lists(), st.integers(0, 2 ** 16))
def test_rates_plan_is_the_per_term_evaluator_on_drawn_terms(drawn, seed):
    terms, n_noise = drawn
    sde = mc.CompiledSDE(tuple(f"v{d}" for d in range(len(terms))), n_noise,
                         terms, FilterBank(), np.ones(n_noise),
                         mc.plan_rates(terms, n_noise))
    _check_rates(sde, 4, R=6, seed=seed)


# -- several chunks stepped as one array -----------------------------------

@pytest.mark.parametrize("R", [3, 512])
@pytest.mark.parametrize("model", ["reduced", "full"])
def test_run_ensemble_uneven_chunks_are_the_per_step_loop(toy_chart_model, toy5,
                                                          model, R):
    # Three streams, the last one replicate wide.  At R = 512 the horizon
    # spans several blocks of the wide filter step, the last one short.
    dt, warm, T = 1e-2, 0.75, 0.93
    n_rep = 2 * R + 1
    assert R < 512 or int(round(T / dt)) % (mc._BLOCK * 512 // n_rep)
    times = [0.0, 0.05, 0.32, 0.33, 0.64, T]
    if model == "reduced":
        sde, obs = toy_chart_model
        x0 = [0.3]
    else:
        sde, obs = compile_full_system(toy5.spec, {"sigma": 0.05}), None
        x0 = [0.3, 0.09]
    got = run_ensemble(sde, x0, T, dt, n_rep, 31, times, observables=obs,
                       chunk=R, warm=warm)
    want = _per_step_ensemble(sde, x0, T, dt, n_rep, 31, times,
                              observables=obs, chunk=R, warm=warm)
    assert _same_bits(got.samples, want)
    assert np.all(np.isfinite(want)) and len(np.unique(want[:, -1, 0])) == n_rep


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_run_ensemble_in_blocks_of_three_steps_is_the_per_step_loop(toy_chart_model,
                                                                    toy5, model):
    # 5000 replicates step the filters three steps at a time, warm-up and
    # horizon alike, the last block of each one step long.
    dt, warm, T, n_rep = 1e-2, 0.76, 0.94, 5000
    assert mc._BLOCK * 512 // n_rep == 3
    assert int(math.ceil(warm / dt)) % 3 == 1 and int(round(T / dt)) % 3 == 1
    times = [0.0, 0.05, 0.5, T]
    if model == "reduced":
        sde, obs = toy_chart_model
        x0 = [0.3]
    else:
        sde, obs = compile_full_system(toy5.spec, {"sigma": 0.05}), None
        x0 = [0.3, 0.09]
    got = run_ensemble(sde, x0, T, dt, n_rep, 37, times, observables=obs,
                       chunk=2500, warm=warm)
    want = _per_step_ensemble(sde, x0, T, dt, n_rep, 37, times,
                              observables=obs, chunk=2500, warm=warm)
    assert _same_bits(got.samples, want)
    assert np.all(np.isfinite(want)) and len(np.unique(want[:, -1, 0])) == n_rep


def test_every_filter_step_holds_one_block_of_replicate_steps(toy_chart_model,
                                                              monkeypatch):
    # Warm-up and horizon share the block rule that bounds peak memory: no
    # FilterBank.step call gets more than _BLOCK*512 replicate-steps.
    sde, obs = toy_chart_model
    calls, step = [], FilterBank.step

    def spy(self, z, dw):
        calls.append(dw.shape)
        return step(self, z, dw)

    monkeypatch.setattr(FilterBank, "step", spy)
    dt, T, n_rep = 1e-2, 0.2, 1100
    run_ensemble(sde, [0.3], T, dt, n_rep, 3, [T], observables=obs)
    warm_steps = int(math.ceil(sde.bank.max_spin() / dt))
    assert sum(steps for steps, _k, _r in calls) == warm_steps + int(round(T / dt))
    assert {r for _s, _k, r in calls} == {n_rep}
    assert max(steps * r for steps, _k, r in calls) <= mc._BLOCK * 512


def test_spread_statistics_refuse_one_replicate():
    res = mc.EnsembleResult(np.array([0.0]), np.zeros((1, 1, 1)), ("x",))
    for stat in (res.var, res.stderr_mean, res.stderr_var):
        with pytest.raises(ValueError,
                           match="spread statistics need at least two replicates"):
            stat()


def test_zero_noise_ensemble_of_several_chunks_has_identical_replicates():
    spec = make_system("toy.snf", total=3)
    sde = compile_full_system(spec, {"sigma": 0.0})
    res = run_ensemble(sde, [0.3, 0.09], 2.0, 1e-3, 40, 5, [1.0, 2.0], chunk=16)
    assert np.array_equal(res.samples, np.broadcast_to(
        res.samples[:1], res.samples.shape))


_BLOWUP = """slow x
fast y
param s
noise 1
A 0
B -1
order 3
eq x: x^3 + s*x*y
eq y: -y + s*phi1
"""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_ensemble_counts_are_the_per_step_loop():
    # dx = x^3 dt leaves x = 2 for infinity by t = 1/8: stepping stops, and
    # the later sample times count every replicate as diverged, as stepping
    # on would.
    from snf.sysfile import load_system
    spec, _sf = load_system(_BLOWUP)
    sde = compile_full_system(spec, {"s": 1.0})
    times = [0.05, 0.5, 0.75, 1.0]
    got = run_ensemble(sde, [2.0, 0.0], 1.0, 0.01, 5, 0, times, chunk=2)
    want = _per_step_ensemble(sde, [2.0, 0.0], 1.0, 0.01, 5, 0, times, chunk=2)
    assert list(got.diverged()) == list((~np.isfinite(want).all(axis=2)).sum(axis=0))
    assert list(got.diverged()) == [0, 5, 5, 5]
    assert np.all(np.isnan(got.samples[:, 1:]))


def test_observables_reject_bare_noise_when_compiled(toy3):
    # the noise coefficient vanishes at x = 0, so evaluating it along a run
    # from x = 0 would show nothing
    sde = compile_slow_model(toy3, {"sigma": 0.1})
    bad = parse_series_for("x + x^2*sigma*phi[0]", toy3.spec)
    with pytest.raises(CompileError,
                       match=r"observable 1 carries bare noise: sigma\*x\^2\*phi\[0\]"):
        compile_observables([parse_series_for("x", toy3.spec), bad], sde,
                            {"sigma": 0.1}, toy3.spec.param_names,
                            lambda m: tuple(m[0]))
