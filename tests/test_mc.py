"""Compiled SDE models and the Heun ensemble integrator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_system
from snf import mc, noise
from snf.engine import construct
from snf.mc import (CompileError, FilterBank, compile_full_system,
                    compile_observables, compile_slow_model, heun_step,
                    run_ensemble, sampleable_part)
from snf.render import parse_series_for
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


def test_anticipatory_model_rejected(toy3):
    # fast evolution of the anticipating construction cannot be pre-sampled
    spec = toy3.spec
    bad = parse_series_for("x*Z[+1]{ phi[0] }", spec)
    with pytest.raises(CompileError):
        compile_slow_model(toy3, {"sigma": 0.1}, F_override=[bad])


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
        sde = compile_slow_model(nf, params, F_override=[F_series])
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
    step at a time (the reference for the block version)."""
    sample_times = np.asarray(sorted(sample_times), dtype=float)
    n_steps = int(round(T / dt))
    sample_idx = [int(round(t / dt)) for t in sample_times]
    warm_time = sde.bank.max_spin() if warm is None else warm
    warm_steps = int(math.ceil(warm_time / dt))
    sde.bank.prepare(dt)
    n_out = observables.sde.dim if observables else sde.dim
    out = np.empty((n_rep, len(sample_times), n_out))
    master = np.random.SeedSequence(seed)
    chunks = [(lo, min(lo + chunk, n_rep)) for lo in range(0, n_rep, chunk)]
    for child, (lo, hi) in zip(master.spawn(len(chunks)), chunks):
        rng = np.random.default_rng(child)
        R = hi - lo
        state = np.tile(np.asarray(x0, dtype=float)[:, None], (1, R))
        z = sde.bank.make_state(R)
        sqdt = math.sqrt(dt)
        for _ in range(warm_steps):
            z = _per_step(sde.bank, z, rng.standard_normal((sde.n_noise, R)) * sqdt)
        pos = 0
        for t_i in range(n_steps + 1):
            while pos < len(sample_idx) and sample_idx[pos] == t_i:
                out[lo:hi, pos, :] = (observables.values(state, z)
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


@pytest.fixture(scope="module")
def toy_chart_model(toy5):
    """The toy reduced model with its chart as observables, as ``snf
    compare`` builds them: five filters, Brownian and product slots."""
    from snf.analysis import ssm_parametrisation
    params = {"sigma": 0.05}
    sde = compile_slow_model(toy5, params)
    chart = ssm_parametrisation(toy5)
    obs = compile_observables([sampleable_part(s)[0] for s in chart.x_of_X],
                              sde, params, toy5.spec.param_names,
                              lambda m: tuple(m[0]))
    return sde, obs


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
    # the chart's nested filters need their full 30 time units of warm-up
    sde, obs = toy_chart_model
    got = run_ensemble(sde, [0.3], 0.1, 1e-2, 2, 5, [0.1], observables=obs)
    want = _per_step_ensemble(sde, [0.3], 0.1, 1e-2, 2, 5, [0.1], observables=obs)
    assert _same_bits(got.samples, want)


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
            sde = compile_slow_model(nf, params, n_noise=2,
                                     noise_amp={1: math.sqrt(0.5)},
                                     F_override=long_time_model(nf).F)
            assert sde.n_noise == 2 and any(t.noise_k == 1 for t in sde.terms[0])
    _check_rates(sde, sde.bank.n)


def test_rates_of_the_chart_observables(toy_chart_model):
    _sde, obs = toy_chart_model
    assert any(t.conv_slots for t in obs.sde.terms[0])
    _check_rates(obs.sde, obs.sde.bank.n)


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
