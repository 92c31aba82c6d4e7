"""Oscillator lab: amplitude models, the full oscillator, Mathieu rates."""

import math
import os
import re

import numpy as np
import pytest

import snf.hopf
from conftest import counting_forks, no_child_left
from snf import mc
from snf.bands import QuadNoise, band_component
from snf.cli import EXIT_OK, main
from snf.hopf import (AmplitudeDrivers, fit_growth_rate, landau_rhs,
                      mathieu_growth, reconstruct_x1, simulate_amplitude,
                      simulate_amplitude_longtime, simulate_dvdp)
from snf.mc import heun_path

DT = 1e-2


def flat_drivers(n):
    return AmplitudeDrivers(np.zeros(n + 1), np.zeros(n + 1, dtype=complex))


def test_landau_fixed_point():
    # sigma=0, beta>0: |a|^2 -> beta
    n = 30000
    a = simulate_amplitude(1, 0.1, 0.0, 0.2, flat_drivers(n), DT, 0.04 + 0.01j)
    assert abs(abs(a[-1]) ** 2 - 0.1) < 1e-6


def test_subcritical_decay_rate():
    # sigma=0, beta<0: decay at rate beta/2
    n = 8000
    a = simulate_amplitude(1, -0.1, 0.0, 0.2, flat_drivers(n), DT, 0.01 + 0.0j)
    rate = fit_growth_rate(a, DT)
    assert abs(rate - (-0.05)) < 1e-3


def test_dvdp_deterministic_cycle_amplitude():
    # the limit-cycle radius matches the Landau prediction 2 sqrt(beta)
    beta = 0.1
    x, _v = simulate_dvdp(-1.0, beta, 0.0, np.zeros((1, 250000)), 1e-3, (0.3, 0.0))
    amp = float(np.max(np.abs(x[0, -60000:])))
    assert abs(amp - 2 * math.sqrt(beta)) < 0.05 * 2 * math.sqrt(beta)


def dvdp_array_reference(alpha, beta, sigma, dw, dt, init):
    """The oscillator stepped as one (2, R) numpy state for all replicates,
    an independent check on the path-at-a-time ``simulate_dvdp``."""
    dw = np.atleast_2d(dw)
    R, n = dw.shape
    s = np.empty((n + 1, 2, R))
    s[0, 0], s[0, 1] = init

    def increment(z, dwi):
        x, v = z
        acc = alpha * x + beta * v - x ** 3 - x ** 2 * v
        return np.array([v * dt, acc * dt + sigma * x * dwi])

    for i, dwi in enumerate(dw.T):
        s[i + 1] = heun_path(s[i], 1, lambda z, _i, _end: increment(z, dwi))[1]
    return s[:, 0].T, s[:, 1].T


def test_dvdp_matches_the_array_stepper():
    rng = np.random.default_rng(8)
    dw = rng.standard_normal((3, 2000)) * math.sqrt(1e-2)
    args = (-1.0, 0.1, 0.5, dw, 1e-2, (0.3, -0.2))
    x, v = simulate_dvdp(*args)
    x_ref, v_ref = dvdp_array_reference(*args)
    assert x.shape == v.shape == (3, 2001)
    assert np.max(np.abs(x - x_ref)) < 1e-12
    assert np.max(np.abs(v - v_ref)) < 1e-12
    # the paths move well away from the start, so the check has teeth
    assert np.ptp(x, axis=1).min() > 0.1


def test_dvdp_replicates_step_alone():
    rng = np.random.default_rng(9)
    dw = rng.standard_normal((3, 500)) * math.sqrt(1e-2)
    x, v = simulate_dvdp(-1.0, 0.1, 0.5, dw, 1e-2, (0.3, 0.0))
    for r in range(3):
        xr, vr = simulate_dvdp(-1.0, 0.1, 0.5, dw[r], 1e-2, (0.3, 0.0))
        assert xr.shape == (1, 501)
        assert np.array_equal(x[r], xr[0]) and np.array_equal(v[r], vr[0])


def test_dvdp_noisy_bifurcation_regimes():
    rng = np.random.default_rng(42)
    dw = rng.standard_normal((4, 150000)) * math.sqrt(1e-3)
    xp, _ = simulate_dvdp(-1.0, +0.1, 0.5, dw, 1e-3, (0.1, 0.0))
    xm, _ = simulate_dvdp(-1.0, -0.1, 0.5, dw, 1e-3, (0.1, 0.0))
    rms_p = np.sqrt(np.mean(xp[:, -40000:] ** 2))
    rms_m = np.sqrt(np.mean(xm[:, -40000:] ** 2))
    # super-critical orbits at the sqrt(beta) scale, sub-critical hugs origin
    assert rms_p > 0.5 * math.sqrt(0.1)
    assert rms_m < 0.1


@pytest.mark.parametrize("n_steps", [30, -1])
def test_amplitude_refuses_steps_beyond_its_drivers(monkeypatch, n_steps):
    def no_path(*_args):
        raise AssertionError("integrated before checking n_steps")
    monkeypatch.setattr(snf.hopf, "heun_path", no_path)
    with pytest.raises(ValueError, match=rf"n_steps = {n_steps}: the drivers "
                                         r"hold 21 samples, enough for 0 to 20 steps"):
        simulate_amplitude(1, 0.1, 0.0, 0.2, flat_drivers(20), DT, 0.04 + 0.01j,
                           n_steps=n_steps)


@pytest.mark.parametrize("order, short, got", [
    (1, "phi2", "phi0 21, phi2 11"),
    (2, "phi2", "phi0 21, phi2 11, psi_r 21, psi_i 21"),
    (2, "psi_r", "phi0 21, phi2 21, psi_r 11, psi_i 21"),
    (2, "psi_i", "phi0 21, phi2 21, psi_r 21, psi_i 11"),
])
def test_amplitude_refuses_drivers_of_unequal_length(monkeypatch, order, short, got):
    # a short phi2 (or psi_r, psi_i at order 2) used to end mid-path in
    # IndexError: list index out of range
    def no_path(*_args):
        raise AssertionError("integrated before checking the drivers' lengths")
    monkeypatch.setattr(snf.hopf, "heun_path", no_path)
    drivers = flat_drivers(20)
    drivers.psi = QuadNoise(np.zeros(21, dtype=complex), np.zeros(21), np.zeros(21),
                            1.0, 1.0, DT)
    if short == "phi2":
        drivers.phi2 = drivers.phi2[:11]
    else:
        setattr(drivers.psi, short, getattr(drivers.psi, short)[:11])
    with pytest.raises(ValueError, match=rf"^the drivers must be of one length, "
                                         rf"got {got} samples$"):
        simulate_amplitude(order, 0.1, 0.3, 0.2, drivers, DT, 0.04 + 0.01j, n_steps=5)


def test_reconstruction_is_real_scale():
    n = 2000
    a = simulate_amplitude(1, 0.1, 0.0, 0.2, flat_drivers(n), DT, 0.1 + 0.05j)
    x1 = reconstruct_x1(a, DT)
    assert np.all(np.isfinite(x1))
    assert np.max(np.abs(x1)) <= 2 * np.max(np.abs(a)) + 1e-12


def test_order2_model_runs_with_sampled_noises():
    n = 40000
    rng = np.random.default_rng(3)
    w = rng.standard_normal(n) / math.sqrt(DT * 5)
    drv = AmplitudeDrivers.from_noise(w, DT * 5, 0.2, quadratic=True)
    a = simulate_amplitude(2, 0.1, 0.3, 0.2, drv, DT * 5, 0.2 + 0.0j,
                           n_steps=n - 1)
    assert np.all(np.isfinite(np.abs(a)))
    # trajectories hover near the deterministic radius sqrt(beta)
    late = np.abs(a[len(a) // 2:])
    assert 0.05 < np.mean(late) < 0.8


def test_longtime_model_matches_order2_statistics():
    # |a| statistics of the order-2 model (small delta) against the
    # long-time reduced model driven by fresh white noises
    beta, sigma, delta = 0.1, 0.4, 0.1
    dt = 0.05
    n = 40000
    rng = np.random.default_rng(17)
    o2 = []
    for s in range(10):
        w = rng.standard_normal(n) / math.sqrt(dt)
        drv = AmplitudeDrivers.from_noise(w, dt, delta, quadratic=True)
        a = simulate_amplitude(2, beta, sigma, delta, drv, dt, 0.3 + 0.0j,
                               n_steps=n - 1)
        o2.append(np.abs(a[n // 2:]))
    c_r, c_i = 0.9, 0.2
    lt = []
    for s in range(10):
        a = simulate_amplitude_longtime(beta, sigma, c_r, c_i, dt, n,
                                        0.3 + 0.0j, seed=900 + s)
        lt.append(np.abs(a[n // 2:]))
    m_o2 = np.mean([np.mean(v) for v in o2])
    m_lt = np.mean([np.mean(v) for v in lt])
    spread = np.std([np.mean(v) for v in o2], ddof=1)
    assert abs(m_o2 - m_lt) < max(3 * spread, 0.15 * m_o2)


def test_mathieu_growth_rates():
    res = mathieu_growth(0.05, 0.3)
    assert abs(res["model"] - 0.1) < 0.002
    assert abs(res["full"] - 0.1) < 0.01
    res0 = mathieu_growth(0.05, 0.0)
    assert abs(res0["model"] - 0.025) < 1e-3


def test_mathieu_predicts_the_growth_at_a_negative_sigma(capsys):
    # the pair's real and imaginary parts grow at beta/2 +- sigma/4, so the
    # faster of the two sets the rate whatever the sign of sigma
    res = mathieu_growth(0.05, -0.3)
    assert res["predicted"] == 0.5 * 0.05 + 0.25 * 0.3
    assert abs(res["model"] - res["predicted"]) < 0.002
    assert abs(res["full"] - res["predicted"]) < 0.01
    assert main(["hopf", "--sigma", "-0.3", "--replicates", "1"]) == EXIT_OK
    assert "predicted 0.10000" in capsys.readouterr().out


def test_band_driver_independence():
    # cross-correlation of the two band noises driving the model is small
    rng = np.random.default_rng(23)
    dt = 0.05
    n = int(2000 / dt)
    cross = []
    for s in range(6):
        w = rng.standard_normal(n) / math.sqrt(dt)
        p0 = band_component(w, dt, 0.0, 0.2)
        p2 = band_component(w, dt, 2.0, 0.2)
        cross.append(np.mean(p0.values * np.conj(p2.values)).real)
    se = np.std(cross, ddof=1) / math.sqrt(len(cross))
    assert abs(np.mean(cross)) < 3 * se + 0.05


# -- every path is the per-step Heun loop, bit for bit -----------------------

def heun_loop(x0, n, increment):
    """Heun steps written out one at a time, x + (d0 + d1) / 2."""
    path = [x0]
    x = x0
    for i in range(n):
        d0 = increment(x, i, 0)
        d1 = increment(x + d0, i, 1)
        x = x + (d0 + d1) / 2
        path.append(x)
    return np.array(path)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_paths_are_the_per_step_heun_loop_bit_for_bit(monkeypatch):
    alpha, beta, sigma, delta, dt = -1.0, 0.1, 0.5, 0.2, 0.05
    rng = np.random.default_rng(31)

    # the oscillator, three replicates
    dw = rng.standard_normal((3, 400)) * math.sqrt(dt)
    x, v = simulate_dvdp(alpha, beta, sigma, dw, dt, (0.3, -0.2))
    for r in range(3):
        dwr = dw[r].tolist()

        def dvdp(z, i, _end):
            acc = alpha * z.real + beta * z.imag - z.real ** 3 - z.real ** 2 * z.imag
            return complex(z.imag * dt, acc * dt + sigma * z.real * dwr[i])

        s = heun_loop(complex(0.3, -0.2), 400, dvdp)
        assert same_bits(x[r], s.real) and same_bits(v[r], s.imag)

    # the amplitude models, their drift written as rhs(a, i) * dt
    n = 1000
    drv = AmplitudeDrivers.from_noise(rng.standard_normal(n) / math.sqrt(dt),
                                      dt, delta, quadratic=True)
    phi0, phi2 = drv.phi0.tolist(), drv.phi2.tolist()
    q = drv.psi
    psi_r, psi_i = q.psi_r.tolist(), q.psi_i.tolist()
    amp = math.sqrt(delta / 2.0)
    for order in (1, 2):
        def rhs(a, i):
            out = landau_rhs(a, beta) + sigma * amp * (
                a * phi0[i] - a.conjugate() * phi2[i])
            if order == 2:
                out = out + 0.5j * sigma ** 2 * (
                    q.c_r * psi_r[i] + 1j * q.c_i * psi_i[i]) * a
                out = out - 1j * delta * sigma ** 2 * (
                    0.25 * phi0[i] ** 2
                    + 0.125 * phi2[i] * phi2[i].conjugate()) * a
            return out

        a = simulate_amplitude(order, beta, sigma, delta, drv, dt, 0.2 + 0.1j)
        want = heun_loop(0.2 + 0.1j, n - 1, lambda y, i, end: rhs(y, i + end) * dt)
        assert same_bits(a, want), order

    # the long-time model, its noises drawn as it draws them
    c_r, c_i = 0.9, 0.2
    a = simulate_amplitude_longtime(beta, sigma, c_r, c_i, dt, 500, 0.3 + 0.0j, seed=5)
    draws = np.random.default_rng(5)
    dWr = (draws.standard_normal(500) * math.sqrt(dt)).tolist()
    dWi = (draws.standard_normal(500) * math.sqrt(dt)).tolist()
    gr, gi = 0.5j * c_r * sigma ** 2, 0.5 * c_i * sigma ** 2
    want = heun_loop(0.3 + 0.0j, 500, lambda y, i, _end: (
        landau_rhs(y, beta) * dt + gr * y * dWr[i] - gi * y * dWi[i]))
    assert same_bits(a, want)

    # both paths of the Mathieu check, as it walks them, in this process so
    # that the recorder sees both walks (other process counts give the same
    # bits: test_mathieu_is_the_same_bits_in_any_number_of_processes)
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 1)
    walked = []

    def recording(*args):
        walked.append(heun_path(*args))
        return walked[-1]

    monkeypatch.setattr(snf.hopf, "heun_path", recording)
    mb, ms, mdt = 0.05, 0.3, 1e-3
    mathieu_growth(mb, ms, T=2.0, dt=mdt)

    def linearised(y, i, end):
        t = (i + end) * mdt
        return complex(y.imag, (-1.0 + ms * math.cos(2 * t)) * y.real + mb * y.imag) * mdt

    assert len(walked) == 2
    assert same_bits(walked[0], heun_loop(0.01 + 0.003j, 2000, lambda y, _i, _end: (
        0.5 * mb * y + 0.25 * ms * y.conjugate()) * mdt))
    assert same_bits(walked[1], heun_loop(0.01 + 0.0j, 2000, linearised))


# -- independent paths stepped in parallel processes ---------------------------

@pytest.mark.parametrize("R", [1, 3, 8])
def test_dvdp_is_the_same_bits_in_any_number_of_processes(R, monkeypatch):
    dw = np.random.default_rng(40 + R).standard_normal((R, 300)) * math.sqrt(DT)
    forks = counting_forks(monkeypatch)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        forks.clear()
        x, v = simulate_dvdp(-1.0, 0.1, 0.5, dw, DT, (0.3, -0.2))
        assert len(forks) == min(cpus, R) - 1
        no_child_left()
        runs.append(x.tobytes() + v.tobytes())
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_mathieu_is_the_same_bits_in_any_number_of_processes(monkeypatch):
    forks = counting_forks(monkeypatch)
    runs = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        forks.clear()
        runs.append(mathieu_growth(0.05, 0.3, T=4.0))
        assert len(forks) == min(cpus, 2) - 1
        no_child_left()
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_dvdp_of_no_replicates_forks_nothing(monkeypatch):
    def refused():
        raise AssertionError("forked")

    monkeypatch.setattr(mc, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(os, "fork", refused)
    x, v = simulate_dvdp(-1.0, 0.1, 0.5, np.zeros((0, 7)), DT, (0.3, 0.0))
    assert x.shape == v.shape == (0, 8) and x.dtype == v.dtype == float


def test_dvdp_names_a_worker_error(monkeypatch):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    parent, path = os.getpid(), snf.hopf.heun_path

    def failing(*args):
        if os.getpid() != parent:
            raise ValueError("stepping refused in the worker")
        return path(*args)

    monkeypatch.setattr(snf.hopf, "heun_path", failing)
    with pytest.raises(RuntimeError, match="^a worker process failed: "
                                           "ValueError: stepping refused in the worker$"):
        simulate_dvdp(-1.0, 0.1, 0.5, np.zeros((2, 5)), DT, (0.3, 0.0))
    no_child_left()


# -- refusals of stepping input ------------------------------------------------

@pytest.mark.parametrize("T,dt,message", [
    (-1.0, 1e-3, r"T = -1.0: the horizon must be positive"),
    (0.0, 1e-3, r"T = 0.0: the horizon must be positive"),
    (1.0, 0.0, r"dt = 0.0: the step must be positive"),
    (1.0, -1e-3, r"dt = -0.001: the step must be positive"),
    # under half a step: off the step grid, and no step to fit a slope to
    (4e-4, 1e-3, r"horizon 0.0004 is not a whole number of steps of dt = 0.001"),
])
def test_mathieu_refuses_a_horizon_it_cannot_fit(monkeypatch, T, dt, message):
    def no_path(*_args):
        raise AssertionError("integrated before checking the horizon")
    monkeypatch.setattr(snf.hopf, "heun_path", no_path)
    with pytest.raises(ValueError, match=message):
        mathieu_growth(0.05, 0.3, T=T, dt=dt)


def test_mathieu_refuses_a_horizon_off_the_step_grid(monkeypatch):
    # used to be rounded to 80 000 steps
    def no_path(*_args):
        raise AssertionError("integrated before checking the horizon")
    monkeypatch.setattr(snf.hopf, "heun_path", no_path)
    with pytest.raises(ValueError, match="^" + re.escape(
            "horizon 80.0005 is not a whole number of steps of dt = 0.001") + "$"):
        mathieu_growth(0.05, 0.3, T=80.0005)


def test_mathieu_fits_the_shortest_horizon_it_accepts():
    # one step: two samples, both in the fit window
    res = mathieu_growth(0.05, 0.3, T=1e-3, dt=1e-3)
    assert all(math.isfinite(res[k]) for k in ("model", "full"))


def test_longtime_refuses_a_negative_step_count():
    with pytest.raises(ValueError, match=r"^n = -2: the model needs a non-negative"):
        simulate_amplitude_longtime(0.1, 0.4, 0.9, 0.2, 0.05, -2, 0.3 + 0.0j)


_BAD_STEPS = pytest.mark.parametrize("dt", [-0.01, 0.0, math.nan, math.inf])


def _no_path(*_args):
    raise AssertionError("integrated before checking the step")


@_BAD_STEPS
def test_dvdp_refuses_a_step_it_cannot_use(monkeypatch, dt):
    monkeypatch.setattr(snf.hopf, "heun_path", _no_path)
    with pytest.raises(ValueError, match=rf"^dt = {dt}: the step must be positive"):
        simulate_dvdp(-0.9, 0.1, 0.3, np.zeros(5), dt, (0.1, 0.0))


@pytest.mark.parametrize("dw,init,message", [
    # these used to end in "too many values to unpack" and in steps from a
    # start the caller did not give
    (np.zeros((1, 2, 5)), (0.1, 0.0), r"^dw has shape \(1, 2, 5\): the increments "
                                       r"must be one path \(n,\) or replicates"),
    (np.zeros(()), (0.1, 0.0), r"^dw has shape \(\): the increments must be"),
    (np.zeros(5), (0.1,), r"^init = \(0.1,\): the start must be a pair \(x1, v\)"),
    (np.zeros(5), (0.1, 0.0, 0.2), r"^init = \(0.1, 0.0, 0.2\): the start must be"),
    (np.zeros(5), 0.1, r"^init = 0.1: the start must be a pair"),
])
def test_dvdp_refuses_input_it_cannot_step(monkeypatch, dw, init, message):
    monkeypatch.setattr(snf.hopf, "heun_path", _no_path)
    monkeypatch.setattr(snf.hopf, "in_processes", _no_path)
    with pytest.raises(ValueError, match=message):
        simulate_dvdp(-0.9, 0.1, 0.3, dw, 0.01, init)


@_BAD_STEPS
def test_amplitude_refuses_a_step_it_cannot_use(monkeypatch, dt):
    monkeypatch.setattr(snf.hopf, "heun_path", _no_path)
    with pytest.raises(ValueError, match=rf"^dt = {dt}: the step must be positive"):
        simulate_amplitude(1, 0.1, 0.3, 0.2, flat_drivers(20), dt, 0.04 + 0.01j)


@_BAD_STEPS
def test_longtime_refuses_a_step_it_cannot_use(monkeypatch, dt):
    monkeypatch.setattr(snf.hopf, "heun_path", _no_path)
    with pytest.raises(ValueError, match=rf"^dt = {dt}: the step must be positive"):
        simulate_amplitude_longtime(0.1, 0.4, 0.9, 0.2, dt, 10, 0.3 + 0.0j)
