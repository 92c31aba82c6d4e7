"""Numerical laboratory for the stochastically forced Hopf bifurcation of
the Duffing-van der Pol oscillator

    x1'' = (alpha + sigma phi(t)) x1 + beta x1' - x1^3 - x1^2 x1',

its complex-amplitude reductions near alpha = -1 (solutions carried as
x1 ~ a e^{it} + conj(a) e^{-it}), and the Mathieu-type check with the
deterministic forcing phi = cos 2t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .bands import QuadNoise, band_component, quad_resonant_noise
from .mc import heun_path


def _check_step(dt: float) -> None:
    """Refuse a step that is not positive and finite: a negative one would
    integrate backward, a zero one return the start."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt = {dt}: the step must be positive and finite")


def simulate_dvdp(alpha: float, beta: float, sigma: float,
                  dw: np.ndarray, dt: float,
                  init: Tuple[float, float]) -> Tuple[np.ndarray, np.ndarray]:
    """Stratonovich Heun integration of the oscillator driven by given
    Brownian increments (shape (n,) or (R, n)); returns (x1, v) arrays with
    one more sample than increments.  Each replicate steps alone, x1 + i v."""
    _check_step(dt)
    dw = np.atleast_2d(dw)
    R, n = dw.shape
    s = np.empty((R, n + 1), dtype=complex)
    for r in range(R):
        dwr = dw[r].tolist()

        def increment(z, i, _end):
            x, v = z.real, z.imag
            acc = alpha * x + beta * v - x ** 3 - x ** 2 * v
            # parametric noise sigma*x1 o dW enters the velocity equation
            return complex(v * dt, acc * dt + sigma * x * dwr[i])

        s[r] = heun_path(complex(*init), n, increment)
    return s.real, s.imag


@dataclass
class AmplitudeDrivers:
    """Sampled slowly varying noises feeding the amplitude models."""
    phi0: np.ndarray
    phi2: np.ndarray            # phi_{+2}; phi_{-2} is its conjugate
    psi: Optional[QuadNoise] = None

    @classmethod
    def from_noise(cls, w: np.ndarray, dt: float, delta: float,
                   quadratic: bool = False) -> "AmplitudeDrivers":
        p0 = band_component(w, dt, 0.0, delta)
        p2 = band_component(w, dt, 2.0, delta)
        q = quad_resonant_noise(w, dt, delta) if quadratic else None
        return cls(p0.values, p2.values, q)


def landau_rhs(a: np.ndarray, beta: float) -> np.ndarray:
    return 0.5 * beta * a - (0.5 - 1.5j) * (abs(a) ** 2) * a


def simulate_amplitude(order: int, beta: float, sigma: float, delta: float,
                       drivers: AmplitudeDrivers, dt: float, a0: complex,
                       n_steps: Optional[int] = None) -> np.ndarray:
    """Heun integration of the complex amplitude model with b = conj(a).

    ``order`` 1 uses the linear-noise model; 2 adds the quadratic noise
    (psi and the deterministic frequency-shift terms proportional to delta).
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    _check_step(dt)
    if order == 2 and drivers.psi is None:
        raise ValueError("order-2 model needs the quadratic noise drivers")
    n = len(drivers.phi0) - 1 if n_steps is None else n_steps
    if not 0 <= n < len(drivers.phi0):
        raise ValueError(f"n_steps = {n}: the drivers hold {len(drivers.phi0)} "
                         f"samples, enough for 0 to {len(drivers.phi0) - 1} steps")
    amp = math.sqrt(delta / 2.0)
    # Python scalars: one step is far cheaper than on numpy scalars.
    phi0 = drivers.phi0[:n + 1].tolist()
    phi2 = drivers.phi2[:n + 1].tolist()
    if order == 2:
        q = drivers.psi
        psi_r, psi_i = q.psi_r[:n + 1].tolist(), q.psi_i[:n + 1].tolist()

    def increment(a, i, end):
        # the drivers' sample at the step's start (end=0) or end (end=1)
        i += end
        out = landau_rhs(a, beta) + sigma * amp * (
            a * phi0[i] - a.conjugate() * phi2[i])
        if order == 2:
            out = out + 0.5j * sigma ** 2 * (
                q.c_r * psi_r[i] + 1j * q.c_i * psi_i[i]) * a
            out = out - 1j * delta * sigma ** 2 * (
                0.25 * phi0[i] ** 2
                + 0.125 * phi2[i] * phi2[i].conjugate()) * a
        return out * dt

    return np.array(heun_path(complex(a0), n, increment))


def simulate_amplitude_longtime(beta: float, sigma: float, c_r: float,
                                c_i: float, dt: float, n: int, a0: complex,
                                seed: int = 0) -> np.ndarray:
    """The very-long-time model: Landau drift plus the two effective white
    noises from the quadratic resonance,

        da = [beta a/2 - (1/2 - 3i/2)|a|^2 a] dt
             + (i/2) c_r sigma^2 a o dW_r - (1/2) c_i sigma^2 a o dW_i.
    """
    if n < 0:
        raise ValueError(f"n = {n}: the model needs a non-negative number of steps")
    _check_step(dt)
    rng = np.random.default_rng(seed)
    sq = math.sqrt(dt)
    dWr = (rng.standard_normal(n) * sq).tolist()
    dWi = (rng.standard_normal(n) * sq).tolist()
    gr, gi = 0.5j * c_r * sigma ** 2, 0.5 * c_i * sigma ** 2

    def increment(y, i, _end):
        return landau_rhs(y, beta) * dt + gr * y * dWr[i] - gi * y * dWi[i]

    return np.array(heun_path(complex(a0), n, increment))


def reconstruct_x1(a: np.ndarray, dt: float) -> np.ndarray:
    t = np.arange(len(a)) * dt
    return (a * np.exp(1j * t) + np.conj(a) * np.exp(-1j * t)).real


def _fit_start(n: int) -> int:
    """First sample of the fit window of ``n`` samples: the last three
    quarters."""
    return int(n * 0.25)


def fit_growth_rate(amplitude: np.ndarray, dt: float) -> float:
    """Least-squares slope of log amplitude over the last three quarters."""
    n = len(amplitude)
    lo = _fit_start(n)
    t = np.arange(lo, n) * dt
    y = np.log(np.abs(amplitude[lo:]))
    A = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(A, y, rcond=None)[0]
    return float(slope)


def mathieu_growth(beta: float, sigma: float, T: float = 80.0,
                   dt: float = 1e-3) -> Dict[str, float]:
    """Growth rates under the deterministic forcing phi = cos 2t.

    Integrates the amplitude pair da/dt = beta a/2 + sigma b/4 (conjugate
    pair coupling from the frequency-2 line) and the linearised oscillator
    x1'' = (-1 + sigma cos 2t) x1 + beta x1', both by Heun steps, and fits
    both exponential rates.  The real and imaginary parts of the pair grow
    at beta/2 + sigma/4 and beta/2 - sigma/4, so the model predicts lambda =
    beta/2 + |sigma|/4.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"T = {T}: the horizon must be positive and finite")
    _check_step(dt)
    n = int(round(T / dt))
    if n + 1 - _fit_start(n + 1) < 2:
        raise ValueError(f"T = {T}, dt = {dt}: {n} steps leave fewer than two "
                         f"samples in the fit window (the last three quarters)")
    # The pair starts conjugate and its coefficients are real, so b stays
    # exactly conj(a) and one complex equation carries both.
    a = heun_path(0.01 + 0.003j, n, lambda y, _i, _end: (
        0.5 * beta * y + 0.25 * sigma * y.conjugate()) * dt)
    model_rate = fit_growth_rate(2 * np.abs(a), dt)

    # linearised full oscillator, state (x1, v) carried as x1 + i v
    def increment(y, i, end):
        x, v = y.real, y.imag
        t = (i + end) * dt
        return complex(v, (-1.0 + sigma * math.cos(2 * t)) * x + beta * v) * dt

    s = heun_path(0.01 + 0.0j, n, increment)
    full_rate = fit_growth_rate(np.abs(s), dt)
    return {"model": model_rate, "full": full_rate,
            "predicted": 0.5 * beta + 0.25 * abs(sigma)}
