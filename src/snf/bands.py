"""Narrow-band components of white noise and quadratically generated
resonant noise, via the discrete Fourier transform.

Conventions: a sampled white noise w_i = dW_i/dt on N steps of size dt has
the unitary-in-angular-frequency transform

    phihat(Omega_k) = (dt / sqrt(2 pi)) sum_i w_i exp(-i Omega_k t_i),

for which E[phihat*(Omega) phihat(Omega')] ~ delta(Omega - Omega') on the
grid (spacing dOmega = 2 pi / T).  The band component at centre frequency m
with half-width delta,

    phi_m(t) = (1/sqrt(2 delta)) integral_{|Omega-m|<delta}
               e^{i(Omega-m)t} phihat(Omega) dOmega,

is unit variance, slowly varying, and independent across non-overlapping
bands.  Quadratic combinations of two noise frequencies that land within
delta of a resonance produce the slowly varying processes psi_pm computed by
``quad_resonant_noise``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


@dataclass
class BandNoise:
    center: float
    delta: float
    values: np.ndarray          # complex, one per time step
    dt: float

    def sample_variance(self) -> float:
        return float(np.mean(np.abs(self.values) ** 2))


@dataclass
class QuadNoise:
    psi_plus: np.ndarray        # complex process before normalisation
    psi_r: np.ndarray           # Re(psi_plus)/c_r, unit variance
    psi_i: np.ndarray           # Im(psi_plus)/c_i, unit variance
    c_r: float
    c_i: float
    dt: float


def white_spectrum(w: np.ndarray, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Angular frequencies and unitary-normalised spectrum of sampled noise."""
    n = len(w)
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    phihat = np.fft.fft(w) * dt / math.sqrt(2.0 * math.pi)
    return omega, phihat


def check_half_width(delta: float) -> None:
    """Refuse a band half-width outside (0, 1): a band needs a width, and
    bands at spacing-2 resonances overlap when delta >= 1."""
    if not 0 < delta < 1:
        raise ValueError(f"the band half-width must lie in (0, 1), got {delta:g}")


def _strip_offsets(T: float, delta: float) -> int:
    """L: a record of length T resolves the offsets l dOmega, |l| <= L,
    within delta of a resonance (dOmega = 2 pi / T)."""
    return int(math.floor(delta / (2.0 * math.pi / T)))


def check_record(T: float, delta: float) -> None:
    """Refuse a record of length T too short for the resonant strip to hold
    more than the zero offset, T < 2 pi / delta: its psi would be the
    constant zero-offset term, with scales c_r and c_i at rounding level."""
    if not (T > 0 and _strip_offsets(T, delta) >= 1):
        raise ValueError(f"need T >= 2*pi/delta = {2 * math.pi / delta:.4g}, "
                         f"so that the resonant strip holds more than the zero "
                         f"offset; got {T:g}")


def band_component(w: np.ndarray, dt: float, m: float, delta: float) -> BandNoise:
    """Unit-variance narrow-band component of the noise near frequency m."""
    check_half_width(delta)
    n = len(w)
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    W = np.fft.fft(w)
    mask = np.abs(omega - m) <= delta
    t = np.arange(n) * dt
    vals = math.sqrt(math.pi / delta) * np.fft.ifft(W * mask) * np.exp(-1j * m * t)
    return BandNoise(m, delta, vals, dt)


def _kernel(Om: np.ndarray, Omt: np.ndarray, sign: int) -> np.ndarray:
    s = float(sign)
    num = -(Om + Omt + s * Om * Omt) * (Om + Omt + s * 2.0)
    den = 2.0 * (Om + s * 2.0) * (Omt + s * 2.0) * Om * Omt
    return num / den


def kernel_limit(omega: np.ndarray) -> np.ndarray:
    """K_pm at zero distance from resonance: 1/((omega+2)(omega-2))."""
    return 1.0 / ((omega + 2.0) * (omega - 2.0))


def _resonant_strip(w: np.ndarray, dt: float, delta: float,
                    centers: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Offset bins l, |l dOmega| <= delta, and psitilde_+ at each offset."""
    n = len(w)
    dOm = 2.0 * math.pi / (n * dt)
    omega, phihat = white_spectrum(w, dt)
    # Shifted (monotone frequency) ordering for index arithmetic.
    order = np.argsort(np.round(omega / dOm).astype(int))
    om_s = omega[order]
    ph_s = phihat[order]
    in_D = np.ones(n, dtype=bool)
    for m in centers:
        in_D &= np.abs(om_s - m) > delta
    L = _strip_offsets(n * dt, delta)
    lbins = np.arange(-L, L + 1)
    psit_p = np.zeros(len(lbins), dtype=complex)
    idx = np.arange(n)
    for pos, l in enumerate(lbins):
        jp = l - (idx - n // 2) + n // 2        # partner of om_s[j] is om_s[jp]
        ok = (jp >= 0) & (jp < n) & in_D
        ok &= in_D[np.clip(jp, 0, n - 1)]
        j = idx[ok]
        p = jp[ok]
        pair = ph_s[j] * ph_s[p]
        psit_p[pos] = dOm * np.sum(_kernel(om_s[j], om_s[p], +1) * pair)
    return lbins, psit_p


def quad_resonant_noise(w: np.ndarray, dt: float, delta: float) -> QuadNoise:
    """Resonant part of the double-frequency quadratic noise integral.

    For each offset |omega_tilde| < delta computes

        psitilde_+(omega_tilde) = dOmega * sum_{Omega in D}
            K_+(Omega, omega_tilde - Omega) phihat(Omega)
            phihat(omega_tilde - Omega),

    with D the frequency axis minus [m-delta, m+delta] around each centre
    m = -2, 0, 2, then inverse-transforms over the resonant strip.  The real
    and imaginary parts are normalised to unit variance; their scales c_r and
    c_i are the reported constants.
    """
    check_half_width(delta)
    check_record(len(w) * dt, delta)
    lbins, psit_p = _resonant_strip(w, dt, delta, (-2.0, 0.0, 2.0))
    # psi_plus(t_k) = dOm sum_l psit_p[l] exp(i l dOm t_k) with t_k = k dt and
    # dOm = 2 pi / (n dt): an inverse DFT of the strip, scaled by dOm n.
    strip = np.zeros(len(w), dtype=complex)
    strip[lbins % len(w)] = psit_p
    psi_plus = (2.0 * math.pi / dt) * np.fft.ifft(strip)
    c_r = float(np.std(psi_plus.real))
    c_i = float(np.std(psi_plus.imag))
    return QuadNoise(psi_plus, psi_plus.real / c_r, psi_plus.imag / c_i,
                     c_r, c_i, dt)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalised autocorrelation of a (possibly complex) process."""
    x = x - x.mean()
    denom = float(np.mean(np.abs(x) ** 2))
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        if lag:
            out[lag] = float(np.mean((x[:-lag] * np.conj(x[lag:])).real)) / denom
        else:
            out[lag] = 1.0
    return out
