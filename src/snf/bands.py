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
``quad_resonant_noise``.  Its resonant strip, 2L+1 independent offsets of
O(n) work each, is split across CPUs by ``snf.mc.in_processes``, with the
same bits in any number of processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import mc


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


def check_step(dt: float, m: float, delta: float) -> None:
    """Refuse a step that is not positive and finite, or one whose Nyquist
    frequency pi/dt does not lie above the band of half-width delta at m:
    need |m| + delta < pi/dt.  The quadratic noise's bands reach 2 + delta."""
    nyquist_dt = math.pi / (abs(m) + delta)
    if not 0 < dt < nyquist_dt:
        raise ValueError(f"need 0 < dt < pi/({abs(m):g} + delta) = {nyquist_dt:.4g}, "
                         f"so that the frequency-{abs(m):g} band lies below "
                         f"Nyquist; got {dt:g}")


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


def check_white(w: np.ndarray) -> None:
    """Refuse a white-noise record that is not one-dimensional and finite:
    an array of another shape would be read as len(w) samples, and a
    non-finite sample spreads to every bin of its transform."""
    shape = np.shape(w)
    if len(shape) != 1:
        raise ValueError(f"the white-noise record must be one-dimensional, "
                         f"got shape {shape}")
    bad = np.flatnonzero(~np.isfinite(w))
    if len(bad):
        raise ValueError(f"the white-noise record must be finite: {len(bad)} of its "
                         f"{shape[0]} samples are not, the first at index {bad[0]}")


def band_component(w: np.ndarray, dt: float, m: float, delta: float) -> BandNoise:
    """Unit-variance narrow-band component of the noise near frequency m."""
    check_half_width(delta)
    check_step(dt, m, delta)
    check_white(w)
    n = len(w)
    omega = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    W = np.fft.fft(w)
    mask = np.abs(omega - m) <= delta
    t = np.arange(n) * dt
    vals = math.sqrt(math.pi / delta) * np.fft.ifft(W * mask) * np.exp(-1j * m * t)
    return BandNoise(m, delta, vals, dt)


def _kernel_factors(Om: np.ndarray, sign: int):
    """The factors of K_pm(Om, .) that depend on Om alone: s Om, 2 (Om + 2s)
    and Om + 2s, with s = sign."""
    s = float(sign)
    return s * Om, 2.0 * (Om + s * 2.0), Om + s * 2.0


def _kernel_of_factors(Om: np.ndarray, Omt: np.ndarray, sOm: np.ndarray,
                       two_a: np.ndarray, bt: np.ndarray, sign: int,
                       scratch: np.ndarray) -> np.ndarray:
    """K_pm(Om, Omt) from the factors of ``_kernel_factors``: sOm and two_a
    of Om, bt of Omt.  ``scratch``, three float rows of the result's shape,
    holds the intermediates and, in its second row, the result, which is
    returned; each element's operations and their order do not depend on
    where the rows lie, so neither do its bits."""
    S, num, den = scratch
    np.add(Om, Omt, out=S)
    np.multiply(sOm, Omt, out=num)
    np.add(S, num, out=num)
    np.negative(num, out=num)
    np.add(S, float(sign) * 2.0, out=S)
    np.multiply(num, S, out=num)        # -(S + sOm Omt) (S + 2s)
    np.multiply(two_a, bt, out=den)
    np.multiply(den, Om, out=den)
    np.multiply(den, Omt, out=den)      # two_a bt Om Omt
    return np.divide(num, den, out=num)


def _kernel(Om: np.ndarray, Omt: np.ndarray, sign: int) -> np.ndarray:
    """K_pm(Om, Omt) = -(Om + Omt + s Om Omt)(Om + Omt + 2s)
    / (2 (Om + 2s)(Omt + 2s) Om Omt)."""
    sOm, two_a, _ = _kernel_factors(Om, sign)
    _, _, bt = _kernel_factors(Omt, sign)
    scratch = np.empty((3,) + np.broadcast_shapes(np.shape(Om), np.shape(Omt)))
    return _kernel_of_factors(Om, Omt, sOm, two_a, bt, sign, scratch)


def kernel_limit(omega: np.ndarray) -> np.ndarray:
    """K_pm at zero distance from resonance: 1/((omega+2)(omega-2))."""
    return 1.0 / ((omega + 2.0) * (omega - 2.0))


def _resonant_strip(w: np.ndarray, dt: float, delta: float,
                    centers: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Offset bins l, |l dOmega| <= delta, and psitilde_+ at each offset.

    In the shifted (monotone) order bin j holds frequency (j - n//2) dOmega,
    so the pairs at offset l are (j, c - j) with c = l + 2 (n//2): over the
    valid j they read one contiguous slice of the spectrum against the same
    span of the reversed spectrum.  The kernel and the products are formed on
    the whole slice, then the pairs with both frequencies in D are kept, in
    ascending j, and summed.  The kernel's poles (Omega = 0, -2 for either
    partner) lie in the excluded bands, so their values never reach a sum.

    The spectrum, the masks of D and the kernel's factors are formed once,
    here; the offsets are independent and split into contiguous ranges
    across processes by ``mc.in_processes``.  Each worker forms its offsets'
    kernels, products and masks in one set of scratch rows of length n, so
    an offset allocates no row of its own; every sum is the same bits in
    any number of processes.
    """
    n = len(w)
    dOm = 2.0 * math.pi / (n * dt)
    omega, phihat = white_spectrum(w, dt)
    om_s = np.fft.fftshift(omega)
    ph_s = np.fft.fftshift(phihat)
    in_D = np.ones(n, dtype=bool)
    for m in centers:
        in_D &= np.abs(om_s - m) > delta
    sOm, two_a, b = _kernel_factors(om_s, +1)
    om_r, ph_r, b_r, in_D_r = om_s[::-1], ph_s[::-1], b[::-1], in_D[::-1]
    L = _strip_offsets(n * dt, delta)
    lbins = np.arange(-L, L + 1)
    psit_p = np.zeros(len(lbins), dtype=complex)

    def fill(first: int, last: int) -> None:
        rows = np.empty((3, n))
        terms = np.empty(n, dtype=complex)
        keep = np.empty(n, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for pos in range(first, last):
                c = lbins[pos] + 2 * (n // 2)
                lo, hi = max(0, c - n + 1), min(n, c + 1)
                j = slice(lo, hi)
                p = slice(lo + n - 1 - c, hi + n - 1 - c)   # om_r[p] is om_s[c - j]
                k = hi - lo
                K = _kernel_of_factors(om_s[j], om_r[p], sOm[j], two_a[j], b_r[p], +1,
                                       rows[:, :k])
                t = np.multiply(ph_s[j], ph_r[p], out=terms[:k])
                np.multiply(K, t, out=t)
                kept = np.logical_and(in_D[j], in_D_r[p], out=keep[:k])
                psit_p[pos] = dOm * np.sum(t[kept])

    mc.in_processes(len(lbins), fill, lambda first, last: psit_p[first:last])
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
    c_i are the reported constants; a record whose psi_plus has a constant
    real or imaginary part (a zero strip, say) is refused, as its scale is
    zero.
    """
    check_half_width(delta)
    check_step(dt, 2.0, delta)
    check_white(w)
    check_record(len(w) * dt, delta)
    lbins, psit_p = _resonant_strip(w, dt, delta, (-2.0, 0.0, 2.0))
    # psi_plus(t_k) = dOm sum_l psit_p[l] exp(i l dOm t_k) with t_k = k dt and
    # dOm = 2 pi / (n dt): an inverse DFT of the strip, scaled by dOm n.
    strip = np.zeros(len(w), dtype=complex)
    strip[lbins % len(w)] = psit_p
    psi_plus = (2.0 * math.pi / dt) * np.fft.ifft(strip)
    c_r = float(np.std(psi_plus.real))
    c_i = float(np.std(psi_plus.imag))
    if c_r == 0 or c_i == 0:
        raise ValueError(f"the quadratic noise of this record has a zero scale "
                         f"(c_r = {c_r:g}, c_i = {c_i:g}): its real or imaginary "
                         f"part is constant, and psi_r, psi_i would divide by zero")
    return QuadNoise(psi_plus, psi_plus.real / c_r, psi_plus.imag / c_i,
                     c_r, c_i, dt)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Normalised autocorrelation of a (possibly complex) process at the
    lags 0 .. max_lag, with 0 <= max_lag < len(x).  The record must be
    one-dimensional and finite (``check_white``)."""
    check_white(x)
    if not 0 <= max_lag <= len(x) - 1:
        raise ValueError(f"max_lag must lie in [0, {len(x) - 1}], got {max_lag}")
    x = x - x.mean()
    denom = float(np.mean(np.abs(x) ** 2))
    if denom == 0:
        raise ValueError("the record has zero variance: a constant record has "
                         "no normalised autocorrelation")
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        if lag:
            out[lag] = float(np.mean((x[:-lag] * np.conj(x[lag:])).real)) / denom
        else:
            out[lag] = 1.0
    return out
