"""Band-limited noise components and the quadratic resonant noise."""

import math
import os
import re
import warnings

import numpy as np
import pytest

import snf.bands
from conftest import counting_forks, no_child_left
from snf import mc
from snf.bands import (autocorrelation, band_component, kernel_limit,
                       quad_resonant_noise, white_spectrum, _kernel,
                       _resonant_strip, _strip_offsets)

DT, T, DELTA = 0.05, 2000.0, 0.2
N = int(T / DT)


def white(seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(N) / math.sqrt(DT)


def test_band_unit_variance():
    vs = []
    for seed in range(6):
        w = white(seed)
        vs.append(band_component(w, DT, 0.0, DELTA).sample_variance())
        vs.append(band_component(w, DT, 2.0, DELTA).sample_variance())
    assert 0.8 < np.mean(vs) < 1.2


def test_band_independence():
    cross = []
    for seed in range(6):
        w = white(seed + 50)
        p0 = band_component(w, DT, 0.0, DELTA)
        p2 = band_component(w, DT, 2.0, DELTA)
        cross.append(np.mean(p0.values * np.conj(p2.values)))
    m = np.mean(cross)
    se = np.std([c.real for c in cross], ddof=1) / math.sqrt(len(cross))
    assert abs(m.real) < 3 * se + 0.05


def test_conjugate_band_pair():
    w = white(3)
    p2 = band_component(w, DT, 2.0, DELTA)
    m2 = band_component(w, DT, -2.0, DELTA)
    assert np.max(np.abs(m2.values - np.conj(p2.values))) < 1e-10


def test_band_of_deterministic_cosine():
    # For phi = cos 2t the frequency-2 band captures the whole line and the
    # zero band nothing.  Under the unit-variance normalisation used here
    # the line's band amplitude is sqrt(2 pi)/2; the radian-frequency
    # spectral convention that would give exactly 1/2 is incompatible with
    # E|phi_m|^2 = 1 (see the band module docstring).
    t = np.arange(N) * DT
    w = np.cos(2.0 * t)
    p2 = band_component(w, DT, 2.0, DELTA)
    p0 = band_component(w, DT, 0.0, DELTA)
    got = math.sqrt(2 * DELTA) * np.mean(p2.values).real
    assert abs(got - math.sqrt(2 * math.pi) / 2) < 0.02
    assert np.max(np.abs(p0.values)) < 0.1


def test_band_overlap_rejected():
    with pytest.raises(ValueError):
        band_component(white(1), DT, 0.0, 1.0)


@pytest.mark.parametrize("delta", [0.0, -0.2])
def test_band_without_width_rejected(delta):
    # used to end in ZeroDivisionError (0) or a math domain error (< 0)
    with pytest.raises(ValueError, match=r"the band half-width must lie in \(0, 1\)"):
        band_component(white(1), DT, 0.0, delta)


def test_quad_noise_refuses_a_record_too_short_for_the_strip():
    # T = 5 < 2 pi / 0.2: the strip held only the zero offset, and the
    # scales came out at rounding level (c_r about 1.7e-16)
    rng = np.random.default_rng(4)
    n = int(5.0 / DT)
    with pytest.raises(ValueError, match=r"need T >= 2\*pi/delta = 31.42, .*; got 5$"):
        quad_resonant_noise(rng.standard_normal(n) / math.sqrt(DT), DT, DELTA)
    with pytest.raises(ValueError, match=r"half-width"):
        quad_resonant_noise(rng.standard_normal(n) / math.sqrt(DT), DT, 0.0)
    # the shortest record accepted resolves the offsets -1, 0 and 1
    n = math.ceil(2 * math.pi / DELTA / DT)
    w = rng.standard_normal(n) / math.sqrt(DT)
    q = quad_resonant_noise(w, DT, DELTA)
    assert list(_resonant_strip(w, DT, DELTA, (-2.0, 0.0, 2.0))[0]) == [-1, 0, 1]
    assert q.c_r > 1e-3 and q.c_i > 1e-3


@pytest.mark.parametrize("dt", [0.0, -0.05, math.nan, math.inf])
def test_band_refuses_a_step_that_is_not_positive_and_finite(dt):
    # 0 used to end in ZeroDivisionError, -0.05 gave a variance (0.0536 on a
    # unit white record) and nan gave nan
    w = white(1)[:1000]
    with pytest.raises(ValueError, match=r"need 0 < dt < pi/\(2 \+ delta\) = 1.428, "
                                         r"so that the frequency-2 band lies below "
                                         rf"Nyquist; got {dt:g}$"):
        band_component(w, dt, 2.0, DELTA)
    with pytest.raises(ValueError, match=r"need 0 < dt < pi/\(2 \+ delta\)"):
        quad_resonant_noise(w, dt, DELTA)


def test_band_refuses_a_band_that_reaches_nyquist():
    # pi/dt = 2.09: the band at 2 would reach above Nyquist, the one at 0 not
    w = white(1)
    with pytest.raises(ValueError, match=r"need 0 < dt < pi/\(2 \+ delta\) = 1.428, .*"
                                         r"; got 1.5$"):
        band_component(w, 1.5, 2.0, DELTA)
    band_component(w, 1.5, 0.0, DELTA)
    # the quadratic noise's bands reach 2 + delta whatever m it is asked for
    with pytest.raises(ValueError, match=r"pi/\(2 \+ delta\) = 1.428"):
        quad_resonant_noise(w, 1.5, DELTA)
    with pytest.raises(ValueError, match=r"pi/\(0 \+ delta\) = 15.71"):
        band_component(w, 16.0, 0.0, DELTA)


@pytest.mark.parametrize("max_lag", [-1, 100])
def test_autocorrelation_refuses_a_lag_outside_the_record(max_lag):
    # 100 used to warn of a mean of an empty slice and give nan at that lag;
    # -1 ended in numpy's negative dimensions
    with pytest.raises(ValueError, match=rf"max_lag must lie in \[0, 99\], got {max_lag}$"):
        autocorrelation(white(1)[:100], max_lag)
    assert autocorrelation(white(1)[:100], 99)[0] == 1.0


def test_autocorrelation_scale():
    # decays on the 1/delta scale: near sinc(delta * lag)
    w = white(11)
    p0 = band_component(w, DT, 0.0, DELTA)
    ac = autocorrelation(p0.values, int(8 / DELTA / DT))
    lag1 = int(1 / DELTA / DT)
    assert ac[lag1] > 0.6                       # still correlated at 1/delta
    tail = ac[int(6 / DELTA / DT):]
    assert np.max(np.abs(tail)) < 0.35          # near zero for lags >> 1/delta


def test_kernel_reparametrised_limit():
    om = np.linspace(-5, 5, 41)
    om = om[np.all(np.abs(om[:, None] - np.array([-2.0, 0.0, 2.0])) > 0.3, axis=1)]
    # K(Omega, Omegatilde) at Omegatilde = -Omega + eps approaches the
    # advertised limit 1/((omega+2)(omega-2))
    for sign in (+1, -1):
        got = _kernel(om, -om + 1e-10, sign)
        assert np.max(np.abs(got - kernel_limit(om))) < 1e-6


def _kernel_expression(Om, Omt, sign):
    """K_pm as one numpy expression per factor, kept as the reference for
    the kernel formed in scratch rows."""
    s = float(sign)
    S = Om + Omt
    num = -(S + (s * Om) * Omt) * (S + s * 2.0)
    den = (2.0 * (Om + s * 2.0)) * (Omt + s * 2.0) * Om * Omt
    return num / den


@pytest.mark.parametrize("sign", [+1, -1])
def test_kernel_in_scratch_rows_is_the_expression_bit_for_bit(sign):
    rng = np.random.default_rng(12)
    Om, Omt = rng.uniform(-6.0, 6.0, (2, 5001))
    want = _kernel_expression(Om, Omt, sign)
    assert _kernel(Om, Omt, sign).tobytes() == want.tobytes()
    # and in rows that are views of a larger block, as the strip's workers use
    rows = np.empty((3, 6000))
    sOm, two_a, _ = snf.bands._kernel_factors(Om, sign)
    _, _, bt = snf.bands._kernel_factors(Omt, sign)
    got = snf.bands._kernel_of_factors(Om, Omt, sOm, two_a, bt, sign, rows[:, :5001])
    assert got.tobytes() == want.tobytes()


def test_quad_noise_constants_and_normalisation():
    crs, cis = [], []
    for seed in range(5):
        q = quad_resonant_noise(white(seed + 100), DT, DELTA)
        crs.append(q.c_r)
        cis.append(q.c_i)
        assert abs(np.std(q.psi_r) - 1.0) < 1e-9
        assert abs(np.std(q.psi_i) - 1.0) < 1e-9
    assert 0.75 < np.mean(crs) < 1.05
    assert 0.12 < np.mean(cis) < 0.30


def test_quad_noise_slowly_varying():
    q = quad_resonant_noise(white(200), DT, DELTA)
    # over one fast period (2 pi) the process moves much less than its spread
    lag = int(2 * math.pi / DT)
    step = np.abs(q.psi_plus[lag:] - q.psi_plus[:-lag])
    assert np.mean(step) < 0.8 * np.std(q.psi_plus)


def test_sqrt_delta_scaling_of_band_forcing():
    # the model's band-noise terms carry sqrt(delta/2) against unit-variance
    # phi_m: their magnitude must scale as sqrt(delta) when delta varies
    deltas = [0.05, 0.1, 0.2, 0.4]
    mags = []
    for d in deltas:
        vals = []
        for seed in range(4):
            w = white(300 + seed)
            p0 = band_component(w, DT, 0.0, d)
            vals.append(np.std(math.sqrt(d / 2) * p0.values.real))
        mags.append(np.mean(vals))
    slope = np.polyfit(np.log(deltas), np.log(mags), 1)[0]
    assert abs(slope - 0.5) < 0.1


def test_spectrum_parseval():
    # unitary convention: integral |phihat|^2 dOmega = integral w^2 dt
    w = white(7)
    _om, ph = white_spectrum(w, DT)
    dOm = 2 * math.pi / T
    lhs = np.sum(np.abs(ph) ** 2) * dOm
    rhs = np.sum(w ** 2) * DT
    assert abs(lhs - rhs) < 1e-6 * rhs


def test_quad_noise_inverse_fft_equals_phase_matrix_sum():
    # psi_plus(t_k) = dOmega sum_l psitilde_+(l dOmega) exp(i l dOmega t_k),
    # summed directly over an n x (2L+1) phase matrix on a short record
    n = 4000
    w = white(11)[:n]
    lbins, psit = _resonant_strip(w, DT, DELTA, (-2.0, 0.0, 2.0))
    assert len(lbins) > 1
    d_om = 2 * math.pi / (n * DT)
    t = np.arange(n) * DT
    direct = d_om * np.exp(1j * np.outer(t, lbins * d_om)) @ psit
    got = quad_resonant_noise(w, DT, DELTA).psi_plus
    assert np.max(np.abs(got - direct)) < 1e-12 * np.max(np.abs(direct))


def _index_strip(w, dt, delta, centers):
    """The resonant strip as index arithmetic over all n bins at each offset,
    kept as the reference for the sliced ``_resonant_strip``."""
    n = len(w)
    dOm = 2.0 * math.pi / (n * dt)
    omega, phihat = white_spectrum(w, dt)
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


@pytest.mark.parametrize("n", [40000, 40001, 4001])
@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
def test_sliced_strip_is_the_index_strip_bit_for_bit(n, delta):
    for seed in (5, 6):
        w = np.random.default_rng(seed).standard_normal(n) / math.sqrt(DT)
        want = _index_strip(w, DT, delta, (-2.0, 0.0, 2.0))
        got = _resonant_strip(w, DT, delta, (-2.0, 0.0, 2.0))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_sliced_strip_of_the_shortest_record_is_the_index_strip():
    # the shortest record accepted, L = 1, at an even and an odd length
    n = math.ceil(2 * math.pi / DELTA / DT)
    for m in (n, n + 1):
        w = np.random.default_rng(m).standard_normal(m) / math.sqrt(DT)
        want = _index_strip(w, DT, DELTA, (-2.0, 0.0, 2.0))
        got = _resonant_strip(w, DT, DELTA, (-2.0, 0.0, 2.0))
        assert list(got[0]) == [-1, 0, 1]
        assert got[1].tobytes() == want[1].tobytes()


def test_shifted_order_is_the_rounded_argsort():
    # fftshift is the permutation that sorts the rounded bin indices
    for n in (4000, 4001):
        omega = 2 * math.pi * np.fft.fftfreq(n, d=DT)
        order = np.argsort(np.round(omega / (2 * math.pi / (n * DT))).astype(int))
        assert np.array_equal(np.fft.fftshift(np.arange(n)), order)


# -- the strip's offsets split across processes --------------------------------

@pytest.mark.parametrize("n", [40000, 40001, 4001, math.ceil(2 * math.pi / DELTA / DT)])
def test_strip_is_the_index_strip_bit_for_bit_in_any_number_of_processes(n, monkeypatch):
    w = np.random.default_rng(n).standard_normal(n) / math.sqrt(DT)
    want = _index_strip(w, DT, DELTA, (-2.0, 0.0, 2.0))
    forks = counting_forks(monkeypatch)
    for cpus in (1, 2, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        forks.clear()
        got = _resonant_strip(w, DT, DELTA, (-2.0, 0.0, 2.0))
        assert len(forks) == min(cpus, len(want[0])) - 1
        no_child_left()
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_strip_names_a_worker_error(monkeypatch):
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    parent, kernel = os.getpid(), snf.bands._kernel_of_factors

    def failing(*args):
        if os.getpid() != parent:
            raise FloatingPointError("kernel refused in the worker")
        return kernel(*args)

    monkeypatch.setattr(snf.bands, "_kernel_of_factors", failing)
    with pytest.raises(RuntimeError, match="^a worker process failed: "
                                           "FloatingPointError: kernel refused in the worker$"):
        quad_resonant_noise(white(1), DT, DELTA)
    no_child_left()


# -- refusals of records -------------------------------------------------------

def test_quad_noise_refuses_a_record_with_a_zero_scale():
    # used to return nan psi_r and psi_i with two invalid-value warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^the quadratic noise of this record has a "
                                             r"zero scale \(c_r = 0, c_i = 0\)"):
            quad_resonant_noise(np.zeros(N), DT, DELTA)


@pytest.fixture
def no_transform(monkeypatch):
    """Fail any FFT or fork: a refusal must come before either."""
    def refused(*_args, **_kw):
        raise AssertionError("transformed or forked before refusing the record")

    monkeypatch.setattr(np.fft, "fft", refused)
    monkeypatch.setattr(os, "fork", refused)


@pytest.mark.parametrize("shape", [(2, N // 2), (N // 2, 2), ()])
def test_bands_refuse_a_record_that_is_not_one_dimensional(shape, no_transform):
    # (2, N/2) used to fail inside numpy's broadcasting, or was refused as
    # a record of length T = 0.1
    w = np.ones(shape)
    msg = "^" + re.escape(f"the white-noise record must be one-dimensional, got shape {shape}") + "$"
    with pytest.raises(ValueError, match=msg):
        band_component(w, DT, 0.0, DELTA)
    with pytest.raises(ValueError, match=msg):
        quad_resonant_noise(w, DT, DELTA)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bands_refuse_a_record_that_is_not_finite(bad, no_transform):
    # a nan used to give non-finite values silently
    w = np.ones(N)
    w[[17, 900]] = bad
    msg = rf"^the white-noise record must be finite: 2 of its {N} samples are not, the first at index 17$"
    with pytest.raises(ValueError, match=msg):
        band_component(w, DT, 2.0, DELTA)
    with pytest.raises(ValueError, match=msg):
        quad_resonant_noise(w, DT, DELTA)


@pytest.mark.parametrize("x,message", [
    (np.ones((4, 3)), "one-dimensional, got shape (4, 3)"),
    (np.array([1.0, 2.0, math.nan, 0.5]),
     "finite: 1 of its 4 samples are not, the first at index 2"),
    (np.array([1.0, complex(0.5, math.inf), 2.0, 0.5]),
     "finite: 1 of its 4 samples are not, the first at index 1"),
], ids=["2-d", "nan", "complex-inf"])
def test_autocorrelation_refuses_a_record_that_is_not_one_dimensional_and_finite(
        x, message):
    # a (4, 3) record used to give three numbers, a nan record nans
    with pytest.raises(ValueError, match="^" + re.escape(
            f"the white-noise record must be {message}") + "$"):
        autocorrelation(x, 2)


def test_autocorrelation_refuses_a_record_of_zero_variance():
    # used to end in a bare ZeroDivisionError
    for x in (np.full(100, 3.0), np.full(100, 1.0 - 2.0j)):
        with pytest.raises(ValueError, match=r"^the record has zero variance"):
            autocorrelation(x, 5)
