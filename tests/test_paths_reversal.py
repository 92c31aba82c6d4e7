"""Anticipating filters are the memory filters run on reversed time: the
sampler's output equals the direct backward recursion bit for bit."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.signal import lfilter

from snf import noise
from snf.paths import SPINUP_TIME_CONSTANTS, NoisePath, PathSampler

F = Fraction
PHI = noise.phi_atom(0)


def _backward(path, mu, driver, lo, hi):
    """z_n = a z_{n+1} + driver_n from the end of the grid, a = exp(-mu dt)."""
    a = math.exp(-mu * path.dt)
    z = np.empty(path.n_points)
    z[-1] = 0.0
    z[:-1] = lfilter([1.0], [1.0, -a], driver[::-1])[::-1]
    trim = int(math.ceil(SPINUP_TIME_CONSTANTS / (mu * path.dt)))
    return z, lo, hi - trim


def _backward_dw(path, mu, k):
    a = math.exp(-mu * path.dt)
    c = math.sqrt((1.0 - a * a) / (2.0 * mu) / path.dt)
    return _backward(path, mu, c * path.increments[k], 0, path.n_total)


def _backward_signal(path, mu, f):
    a = math.exp(-mu * path.dt)
    v = f.values
    return _backward(path, mu, (a * v[1:] + v[:-1]) * (path.dt / 2.0),
                     f.valid_lo, f.valid_hi)


@pytest.fixture(scope="module")
def path():
    return NoisePath.generate(20.0, 1e-3, seed=11, spin=30.0, trim=30.0)


def _check(sample, ref):
    values, lo, hi = ref
    assert np.array_equal(sample.values, values)
    assert (sample.valid_lo, sample.valid_hi) == (lo, hi)


def test_anticipating_filter_of_white_noise(path):
    expr = (noise.z_atom(F(1), (PHI,)),)
    _check(PathSampler(path).expr(expr), _backward_dw(path, 1.0, 0))


def test_anticipating_filter_of_an_anticipating_signal(path):
    inner = (noise.z_atom(F(2), (PHI,)),)
    expr = (noise.z_atom(F(1), inner),)
    sampler = PathSampler(path)
    ref = _backward_signal(path, 1.0, sampler.expr(inner))
    _check(sampler.expr(expr), ref)
    _check(sampler.expr(inner), _backward_dw(path, 2.0, 0))


def test_anticipating_filter_of_a_memory_signal(path):
    inner = (noise.z_atom(F(-1), (PHI,)),)
    expr = (noise.z_atom(F(1, 2), inner),)
    sampler = PathSampler(path)
    _check(sampler.expr(expr), _backward_signal(path, 0.5, sampler.expr(inner)))


def test_anticipating_filter_of_a_two_driver_product(path):
    inner = noise.product(noise.z_atom(F(-1), (PHI,)), noise.z_atom(F(-2), (PHI,)))
    expr = (noise.z_atom(F(1), inner),)
    sampler = PathSampler(path)
    _check(sampler.expr(expr), _backward_signal(path, 1.0, sampler.expr(inner)))
