"""Discretised Brownian paths and exponentially filtered noise samples.

A path carries increments ``dW ~ N(0, dt)`` on a grid that extends beyond
the working window ``[0, T]`` by a spin-up prefix and a trim suffix, so that
memory convolutions (rate < 0, filtered forward) and anticipatory
convolutions (rate > 0, filtered backward from the end) are stationary over
the whole working window.  The filter is the one of ``snf.mc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import noise
from .mc import (SPINUP_TIME_CONSTANTS, compile_series, filter_weights,
                 run_filter, trapezoid_input)
from .noise import Expr, ONE
from .render import render_noise


class IllFormedForSampling(ValueError):
    """A product without pointwise values, or a path too short to sample it."""


@dataclass
class NoisePath:
    """Brownian increments on [-spin, T + trim] for ``n_noise`` symbols."""
    dt: float
    n_main: int
    n_spin: int
    n_trim: int
    increments: np.ndarray      # shape (n_noise, n_total)
    seed: int

    @classmethod
    def generate(cls, T: float, dt: float, n_noise: int = 1, seed: int = 0,
                 spin: float = 30.0, trim: float = 0.0) -> "NoisePath":
        if T <= 0 or dt <= 0:
            raise ValueError("need positive T and dt")
        n_main = int(round(T / dt))
        n_spin = int(math.ceil(spin / dt)) if spin else 0
        n_trim = int(math.ceil(trim / dt)) if trim else 0
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        total = n_spin + n_main + n_trim
        inc = rng.standard_normal((n_noise, total)) * math.sqrt(dt)
        return cls(dt, n_main, n_spin, n_trim, inc, seed)

    @property
    def n_total(self) -> int:
        return self.increments.shape[1]

    @property
    def n_points(self) -> int:
        return self.n_total + 1

    def times(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_spin) * self.dt

    @property
    def main_lo(self) -> int:
        return self.n_spin

    @property
    def main_hi(self) -> int:
        return self.n_spin + self.n_main

    def main_slice(self) -> slice:
        return slice(self.main_lo, self.main_hi + 1)

    def reversed(self) -> "NoisePath":
        return NoisePath(self.dt, self.n_main, self.n_trim, self.n_spin,
                         self.increments[:, ::-1].copy(), self.seed)


@dataclass
class ConvolutionSample:
    """A filtered-noise trajectory on the path grid with its valid window."""
    rate: Fraction
    values: np.ndarray
    valid_lo: int
    valid_hi: int

    def main_values(self, path: NoisePath) -> np.ndarray:
        if self.valid_lo > path.main_lo or self.valid_hi < path.main_hi:
            raise IllFormedForSampling(
                "path too short for the spin-up/trim windows of this expression")
        return self.values[path.main_slice()]


def _forward(path: NoisePath, mu: float, a: float, x, lo: int, hi: int) -> ConvolutionSample:
    # from zero at the first grid point; valid ten time constants after lo
    z = np.concatenate(([0.0], run_filter(a, x)))
    spin = int(math.ceil(SPINUP_TIME_CONSTANTS / (abs(mu) * path.dt)))
    return ConvolutionSample(Fraction(mu), z, lo + spin, hi)


def _filter_forward_dw(path: NoisePath, mu: float, k: int) -> ConvolutionSample:
    a, c = filter_weights(mu, path.dt)
    return _forward(path, mu, a, c * path.increments[k], 0, path.n_total)


def _filter_forward_signal(path: NoisePath, mu: float,
                           f: ConvolutionSample) -> ConvolutionSample:
    a, _c = filter_weights(mu, path.dt)
    x = trapezoid_input(a, f.values[:-1], f.values[1:], path.dt)
    return _forward(path, mu, a, x, f.valid_lo, f.valid_hi)


def _mirror(s: ConvolutionSample, n_total: int) -> ConvolutionSample:
    """The same sample on the time-reversed grid (point i <-> n_total - i),
    with the rate negated."""
    return ConvolutionSample(-s.rate, s.values[::-1], n_total - s.valid_hi,
                             n_total - s.valid_lo)


class PathSampler:
    """Evaluates pointwise noise products on a path, caching filters."""

    def __init__(self, path: NoisePath):
        self.path = path
        self._cache: Dict[Expr, ConvolutionSample] = {}

    def atom(self, a) -> ConvolutionSample:
        return self.expr((a,))

    def expr(self, expr: Expr) -> ConvolutionSample:
        if expr in self._cache:
            return self._cache[expr]
        if expr == ONE:
            out = ConvolutionSample(Fraction(0), np.ones(self.path.n_points),
                                    0, self.path.n_total)
        elif len(expr) == 1:
            out = self._single(expr[0])
        else:
            parts = [self.expr((a,)) for a in expr]
            vals = parts[0].values.copy()
            for p in parts[1:]:
                vals *= p.values
            out = ConvolutionSample(Fraction(0), vals,
                                    max(p.valid_lo for p in parts),
                                    min(p.valid_hi for p in parts))
        self._cache[expr] = out
        return out

    def _single(self, a) -> ConvolutionSample:
        if not noise.pointwise((a,)):
            raise IllFormedForSampling(f"no pointwise values: {render_noise((a,))}")
        mu, child = float(a[1]), a[2]
        path, n = self.path, self.path.n_total
        ks, _rest = noise.split_bare(child)
        if ks:
            if mu < 0:
                return _filter_forward_dw(path, mu, ks[0])
            # An anticipating filter is the memory filter on reversed time.
            return _mirror(_filter_forward_dw(path.reversed(), -mu, ks[0]), n)
        inner = self.expr(child)
        if mu < 0:
            return _filter_forward_signal(path, mu, inner)
        return _mirror(_filter_forward_signal(path, -mu, _mirror(inner, n)), n)


def sample_convolution(path: NoisePath, expr: Expr) -> ConvolutionSample:
    """Pointwise values of a noise product on the path grid."""
    return PathSampler(path).expr(expr)


class _AtomSlots(list):
    """Convolution atoms of either rate sign, numbered for compile_series."""

    def slot_for(self, atom) -> int:
        if atom not in self:
            self.append(atom)
        return self.index(atom)


def evaluate_series(sampler: PathSampler, series, params: Dict[str, float],
                    slow: Sequence, fast: Sequence) -> np.ndarray:
    """Pointwise values of a series along the path grid.

    ``slow``/``fast`` supply one scalar or grid-length array per variable;
    parameters are numeric.  The series is compiled like a simulation
    observable, with its convolution factors sampled on the path.
    """
    for (_mono, expr), _c in series.terms.items():
        if not noise.pointwise(expr):
            raise IllFormedForSampling(f"no pointwise values: {render_noise(expr)}")
    slots = _AtomSlots()
    sde = compile_series([series], ("value",),
                         lambda mono: tuple(mono[0]) + tuple(mono[1]), params,
                         series.dims.params, series.dims.noises, bank=slots)
    n = sampler.path.n_points
    state = np.array([np.broadcast_to(v, n) for v in (*slow, *fast)]).reshape(-1, n)
    z = np.array([sampler.atom(a).values for a in slots]).reshape(-1, n)
    return sde.rates(state, z)[0][0]


def integrate_expression(path: NoisePath, terms: Sequence[Tuple[float, Expr]],
                         sampler: Optional[PathSampler] = None) -> np.ndarray:
    """Cumulative Stratonovich integral of sum_i c_i expr_i over the grid.

    Terms with one top-level bare factor integrate against the matching dW
    with the midpoint value of the remaining factors; bare-free terms
    integrate against dt by the trapezoid rule.  Returns an array over grid
    points; the result is the pathwise meaning of the expression as a rate.
    """
    sampler = sampler or PathSampler(path)
    n = path.n_total
    incr = np.zeros(n)
    for c, expr in terms:
        ks, rest = noise.split_bare(expr)
        if len(ks) > 1:
            raise IllFormedForSampling(
                f"two bare factors cannot be integrated: {render_noise(expr)}")
        r = sampler.expr(rest).values
        step = path.increments[ks[0]] if ks else path.dt
        incr += c * 0.5 * (r[:-1] + r[1:]) * step
    out = np.empty(path.n_points)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out
