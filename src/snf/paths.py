"""Discretised Brownian paths and exponentially filtered noise samples.

A path carries increments ``dW ~ N(0, dt)`` on a grid that extends beyond
the working window ``[0, T]`` by a spin-up prefix and a trim suffix, so that
memory convolutions (rate < 0, filtered forward) and anticipatory
convolutions (rate > 0, filtered backward from the end) are stationary over
the whole working window.  A ``PathSampler`` filters the slots of its own
``snf.mc.FilterSlots``, the decomposition the ensemble filter bank steps,
with the filter of ``snf.mc``: a memory slot along the path, an
anticipating slot as the memory filter on reversed time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import noise
from .mc import (SPINUP_TIME_CONSTANTS, FilterSlot, FilterSlots, compile_series,
                 filter_weights, horizon_steps, run_filter, trapezoid_input)
from .noise import Expr
from .render import render_noise
from .systems import IllFormedForSampling


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
        """A path whose window [0, T] is a whole number of steps of dt, one
        at least (``mc.horizon_steps``: ValueError otherwise); spin-up and
        trim are lower bounds, rounded up to whole steps."""
        n_main = horizon_steps(T, dt)
        for name, v in (("spin", spin), ("trim", trim), ("n_noise", n_noise)):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"need non-negative finite {name}, got {v:g}")
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

    @property
    def main_lo(self) -> int:
        return self.n_spin

    @property
    def main_hi(self) -> int:
        return self.n_spin + self.n_main

    def main_slice(self) -> slice:
        return slice(self.main_lo, self.main_hi + 1)

    def check_noises(self, expr: Expr) -> None:
        """Refuse, by IllFormedForSampling naming it, an atom of ``expr``
        driven by a noise this path does not carry."""
        n = len(self.increments)
        for atom in expr:
            if max(noise.symbols_of((atom,)), default=-1) >= n:
                raise IllFormedForSampling(
                    f"{render_noise((atom,))}: the path carries {n} noise(s)")


@dataclass
class ConvolutionSample:
    """A filtered-noise trajectory on the path grid with its valid window."""
    values: np.ndarray
    valid_lo: int
    valid_hi: int

    def main_values(self, path: NoisePath) -> np.ndarray:
        if self.valid_lo > path.main_lo or self.valid_hi < path.main_hi:
            raise IllFormedForSampling(
                "path too short for the spin-up/trim windows of this expression")
        return self.values[path.main_slice()]


class PathSampler:
    """Evaluates pointwise noise products on a path: each convolution atom
    is a slot of ``slots``, filtered once along the path."""

    def __init__(self, path: NoisePath):
        self.path = path
        self.slots = FilterSlots()
        self.samples: List[ConvolutionSample] = []
        self._cache: Dict[Expr, ConvolutionSample] = {}

    def slot_for(self, atom) -> int:
        """The atom's slot; every slot this adds is filtered, drivers first.
        An atom of a noise the path does not carry is refused by name."""
        self.path.check_noises((atom,))
        i = self.slots.slot_for(atom)
        for s in self.slots.slots[len(self.samples):]:
            self.samples.append(self._filter(s))
        return i

    def expr(self, expr: Expr) -> ConvolutionSample:
        if expr not in self._cache:
            self._cache[expr] = self._product([self.slot_for(a) for a in expr])
        return self._cache[expr]

    def _product(self, slots: Sequence[int]) -> ConvolutionSample:
        parts = [self.samples[i] for i in slots]
        if len(parts) == 1:
            return parts[0]
        vals = np.ones(self.path.n_points)
        for p in parts:
            vals *= p.values
        return ConvolutionSample(vals, max((p.valid_lo for p in parts), default=0),
                                 min((p.valid_hi for p in parts),
                                     default=self.path.n_total))

    def _filter(self, s: FilterSlot) -> ConvolutionSample:
        """A memory slot filtered forward from zero at the first grid point,
        valid ten time constants after its input's window opens; an
        anticipating slot the same on reversed time (d = -1), valid until
        ten time constants before its input's window closes."""
        path, d = self.path, 1 if s.rate < 0 else -1
        a, c = filter_weights(-abs(s.rate), path.dt)
        if s.driver_kind == "w":
            x, lo, hi = c * path.increments[s.driver_k, ::d], 0, path.n_total
        else:
            u = self._product(s.driver_slots)
            r = u.values[::d]
            x, lo, hi = trapezoid_input(a, r[:-1], r[1:], path.dt), u.valid_lo, u.valid_hi
        z = np.concatenate(([0.0], run_filter(a, x)))[::d]
        spin = int(math.ceil(SPINUP_TIME_CONSTANTS / (abs(s.rate) * path.dt)))
        return (ConvolutionSample(z, lo + spin, hi) if d == 1
                else ConvolutionSample(z, lo, hi - spin))


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
    sde = compile_series([series], ("value",),
                         lambda mono: tuple(mono[0]) + tuple(mono[1]), params,
                         series.dims.params, series.dims.noises, bank=sampler)
    n = sampler.path.n_points
    state = np.array([np.broadcast_to(v, n) for v in (*slow, *fast)]).reshape(-1, n)
    z = [s.values for s in sampler.samples]
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
        path.check_noises(expr)
        r = sampler.expr(rest).values
        step = path.increments[ks[0]] if ks else path.dt
        incr += c * 0.5 * (r[:-1] + r[1:]) * step
    out = np.empty(path.n_points)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out
