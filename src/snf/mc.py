"""Stratonovich Monte Carlo: compiled SDE models, Heun stepping, ensembles.

A series-defined evolution compiles to drift/diffusion term lists over a
numeric state vector, and to their plan, which each model turns once into
straight-line numpy code, its ``rates_kernel``: each distinct state power
once per call, then one statement per term, its coefficient times its
factors added into its row, in term order.  ``CompiledSDE.rates`` calls it.
The kernel is the package's one piece of generated code.  Memory convolutions
appearing as coefficients become a bank of exponential filters: the
package's one decomposition of an atom into filter slots (``FilterSlots``,
which ``snf.paths`` samples along a path too), each slot the package's one
filter (``filter_weights``, ``trapezoid_input``, ``run_filter``).  The
slots linear in the noise (a filtered Brownian motion, or a filter of one
such slot) start from the exact stationary law of their discrete
recursion, a Gaussian whose covariance solves a discrete Lyapunov
equation.  The other slots, the filters of products, start at their exact
stationary mean (``noise.expectation``) and spin up before time zero until
their second moments settle (``FilterSlots.slot_for``).  Driven by noise
alone, the bank advances a block of steps at a time: each slot's input over
the block is one vectorised expression, and the recursion then steps
time-major, one run of mutually independent slots at a time, across every
replicate at once.  The block's output and scratch rows are one workspace
that the bank keeps for its replicate width, so a block it returns is valid
until its next step.  The state is stepped one step at a time inside the
block.

A replicate chunk is one random stream: replicates are split into chunks,
each drawing from its own stream spawned from the master seed, so results
are reproducible from the master seed and independent across replicates.
A chunk draws its linear slots' stationary start first (its product slots
start at their means and draw nothing), then its warm-up, then its horizon
increments.  The chunks are split into contiguous groups, at most one per
usable CPU (``in_processes``, the package's one process runner, which also
splits the Hopf lab's paths and the band lab's resonant-strip offsets); the
calling process steps the first group and a forked child each other one,
each bound to its own CPU, the child sending its samples back through a
pipe.  Warm-up and
horizon step a group's chunks as one array, in blocks of the same size,
each chunk's increments filling its own columns.  A chunk draws each
block's increments in one call into a buffer of its own, which consumes its
stream exactly as one draw per step would, and scales them into its columns
of one increment block reused throughout.  So a replicate's samples are the
same bits however many chunks step beside it and however many processes
share them.  Threads could not share the work: numpy's ``standard_normal``
holds the GIL while it fills a buffer, and the draws take about a third
of an ensemble's time (32-34 % of a ``perfbench`` ensemble round stepped
in one process).

Heun (explicit midpoint) stepping: terms carrying one bare noise factor
contribute coefficient * dW, terms without contribute coefficient * dt, and
the corrector averages coefficients at the step's two ends, which is what
makes the scheme converge to the Stratonovich solution.  The noise term
sums over the noises in order from +0.0 (``noise_sum``), the bits of an
einsum over them.  The step is written once, in ``heun_path``'s loop,
which single paths walk and ensembles call one step at a time.  Every path
walker takes its step through ``check_step`` and its horizon through
``horizon_steps``.

``run_filter`` is ``scipy.signal.lfilter``, imported at its first call and
not with this module.  Only path sampling runs it; ensembles step the bank
themselves.  Importing it up front made ``scipy.signal`` (and with it
``scipy.stats``) most of the start-up time and memory of every process that
imports this module, ``snf simulate``, ``compare`` and ``hopf`` among them.
"""

from __future__ import annotations

import math
import os
import pickle
import sys
import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import noise, render
from .render import render_noise
from .series import Series
from .analysis import LongTimeModel
from .systems import CompileError, IllFormedForSampling, NormalForm, SystemSpec


# Steps per FilterBank.step call at 512 replicates: every block, warm-up and
# horizon alike, holds _BLOCK * 512 replicate-steps whatever the ensemble's
# width.  Longer blocks amortise the per-slot input expressions but hold
# more memory: in 512-replicate chunks of the toy chart's five filters (R =
# 512 and 4096, dt = 2e-3, T = 2), 32 steps added about 1 MiB of peak RSS
# over stepping one step at a time, 64 steps about 2 MiB.
_BLOCK = 32

# Spin-up of a filter, in time constants of the decay of what is left of its
# start, e^-10 at the end: every filter of a path sample starts from zero and
# spins up over ten of its own.  The filter bank's slots that are not linear
# in the noise start at their mean, so what is left decays faster, as
# ``FilterSlots.slot_for`` counts it.
SPINUP_TIME_CONSTANTS = 10.0


def heun_path(x0, n, increment):
    """The ``n + 1`` points of ``n`` Stratonovich Heun steps (Kloeden &
    Platen 1992, section 11.1) from ``x0``, an array or scalar.  Step i
    calls ``increment(y, i, end)``, f dt + g dW with the step's one dW, at
    the start (end=0, y the current point) and at the end time and the
    predictor (end=1, y the point plus the first increment), and moves the
    point by the mean of the two.  This loop holds the package's one Heun
    step, with no call per step beyond the two increments."""
    if n < 0:
        raise ValueError(f"n = {n}: a path needs a non-negative number of steps")
    path = [x0]
    x = x0
    for i in range(n):
        d0 = increment(x, i, 0)
        x = x + (d0 + increment(x + d0, i, 1)) / 2
        path.append(x)
    return path


def filter_weights(rate: float, dt: float) -> Tuple[float, float]:
    """Exact one-step decay a and variance-matched dW weight c of the filter
    z' = rate z + (input), rate < 0 (Gillespie, Phys. Rev. E 54, 2084, 1996)."""
    a = math.exp(rate * dt)
    return a, math.sqrt((1.0 - a * a) / (2.0 * abs(rate)) / dt)


def trapezoid_input(a: float, u_old, u_new, dt: float):
    """The filter's input over one step from a signal u, by the trapezoid."""
    return (dt / 2.0) * (a * u_old + u_new)


def run_filter(a: float, x: np.ndarray, y0=0.0) -> np.ndarray:
    """y[t] = a y[t-1] + x[t] along the last axis of x, from y[-1] = y0,
    rounded as fl(a y[t-1]) + x[t], the bits of ``FilterBank.step``.

    ``scipy.signal`` is imported here, at the first call, and not with the
    module: it costs most of a second and about 70 MiB, and only path
    sampling calls this filter.  Later calls find it in ``sys.modules``."""
    from scipy.signal import lfilter
    return lfilter([1.0], [1.0, -a], x, axis=-1, zi=np.asarray(a * y0)[..., None])[0]


@dataclass
class FilterSlot:
    rate: float
    driver_kind: str                 # "w" (Brownian) or "prod" (slot product)
    driver_k: int = -1
    driver_slots: Tuple[int, ...] = ()
    spin_time: float = 0.0           # 0: linear in the noise, starts stationary;
                                     # else warm-up from the stationary mean


class FilterSlots:
    """The one decomposition of convolution atoms into a cascade of
    exponential filters z' = mu z + (input), drivers first: a filter of
    Brownian motion (``"w"``) or of a product of earlier slots
    (``"prod"``).  ``FilterBank`` steps them forward across replicates and
    ``snf.paths.PathSampler`` filters them along one path, anticipating
    slots (rate > 0) on reversed time."""

    def __init__(self):
        self.slots: List[FilterSlot] = []
        self._index: Dict = {}

    def slot_for(self, atom) -> int:
        if atom in self._index:
            return self._index[atom]
        if not noise.pointwise((atom,)):
            raise IllFormedForSampling(f"no pointwise values: {render_noise((atom,))}")
        mu = float(atom[1])
        ks, rest = noise.split_bare(atom[2])
        if ks:
            slot = FilterSlot(mu, "w", driver_k=ks[0])
        else:
            subs = tuple(self.slot_for(a) for a in rest)
            slot = FilterSlot(mu, "prod", driver_slots=subs)
            if len(subs) > 1 or self.slots[subs[0]].spin_time:
                # Not linear in the noise: it starts at its mean, so what is
                # left of its start, e^{mu t}(A - E A), has mean zero and
                # enters second moments only through covariances that decay
                # at the slowest rate r feeding it.  Spin up over ten time
                # constants of that decay, after the drivers have spun up.
                r = min(self._slowest(d) for d in subs)
                slot.spin_time = (SPINUP_TIME_CONSTANTS / (abs(mu) + min(abs(mu), r))
                                  + max(self.slots[s].spin_time for s in subs))
        self.slots.append(slot)
        self._index[atom] = len(self.slots) - 1
        return len(self.slots) - 1

    def _slowest(self, i: int) -> float:
        """The smallest |rate| of slot ``i`` and of every slot feeding it."""
        s = self.slots[i]
        return min([abs(s.rate)] + [self._slowest(d) for d in s.driver_slots])

    @property
    def n(self) -> int:
        return len(self.slots)


class FilterBank(FilterSlots):
    """The slots of forward filters, stepped across all replicates at once."""

    def __init__(self):
        super().__init__()
        self._mean: Dict[int, float] = {}     # spun-up slot: its stationary mean

    def slot_for(self, atom) -> int:
        if noise.anticipates((atom,)):
            raise CompileError("anticipatory convolutions cannot be pre-sampled in a "
                               f"forward simulation: {render_noise((atom,))}")
        i = super().slot_for(atom)
        if self.slots[i].spin_time and i not in self._mean:
            mean = noise.expectation((atom,))
            if mean is None:
                # the slot was appended last: take it back out
                del self.slots[i], self._index[atom]
                raise CompileError("no stationary mean to start the filter of "
                                   f"{render_noise((atom,))}")
            self._mean[i] = float(mean)
        return i

    def max_spin(self) -> float:
        return max((s.spin_time for s in self.slots), default=0.0)

    def make_state(self, n_rep: int) -> np.ndarray:
        return np.zeros((self.n, n_rep))

    def prepare(self, dt: float):
        weights = [filter_weights(s.rate, dt) for s in self.slots]
        self._a, self._c = np.array(weights).reshape(-1, 2).T
        self._dt = dt
        # Runs of consecutive slots none of which drives another in its run:
        # a run's recursion steps as one (k, R) slab, its drivers finished.
        self._groups, lo = [], 0
        for i, s in enumerate(self.slots):
            if any(d >= lo for d in s.driver_slots):
                self._groups.append((lo, i))
                lo = i
        if self.slots:
            self._groups.append((lo, self.n))
        self._work = None
        self._stationary_start(dt)
        self._spun = [i for i, s in enumerate(self.slots) if s.spin_time]
        self._spun_mean = np.array([self._mean[i] for i in self._spun])[:, None]

    def _stationary_start(self, dt: float):
        """The stationary law of the linear slots under ``step``.

        They form one chain s[t+1] = Phi s[t] + G dW[t], read off one step
        of unit inputs (``_advance``): column r of Phi steps linear slot r
        set to 1, column k of G a unit increment of noise k.  The covariance
        solves the discrete Lyapunov equation P = Phi P Phi^T + dt G G^T, so
        the chain is stationary from its first step.  P may be singular
        (Z[-2]{Z[-1]{phi}} is Z[-1]{phi} - Z[-2]{phi}), so it is factored by
        ``eigh``, eigenvalues clipped at zero: ``_start @ _start.T`` is P."""
        self._lin = [i for i, s in enumerate(self.slots) if not s.spin_time]
        n = len(self._lin)
        n_noise = 1 + max((s.driver_k for s in self.slots), default=-1)
        z = np.zeros((self.n, n + n_noise))
        z[self._lin, :n] = np.eye(n)
        dw = np.zeros((1, n_noise, n + n_noise))
        dw[0, :, n:] = np.eye(n_noise)
        chain = self._advance(z, dw)[0][self._lin]
        phi, g = chain[:, :n], chain[:, n:]
        # row-major vec(Phi P Phi^T) = kron(Phi, Phi) vec(P)
        p = np.linalg.solve(np.eye(n * n) - np.kron(phi, phi),
                            (dt * g @ g.T).ravel()).reshape(n, n)
        w, v = np.linalg.eigh((p + p.T) / 2.0)
        self._start = v * np.sqrt(np.clip(w, 0.0, None))

    def start(self, z: np.ndarray, rng: np.random.Generator):
        """Start the state ``z`` (n, R): draw the linear slots from their
        stationary law, one ``standard_normal((n_linear, R))`` draw from
        ``rng`` (none for a bank without linear slots), and set the others
        to their stationary mean, which draws nothing."""
        if self._lin:
            z[self._lin] = self._start @ rng.standard_normal((len(self._lin), z.shape[1]))
        if self._spun:
            z[self._spun] = self._spun_mean

    def _workspace(self, steps: int, R: int):
        """The arrays ``step`` writes, kept from call to call: the (steps+1,
        n, R) output, one (steps+1, R) product row and one (k_max, R) row of
        decayed states for a run of k <= k_max slots.  Made afresh only for
        a new replicate width or a longer block."""
        if self._work is None or len(self._work[0]) <= steps or self._work[1].shape[1] != R:
            k_max = max((hi - lo for lo, hi in self._groups), default=0)
            self._work = (np.empty((steps + 1, self.n, R)), np.empty((steps + 1, R)),
                          np.empty((k_max, R)))
        return self._work

    def step(self, z: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Advance every slot over a block of steps from state ``z`` (n, R);
        ``dw`` has shape (steps, n_noise, R).  Returns the state after each
        step, shape (steps, n, R), in the bank's workspace: it is valid
        until the next ``step`` call, which may overwrite it (``z`` may be
        a row of it).  Only ensembles call it, once per block; the
        stationary start is set-up, and runs ``_advance`` itself."""
        return self._advance(z, dw)

    def _advance(self, z: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """``step``.  Time-major, one run of slots (``prepare``) at a time:
        each slot's input over the block is one vectorised expression, c dW
        (Brownian slot) or the trapezoid of its drivers' product (product slot;
        drivers sit in earlier runs, so their trajectories are filled in),
        written where the slot's trajectory goes; then the run steps
        ``w[t+1] = a w[t] + x[t]`` on its (k, R) slab, adding the decayed
        state to the input in place.  This is bitwise ``run_filter`` and
        the per-step recursion."""
        steps, _, R = dw.shape
        out, prod, decayed = self._workspace(steps, R)
        out, prod = out[:steps + 1], prod[:steps + 1]
        out[0] = z
        for lo, hi in self._groups:
            for i in range(lo, hi):
                s = self.slots[i]
                if s.driver_kind == "w":
                    np.multiply(self._c[i], dw[:, s.driver_k], out=out[1:, i])
                else:
                    u = out[:, s.driver_slots[0]]
                    for d in s.driver_slots[1:]:
                        u = np.multiply(u, out[:, d], out=prod)
                    out[1:, i] = trapezoid_input(self._a[i], u[:-1], u[1:], self._dt)
            # each step's (k, R) views made once, not indexed twice per step
            a, w, dec = self._a[lo:hi, None], list(out[:, lo:hi]), decayed[:hi - lo]
            for t in range(steps):
                np.multiply(a, w[t], out=dec)
                np.add(dec, w[t + 1], out=w[t + 1])
        return out[1:]


@dataclass
class CompiledTerm:
    coeff: float
    pows: Tuple[int, ...]
    conv_slots: Tuple[int, ...]
    noise_k: int = -1               # -1: drift term


@dataclass(frozen=True)
class RatesPlan:
    """The evaluation order of ``CompiledSDE.rates``.  Factor rows number
    the distinct state powers ``(component, exponent)`` first, then the
    convolution slots; output rows number the drift components first, then
    the diffusion pairs (component, noise) row-major."""
    powers: Tuple[Tuple[int, int], ...]
    terms: Tuple[Tuple[int, float, Tuple[int, ...]], ...]   # (out row, coeff, factor rows)


def plan_rates(terms: Sequence[Sequence[CompiledTerm]], n_noise: int) -> RatesPlan:
    """Each term's factors in the order the term lists them, powers by
    component, then its convolution slots; terms in list order."""
    powers = sorted({(d, p) for row in terms for t in row
                     for d, p in enumerate(t.pows) if p})
    index = {dp: i for i, dp in enumerate(powers)}
    dim, plan = len(terms), []
    for d, row in enumerate(terms):
        for t in row:
            out = d if t.noise_k < 0 else dim + d * n_noise + t.noise_k
            factors = tuple(index[(c, p)] for c, p in enumerate(t.pows) if p)
            plan.append((out, t.coeff,
                         factors + tuple(len(powers) + s for s in t.conv_slots)))
    return RatesPlan(tuple(powers), tuple(plan))


def rates_kernel(plan: RatesPlan, dim: int, n_noise: int) -> Callable:
    """The function ``CompiledSDE.rates`` calls: ``plan`` as straight-line
    numpy, one statement per plan operation in plan order.  Each state
    power is computed once; each term adds its coefficient times its
    factors, left to right, into a view of its row of one ``np.zeros``
    block.  The coefficients are bound from a tuple, never written into
    the source, so the kernel holds their exact bits."""
    n_powers = len(plan.powers)
    body = ["    R = state.shape[1]",
            f"    acc = zeros(({dim * (1 + n_noise)}, R))"]
    body += [f"    x{i} = state[{d}]" + (f" ** {p}" if p != 1 else "")
             for i, (d, p) in enumerate(plan.powers)]
    slots = sorted({f - n_powers for _o, _c, fs in plan.terms for f in fs
                    if f >= n_powers})
    body += [f"    x{n_powers + s} = z[{s}]" for s in slots]
    body += [f"    a{o} = acc[{o}]" for o in sorted({o for o, _c, _f in plan.terms})]
    body += [f"    a{o} += " + " * ".join([f"c{k}"] + [f"x{f}" for f in fs])
             for k, (o, _c, fs) in enumerate(plan.terms)]
    body.append(f"    return acc[:{dim}], acc[{dim}:].reshape({dim}, {n_noise}, R)")
    coeffs = "".join(f"c{k}, " for k in range(len(plan.terms)))
    source = "\n".join(["def build(zeros, C):",
                        f"  ({coeffs}) = C",
                        "  def rates(state, z):", *["  " + b for b in body],
                        "  return rates"])
    namespace: Dict = {}
    exec(compile(source, "<rates kernel>", "exec"), namespace)
    return namespace["build"](np.zeros, tuple(c for _o, c, _f in plan.terms))


@dataclass
class CompiledSDE:
    """Numeric drift/diffusion term lists per state component."""
    state_names: Tuple[str, ...]
    n_noise: int
    terms: List[List[CompiledTerm]]
    bank: FilterBank
    noise_amp: np.ndarray           # per-symbol amplitude multiplier
    plan: RatesPlan

    def __post_init__(self):
        self._kernel = rates_kernel(self.plan, self.dim, self.n_noise)

    @property
    def dim(self) -> int:
        return len(self.state_names)

    def rates(self, state: np.ndarray, z) -> Tuple[np.ndarray, np.ndarray]:
        """Split evaluation: drift (dim, R) and diffusion (dim, n_noise, R)
        of the state (dim, R) and the convolution rows ``z``, by the model's
        ``rates_kernel``, compiled from its plan once, at construction.

        Each distinct state power is computed once; a term is its
        coefficient times its factors, left to right, added into its row in
        term order.  Elementwise ufuncs only, so every replicate's values
        are the same bits however many replicates are evaluated together."""
        return self._kernel(state, z)


def compile_series(series_list: Sequence[Series], state_names: Sequence[str],
                   state_of: Callable[[Tuple], Tuple[int, ...]],
                   params: Dict[str, float], param_names: Sequence[str],
                   n_noise: int,
                   noise_amp: Optional[Dict[int, float]] = None,
                   bank: Optional[FilterBank] = None,
                   var_names: Sequence[str] = ()) -> CompiledSDE:
    """Compile series into numeric term lists and their ``RatesPlan`` (the
    one place series terms become floats; ``CompiledSDE.rates`` evaluates
    them).

    ``state_of`` maps a monomial to state exponents; parameter exponents are
    folded into the coefficient using ``params``.  A coefficient that is
    not finite raises CompileError naming the term, its variables by
    ``var_names`` (``term_text``), and the parameter values.
    ``bank.slot_for`` numbers the convolution factors: a ``FilterBank``
    rejects anticipatory ones, a ``snf.paths.PathSampler`` samples them on
    its path.
    """
    bank = FilterBank() if bank is None else bank
    all_terms: List[List[CompiledTerm]] = []
    amps = np.ones(n_noise)
    for k, a in (noise_amp or {}).items():
        amps[k] = a
    for s in series_list:
        terms: List[CompiledTerm] = []
        for (mono, expr), c in s.terms.items():
            try:
                coeff = float(c)
                for name, e in zip(param_names, mono[2]):
                    if e:
                        coeff *= params[name] ** e
            except OverflowError:
                coeff = math.inf
            if not math.isfinite(coeff):
                values = ", ".join(f"{name}={params[name]:g}"
                                   for name, e in zip(param_names, mono[2]) if e)
                raise CompileError(
                    f"term {term_text(s, (mono, expr), c, var_names, param_names)} "
                    "has no finite coefficient" + (f" at {values}" if values else ""))
            ks, convs = noise.split_bare(expr)
            if len(ks) > 1:
                raise CompileError(
                    f"term with two bare noise factors: {render_noise(expr)}")
            slots = tuple(bank.slot_for(a) for a in convs)
            terms.append(CompiledTerm(coeff, state_of(mono), slots, ks[0] if ks else -1))
        all_terms.append(terms)
    return CompiledSDE(tuple(state_names), n_noise, all_terms, bank, amps,
                       plan_rates(all_terms, n_noise))


def term_text(s: Series, key: Tuple, c, var_names: Sequence[str],
              param_names: Sequence[str]) -> str:
    """The term ``key`` of ``s`` with coefficient ``c`` as series text
    (``render.term_text``): its slow then fast variables named by
    ``var_names`` in turn, those past its end x{i} and y{j}."""
    m, n = s.dims.m, s.dims.n
    names = tuple(var_names[k] if k < len(var_names) else f"x{k}" if k < m else f"y{k - m}"
                  for k in range(m + n))
    return render.term_text(key, c, (names[:m], names[m:], tuple(param_names)))


def compile_full_system(spec: SystemSpec, params: Dict[str, float]) -> CompiledSDE:
    """The original system, state (slow..., fast...)."""
    xdot = [spec.linear_xdot()[i] + spec.f[i] for i in range(spec.m)]
    ydot = [spec.linear_ydot()[j] + spec.g[j] for j in range(spec.n)]

    def state_of(mono):
        return tuple(mono[0]) + tuple(mono[1])

    names = spec.slow_names + spec.fast_names
    return compile_series(xdot + ydot, names, state_of, params, spec.param_names,
                          spec.n_noise, var_names=names)


def compile_slow_model(nf: NormalForm, params: Dict[str, float],
                       long_time: Optional[LongTimeModel] = None) -> CompiledSDE:
    """The decoupled slow evolution dX = AX + F, state (slow...).  With
    ``long_time``, F is its drift and its fresh noises follow the system's,
    each with amplitude sqrt(intensity)."""
    spec = nf.spec
    F, n_noise, amps = nf.F, spec.n_noise, None
    if long_time is not None:
        F, n_noise = long_time.F, n_noise + len(long_time.fresh)
        amps = {f.index: math.sqrt(float(f.intensity)) for f in long_time.fresh}
    xdot = [spec.linear_xdot()[i] + F[i] for i in range(spec.m)]
    for s in xdot:
        for (mono, _e), _c in s.terms.items():
            if sum(mono[1]) != 0:
                raise CompileError("slow model depends on fast variables")

    def state_of(mono):
        return tuple(mono[0])

    return compile_series(xdot, spec.slow_names, state_of, params,
                          spec.param_names, n_noise, amps, var_names=spec.slow_names)


def sampleable_part(s: Series) -> Tuple[Series, List[Tuple]]:
    """Split off the terms whose noise has no pointwise values
    (``noise.pointwise``)."""
    good: Dict = {}
    dropped: List[Tuple] = []
    for (mono, expr), c in s.terms.items():
        if noise.pointwise(expr):
            good[(mono, expr)] = c
        else:
            dropped.append(((mono, expr), c))
    return s.build_like(good), dropped


def compile_observables(series_list: Sequence[Series], base: CompiledSDE,
                        params: Dict[str, float], param_names: Sequence[str],
                        state_of: Callable) -> CompiledSDE:
    """Observables read off the state and filters of ``base``, as the drift
    rows of the returned model.  A term without pointwise values raises
    CompileError naming the term (unit coefficient, the base's state names)."""
    for i, s in enumerate(series_list):
        for key, _c in s.terms.items():
            if not noise.pointwise(key[1]):
                term = term_text(s, key, 1, base.state_names, param_names)
                raise CompileError(f"observable {i} carries bare noise: {term}")
    return compile_series(series_list, [f"obs{i}" for i in range(len(series_list))],
                          state_of, params, param_names, base.n_noise,
                          bank=base.bank, var_names=base.state_names)


@dataclass
class EnsembleResult:
    times: np.ndarray
    samples: np.ndarray             # (n_rep, n_times, n_outputs)
    output_names: Tuple[str, ...]

    @property
    def n_rep(self) -> int:
        return self.samples.shape[0]

    def diverged(self) -> np.ndarray:
        """Per sample time, the replicates with a non-finite output (a
        replicate whose state has gone non-finite records NaN from then
        on)."""
        return (~np.isfinite(self.samples).all(axis=2)).sum(axis=0)

    def _need_spread(self):
        if self.n_rep < 2:
            raise ValueError("spread statistics need at least two replicates")

    def mean(self) -> np.ndarray:
        return self.samples.mean(axis=0)

    def var(self) -> np.ndarray:
        self._need_spread()
        return self.samples.var(axis=0, ddof=1)

    def stderr_mean(self) -> np.ndarray:
        self._need_spread()
        return self.samples.std(axis=0, ddof=1) / math.sqrt(self.n_rep)

    def stderr_var(self) -> np.ndarray:
        # Standard error of the sample variance from its fourth moment.
        self._need_spread()
        m = self.samples.mean(axis=0)
        c = self.samples - m
        n = self.n_rep
        m4 = (c ** 4).mean(axis=0)
        v = (c ** 2).mean(axis=0)
        return np.sqrt(np.maximum(m4 - (n - 3) / (n - 1) * v ** 2, 0.0) / n)

    def summary_table(self) -> str:
        lines = ["\t".join(["time"] + [f"{n}.{c}" for n in self.output_names
                                       for c in ("mean", "var", "stderr")])]
        mean, var, se = self.mean(), self.var(), self.stderr_mean()
        for i, t in enumerate(self.times):
            row = [f"{t:.6g}"]
            for j in range(len(self.output_names)):
                row += [f"{mean[i, j]:.10g}", f"{var[i, j]:.10g}", f"{se[i, j]:.10g}"]
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


def check_step(dt: float) -> None:
    """Refuse a step that is not positive and finite: a negative one would
    integrate backward, a zero one return the start."""
    if not 0 < dt < math.inf:
        raise ValueError(f"dt = {dt}: the step must be positive and finite")


def grid_steps(t: float, dt: float, what: str) -> int:
    """t as a whole number of steps of dt; ValueError naming ``what`` when t
    is off the step grid by more than 1e-9 steps."""
    n = round(t / dt)
    if abs(t / dt - n) > 1e-9:
        raise ValueError(f"{what} {t:g} is not a whole number of steps of dt = {dt:g}")
    return int(n)


def horizon_steps(T: float, dt: float) -> int:
    """The horizon ``T`` as its number of steps of ``dt``, one at least.
    ValueError names a step that ``check_step`` refuses, a horizon off the
    step grid (``grid_steps``) and one of no step or of no finite number of
    steps."""
    check_step(dt)
    n = grid_steps(T, dt, "horizon") if math.isfinite(T / dt) else 0
    if n < 1:
        raise ValueError(f"T = {T}: the horizon must be positive, at least one step "
                         f"of dt = {dt} and finitely many")
    return n


def sample_steps(sample_times: Sequence[float], T: float,
                 dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted sample times and their step indices; ValueError naming a time
    outside [0, T] or off the step grid."""
    times = np.asarray(sorted(sample_times), dtype=float)
    for t in times:
        if not -1e-12 <= t <= T + 1e-12:
            raise ValueError(f"sample time {t:g} outside the horizon [0, {T:g}]")
    return times, np.asarray([grid_steps(t, dt, "sample time") for t in times])


def warm_up(bank: FilterBank, dt: float,
            warm: Optional[float] = None) -> Tuple[float, int]:
    """An ensemble's warm-up before t = 0: ``warm`` time units, by default
    the bank's ``max_spin``, and its number of steps of dt, rounded up."""
    t = bank.max_spin() if warm is None else warm
    return t, int(math.ceil(t / dt))


def run_ensemble(sde: CompiledSDE, x0: Sequence[float], T: float, dt: float,
                 n_rep: int, seed: int, sample_times: Sequence[float],
                 observables: Optional[CompiledSDE] = None,
                 chunk: int = 512, warm: Optional[float] = None) -> EnsembleResult:
    """Integrate an ensemble and record state (or observables' drift rows)
    at the requested times.  Deterministic given the master seed.

    A chunk of ``chunk`` replicates is one random stream spawned from the
    master seed: it draws its linear filter slots' stationary start
    (``FilterBank.start``), then its warm-up (``warm_up``: ``warm`` time
    units, by default the bank's ``max_spin``), then its horizon
    increments.  ``T`` must hold at least one step (``horizon_steps``) and
    every sample time lie on the step grid (``grid_steps``).  ``x0`` must
    hold one value per state variable, ``n_rep`` and ``chunk`` must be at
    least one, and ``warm`` non-negative and finite: ValueError names the
    argument otherwise, before any process is forked.
    The chunks are split into contiguous groups, one per usable CPU at
    most, by ``in_processes``: the calling process steps the first group
    and a forked child process each other one, each process bound to its
    own CPU while they run.  Unbound, a child on a host whose cpuset turns
    scheduler load balancing off can stay on its parent's CPU for its whole
    life and share that one core with it.  Warm-up
    and horizon step a group's replicates as one array, each chunk's
    increments filling its own columns, so a replicate's path does not
    depend on how many chunks step beside it, nor on how many processes
    share them: the samples are the same bits for any number of groups.
    A replicate whose state has a non-finite component at a sample time
    records NaN there, and a non-finite state stays so; a group stops
    stepping once all its replicates have gone non-finite.
    The group count follows the CPU affinity set, not a cgroup CPU quota,
    and each process holds its own increment block and step arrays, so
    peak memory grows with the number of groups; speed and memory were
    measured with two groups on two CPUs only."""
    if len(x0) != sde.dim:
        raise ValueError(f"an ensemble needs {sde.dim} start values, got x0 of {len(x0)}")
    if n_rep < 1:
        raise ValueError(f"an ensemble needs at least one replicate, got n_rep={n_rep}")
    n_steps = horizon_steps(T, dt)
    if chunk < 1:
        raise ValueError(f"an ensemble needs chunks of at least one replicate, "
                         f"got chunk={chunk}")
    if warm is not None and not 0 <= warm < math.inf:
        raise ValueError(f"an ensemble needs a finite non-negative warm-up, got warm={warm}")
    sample_times, sample_idx = sample_steps(sample_times, T, dt)
    warm_steps = warm_up(sde.bank, dt, warm)[1]
    sde.bank.prepare(dt)
    names = (observables or sde).state_names
    out = np.empty((n_rep, len(sample_times), len(names)))
    chunks = [(lo, min(lo + chunk, n_rep)) for lo in range(0, n_rep, chunk)]
    streams = np.random.SeedSequence(seed).spawn(len(chunks))

    def rows(c0: int, c1: int) -> np.ndarray:
        return out[chunks[c0][0]:chunks[c1 - 1][1]]

    def fill(c0: int, c1: int) -> None:
        lo = chunks[c0][0]
        _step_group(sde, x0, dt, warm_steps, n_steps, sample_idx, observables,
                    [(a - lo, b - lo) for a, b in chunks[c0:c1]], streams[c0:c1],
                    rows(c0, c1))

    in_processes(len(chunks), fill, rows)
    return EnsembleResult(sample_times, out, tuple(names))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bind(cpus: Optional[set]) -> None:
    """Bind this process to the CPU set ``cpus``, if any; where the platform
    has no binding or refuses it, leave the process as it is."""
    if cpus and hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def in_processes(n_items: int, fill: Callable[[int, int], None],
                 rows: Callable[[int, int], np.ndarray]) -> None:
    """Run ``fill(lo, hi)`` over contiguous ranges that cover
    ``range(n_items)``, each filling ``rows(lo, hi)``, a view of one array
    of any dtype that must be one C-contiguous block (ValueError before any
    fork otherwise): one range per usable CPU at most (``_usable_cpus``),
    and one where forking is missing or unsafe (a process with more than one
    thread).  The first range runs in this process, each other one in a
    forked child (``_child``); one range forks nothing.  Where the system
    refuses a pipe or a fork (a process or file limit reached), that range
    and every later one run in this process instead.  ``fill`` must write
    nothing but its rows that the caller reads: a child's other writes stay
    in the child.  Its callers split an ensemble's replicate chunks
    (``run_ensemble``), the Hopf lab's paths and the band lab's
    resonant-strip offsets.

    While children run, each process of the split, this one included, is
    bound to its own CPU of this process's affinity set, and this process's
    own set is restored when the call returns or raises.  The kernel need
    not spread them: where a cpuset turns scheduler load balancing off, a
    forked child can stay on its parent's CPU for its whole life, and the
    two then share one core.  Where binding is refused or unavailable, the
    processes run unbound; the rows are the same bits either way.

    The parent reads each child's pipe to its end before reaping it, the
    rows straight into place, and issues the child's warnings as its own.
    A child's exception is raised here as a RuntimeError carrying its text,
    once every child is reaped; the rows of a failed child are then
    undefined.  If anything in this process raises after the first fork,
    its own range included, every child left is killed and reaped before the
    exception goes on: no child outlives the call."""
    n_groups = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        n_groups = max(1, min(_usable_cpus(), n_items))
    bounds = [n_items * g // n_groups for g in range(n_groups + 1)]
    jobs = list(zip(bounds, bounds[1:]))
    parts = [rows(lo, hi) for lo, hi in jobs]
    if not all(part.flags.c_contiguous for part in parts):
        raise ValueError("the rows of each range must be one C-contiguous block")
    affinity = os.sched_getaffinity(0) if (
        n_groups > 1 and hasattr(os, "sched_getaffinity")) else set()
    cpus = [{cpu} for cpu in sorted(affinity)] or [None]    # job k: cpus[k % len]
    children = []                       # (pid, read end, rows), unreaped
    local = 1                           # jobs[1:local] went to children
    try:
        for k, ((lo, hi), part) in enumerate(zip(jobs[1:], parts[1:]), 1):
            try:
                r, w = os.pipe()
            except OSError:
                break
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                break
            if pid == 0:
                _child(r, w, fill, lo, hi, part, cpus[k % len(cpus)])
            os.close(w)
            children.append((pid, os.fdopen(r, "rb"), part))
            local += 1
        if children:
            _bind(cpus[0])
        for lo, hi in jobs[:1] + jobs[local:]:
            fill(lo, hi)
        caught, errors = [], []
        while children:
            pid, pipe, part = children[0]
            got = pipe.readinto(part)
            rest = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code == 0 and got == part.nbytes:
                caught.extend(pickle.loads(rest))
            else:
                text = part.tobytes()[:got] + rest
                errors.append(text.decode(errors="replace") or f"exit code {code}")
    except BaseException:
        from signal import SIGKILL
        for pid, pipe, _part in children:
            pipe.close()
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    os.kill(pid, SIGKILL)
                    os.waitpid(pid, 0)
            except ChildProcessError:
                pass                    # reaped just before the exception
        raise
    finally:
        if local > 1:
            _bind(affinity)
    if errors:
        raise RuntimeError("a worker process failed: " + "; ".join(errors))
    if caught:
        # each shown or not as the module it was raised in has shown it
        modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
        for text, category, filename, lineno in caught:
            module = modules.get(filename)
            registry = module and vars(module).setdefault("__warningregistry__", {})
            warnings.warn_explicit(text, category, filename, lineno, registry=registry)


def _child(r: int, w: int, fill: Callable[[int, int], None], lo: int, hi: int,
           rows: np.ndarray, cpus: Optional[set]) -> None:
    """A forked child's whole life: bound to the CPU set ``cpus``,
    ``fill(lo, hi)``, then down the pipe's write end ``w`` its ``rows`` as
    raw C-ordered bytes of their dtype and the pickled warnings it caught
    (text, category, file, line), exit code 0; or the error's text, exit
    code 1.  It leaves by ``os._exit`` whatever happens: it never returns
    into the caller, flushes no inherited buffer and runs no exit handler."""
    code = 1
    try:
        os.close(r)
        try:
            _bind(cpus)
            with warnings.catch_warnings(record=True) as caught:
                fill(lo, hi)
            payload = rows.tobytes() + pickle.dumps(
                [(str(m.message), m.category, m.filename, m.lineno) for m in caught])
            code = 0
        except BaseException as exc:
            payload = f"{type(exc).__name__}: {exc}".encode()
        with os.fdopen(w, "wb") as pipe:
            pipe.write(payload)
    except BaseException:
        code = 1
    finally:
        os._exit(code)


def noise_sum(diff: np.ndarray, w: np.ndarray):
    """The sum over k of ``diff[:, k] * w[k]``, (dim, R) from diffusion
    (dim, n_noise, R) and increments (n_noise, R), with the bits of
    ``np.einsum("dkr,kr->dr", diff, w)``: from +0.0, noise by noise, so a
    -0.0 first product becomes +0.0, and no noise gives +0.0."""
    if not len(w):
        return 0.0
    acc = diff[:, 0] * w[0]
    acc += 0.0
    for k in range(1, len(w)):
        acc += diff[:, k] * w[k]
    return acc


def _step_group(sde: CompiledSDE, x0: Sequence[float], dt: float, warm_steps: int,
                n_steps: int, sample_idx: np.ndarray,
                observables: Optional[CompiledSDE], chunks: Sequence[Tuple[int, int]],
                streams: Sequence[np.random.SeedSequence], out: np.ndarray) -> None:
    """Step one group of chunks, ``chunks`` being their column ranges and
    ``streams`` their seeds, as one array through warm-up and horizon, and
    fill ``out`` (its replicates, sample times, outputs)."""
    n_rep = out.shape[0]
    rngs = [np.random.default_rng(s) for s in streams]
    sqdt = math.sqrt(dt)
    # one block rule: every filter step holds at most _BLOCK*512 replicate-steps
    block = max(1, _BLOCK * 512 // n_rep)
    # one block of increments, drawn chunk by chunk and reused for every block
    normals = [np.empty((block, sde.n_noise, hi - lo)) for lo, hi in chunks]
    dw_block = np.empty((block, sde.n_noise, n_rep))
    dw_amp_block = np.empty_like(dw_block)

    def draw(steps):
        # each chunk's (steps, n_noise, R) draw, in its own columns, is its
        # stream of `steps` successive (n_noise, R) draws
        for rng, g, (lo, hi) in zip(rngs, normals, chunks):
            rng.standard_normal(out=g[:steps])
            np.multiply(g[:steps], sqdt, out=dw_block[:steps, :, lo:hi])
        return dw_block[:steps]

    # z0 also carries the state into each horizon block: a block overwrites
    # the bank's workspace, and with it the previous block's last row
    z = z0 = sde.bank.make_state(n_rep)
    for rng, (lo, hi) in zip(rngs, chunks):
        sde.bank.start(z[:, lo:hi], rng)
    for b0 in range(0, warm_steps, block):
        z = sde.bank.step(z, draw(min(block, warm_steps - b0)))[-1]
    state = np.tile(np.asarray(x0, dtype=float)[:, None], (1, n_rep))
    amp = sde.noise_amp[:, None]
    pos = 0
    for t_i in range(n_steps + 1):
        while pos < len(sample_idx) and sample_idx[pos] == t_i:
            out[:, pos, :] = (observables.rates(state, z)[0] if observables
                              else state).T
            # a non-finite state stays so: its replicate has diverged
            out[~np.isfinite(state).all(axis=0), pos, :] = np.nan
            pos += 1
        if t_i == n_steps:
            break
        if t_i % _BLOCK == 0 and not np.isfinite(state).all(axis=0).any():
            out[:, pos:, :] = np.nan
            break
        j = t_i % block
        if j == 0:
            # filter the next block only now: one block is held at a time
            z0[...] = z
            z = z0
            dw = draw(min(block, n_steps - t_i))
            z_block = sde.bank.step(z, dw)
            np.multiply(dw, amp, out=dw_amp_block[:len(dw)])
        dw_amp = dw_amp_block[j]
        z_ends = (z, z_block[j])

        def increment(y, _i, end):
            drift, diff = sde.rates(y, z_ends[end])
            drift *= dt
            drift += noise_sum(diff, dw_amp)
            return drift

        state = heun_path(state, 1, increment)[1]
        z = z_ends[1]
