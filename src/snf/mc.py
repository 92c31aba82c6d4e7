"""Stratonovich Monte Carlo: compiled SDE models, Heun stepping, ensembles.

A series-defined evolution compiles to drift/diffusion term lists over a
numeric state vector, and to the plan that ``CompiledSDE.rates`` evaluates:
each distinct state power once per call, then each term as its coefficient
times its factors, added into its row in term order.  Memory convolutions
appearing as coefficients become a bank of exponential filters, the
package's one filter (``filter_weights``, ``trapezoid_input``,
``run_filter``; ``snf.paths`` samples it too).  The bank is warmed up before
time zero and, driven by noise alone, advances a block of steps at a time,
each filter one recursion along the block; the state is stepped one step at
a time inside the block.

A replicate chunk is one random stream: replicates are split into chunks,
each drawing from its own stream spawned from the master seed, so results
are reproducible from the master seed and independent across replicates.
Each chunk warms up its own filters; over the horizon all chunks step as
one array, each chunk's increments filling its own columns.  A chunk draws
each block's increments in one call, which consumes its stream exactly as
one draw per step would.

Heun (explicit midpoint) stepping: terms carrying one bare noise factor
contribute coefficient * dW, terms without contribute coefficient * dt, and
the corrector averages coefficients at the step's two ends, which is what
makes the scheme converge to the Stratonovich solution.  Every integrator
of the package steps with ``heun_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.signal import lfilter

from . import noise
from .noise import Expr
from .render import render_series
from .series import Series
from .systems import SystemSpec, NormalForm


# Steps per FilterBank.step call of a 512-replicate chunk's warm-up; over
# the horizon a block holds as many elements, _BLOCK * 512 replicate-steps.
# Longer blocks amortise the per-slot lfilter call but hold more memory: in
# 512-replicate chunks of the toy chart's five filters, 32 steps added about
# 2 MiB of peak RSS over stepping one step at a time, 64 steps about 6 MiB.
_BLOCK = 32

# Spin-up of a filter from a zero start, in its time constants.
SPINUP_TIME_CONSTANTS = 10.0


class CompileError(ValueError):
    """The series cannot be integrated as a forward SDE."""


def heun_step(x, increment):
    """One Stratonovich Heun step (Kloeden & Platen 1992, section 11.1) of
    an array or scalar ``x``.  ``increment(y, end)`` is f dt + g dW, with the
    step's one dW, at the start (end=0, y=x) or at the end time and the
    predictor (end=1, y=x+first increment)."""
    d0 = increment(x, 0)
    d1 = increment(x + d0, 1)
    return x + (d0 + d1) / 2


def filter_weights(rate: float, dt: float) -> Tuple[float, float]:
    """Exact one-step decay a and variance-matched dW weight c of the filter
    z' = rate z + (input), rate < 0 (Gillespie, Phys. Rev. E 54, 2084, 1996)."""
    a = math.exp(rate * dt)
    return a, math.sqrt((1.0 - a * a) / (2.0 * abs(rate)) / dt)


def trapezoid_input(a: float, u_old, u_new, dt: float):
    """The filter's input over one step from a signal u, by the trapezoid."""
    return (dt / 2.0) * (a * u_old + u_new)


def run_filter(a: float, x: np.ndarray, y0=0.0) -> np.ndarray:
    """y[t] = a y[t-1] + x[t] along the last axis of x, from y[-1] = y0."""
    return lfilter([1.0], [1.0, -a], x, axis=-1, zi=np.asarray(a * y0)[..., None])[0]


@dataclass
class FilterSlot:
    rate: float
    driver_kind: str                 # "w" (Brownian) or "prod" (slot product)
    driver_k: int = -1
    driver_slots: Tuple[int, ...] = ()
    spin_time: float = 0.0


class FilterBank:
    """Cascade of forward exponential filters z' = mu z + (input)."""

    def __init__(self):
        self.slots: List[FilterSlot] = []
        self._index: Dict = {}

    def slot_for(self, atom) -> int:
        if atom in self._index:
            return self._index[atom]
        mu = float(atom[1])
        if mu >= 0:
            raise CompileError(
                "anticipatory convolutions cannot be pre-sampled in a forward "
                f"simulation (rate {atom[1]})")
        child = atom[2]
        spin = SPINUP_TIME_CONSTANTS / abs(mu)
        if len(child) == 1 and noise.is_bare(child[0]):
            slot = FilterSlot(mu, "w", driver_k=child[0][1], spin_time=spin)
        else:
            if any(noise.is_bare(a) for a in child):
                raise CompileError(f"bare noise nested inside a convolution: {child}")
            subs = tuple(self.slot_for(a) for a in child)
            spin += max(self.slots[s].spin_time for s in subs)
            slot = FilterSlot(mu, "prod", driver_slots=subs, spin_time=spin)
        self.slots.append(slot)
        self._index[atom] = len(self.slots) - 1
        return len(self.slots) - 1

    @property
    def n(self) -> int:
        return len(self.slots)

    def max_spin(self) -> float:
        return max((s.spin_time for s in self.slots), default=0.0)

    def make_state(self, n_rep: int) -> np.ndarray:
        return np.zeros((self.n, n_rep))

    def prepare(self, dt: float):
        weights = [filter_weights(s.rate, dt) for s in self.slots]
        self._a, self._c = np.array(weights).reshape(-1, 2).T
        self._dt = dt

    def step(self, z: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Advance every slot over a block of steps from state ``z`` (n, R);
        ``dw`` has shape (steps, n_noise, R).  Returns the state after each
        step, shape (steps, n, R) (a view of a time-last array).

        Each slot is one ``run_filter`` recursion along time, its input c dW
        (Brownian slot) or the trapezoid of its drivers' product (product
        slot; drivers have lower slot numbers, so their trajectories are
        already filled in).  This is bitwise the per-step recursion."""
        steps, _, R = dw.shape
        out = np.empty((self.n, R, steps + 1))
        out[:, :, 0] = z
        dw_t = np.moveaxis(dw, 0, -1).copy()
        for i, s in enumerate(self.slots):
            a = self._a[i]
            if s.driver_kind == "w":
                x = self._c[i] * dw_t[s.driver_k]
            else:
                u = out[s.driver_slots[0]]
                for d in s.driver_slots[1:]:
                    u = u * out[d]
                x = trapezoid_input(a, u[:, :-1], u[:, 1:], self._dt)
            out[i, :, 1:] = run_filter(a, x, z[i])
        return np.moveaxis(out[:, :, 1:], -1, 0)


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


@dataclass
class CompiledSDE:
    """Numeric drift/diffusion term lists per state component."""
    state_names: Tuple[str, ...]
    n_noise: int
    terms: List[List[CompiledTerm]]
    bank: FilterBank
    noise_amp: np.ndarray           # per-symbol amplitude multiplier
    plan: RatesPlan

    @property
    def dim(self) -> int:
        return len(self.state_names)

    def rates(self, state: np.ndarray, z: np.ndarray):
        """Split evaluation: drift (dim, R) and diffusion (dim, n_noise, R).

        Each distinct state power is computed once; a term is its
        coefficient times its factors, left to right, added into its row in
        term order.  Elementwise ufuncs only, so every replicate's values
        are the same bits however many replicates are evaluated together."""
        dim = self.dim
        acc = np.zeros((dim * (1 + self.n_noise), state.shape[1]))
        rows = [state[d] if p == 1 else state[d] ** p for d, p in self.plan.powers]
        rows.extend(z)
        for out, coeff, factors in self.plan.terms:
            if factors:
                val = coeff * rows[factors[0]]
                for f in factors[1:]:
                    val *= rows[f]
                acc[out] += val
            else:
                acc[out] += coeff
        return acc[:dim], acc[dim:].reshape(dim, self.n_noise, -1)


def compile_series(series_list: Sequence[Series], state_names: Sequence[str],
                   state_of: Callable[[Tuple], Tuple[int, ...]],
                   params: Dict[str, float], param_names: Sequence[str],
                   n_noise: int,
                   noise_amp: Optional[Dict[int, float]] = None,
                   bank: Optional[FilterBank] = None) -> CompiledSDE:
    """Compile series into numeric term lists and their ``RatesPlan`` (the
    one place series terms become floats; ``CompiledSDE.rates`` evaluates
    them).

    ``state_of`` maps a monomial to state exponents; parameter exponents are
    folded into the coefficient using ``params``.  ``bank.slot_for`` numbers
    the convolution factors; a ``FilterBank`` rejects anticipatory rates.
    """
    bank = FilterBank() if bank is None else bank
    all_terms: List[List[CompiledTerm]] = []
    amps = np.ones(n_noise)
    for k, a in (noise_amp or {}).items():
        amps[k] = a
    for s in series_list:
        terms: List[CompiledTerm] = []
        for (mono, expr), c in s.terms.items():
            coeff = float(c)
            for name, e in zip(param_names, mono[2]):
                if e:
                    coeff *= params[name] ** e
            bares = [a for a in expr if noise.is_bare(a)]
            convs = [a for a in expr if noise.is_conv(a)]
            if len(bares) > 1:
                raise CompileError(f"term with two bare noise factors: {expr}")
            slots = tuple(bank.slot_for(a) for a in convs)
            k = bares[0][1] if bares else -1
            terms.append(CompiledTerm(coeff, state_of(mono), slots, k))
        all_terms.append(terms)
    return CompiledSDE(tuple(state_names), n_noise, all_terms, bank, amps,
                       plan_rates(all_terms, n_noise))


def compile_full_system(spec: SystemSpec, params: Dict[str, float]) -> CompiledSDE:
    """The original system, state (slow..., fast...)."""
    xdot = [spec.linear_xdot()[i] + spec.f[i] for i in range(spec.m)]
    ydot = [spec.linear_ydot()[j] + spec.g[j] for j in range(spec.n)]

    def state_of(mono):
        return tuple(mono[0]) + tuple(mono[1])

    return compile_series(xdot + ydot, spec.slow_names + spec.fast_names,
                          state_of, params, spec.param_names, spec.n_noise)


def compile_slow_model(nf: NormalForm, params: Dict[str, float],
                       n_noise: Optional[int] = None,
                       noise_amp: Optional[Dict[int, float]] = None,
                       F_override: Optional[Sequence[Series]] = None) -> CompiledSDE:
    """The decoupled slow evolution dX = AX + F, state (slow...)."""
    spec = nf.spec
    F = list(F_override) if F_override is not None else nf.F
    xdot = [spec.linear_xdot()[i] + F[i] for i in range(spec.m)]
    for s in xdot:
        for (mono, _e), _c in s.terms.items():
            if sum(mono[1]) != 0:
                raise CompileError("slow model depends on fast variables")

    def state_of(mono):
        return tuple(mono[0])

    return compile_series(xdot, spec.slow_names, state_of, params,
                          spec.param_names, n_noise or spec.n_noise, noise_amp)


@dataclass
class ObservableSet:
    """Series evaluated along a simulation (e.g. a manifold chart)."""
    sde: CompiledSDE

    def values(self, state: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.sde.rates(state, z)[0]


def sampleable_part(s: Series) -> Tuple[Series, List[Tuple]]:
    """Split off terms whose noise cannot be evaluated pointwise (bare
    factors, or bare noise buried inside a convolution's child product)."""
    good: Dict = {}
    dropped: List[Tuple] = []

    def pointwise(expr: Expr) -> bool:
        for a in expr:
            if noise.is_bare(a):
                return False
            child = a[2]
            if len(child) == 1 and noise.is_bare(child[0]):
                continue
            if not pointwise(child):
                return False
        return True

    for (mono, expr), c in s.terms.items():
        if pointwise(expr):
            good[(mono, expr)] = c
        else:
            dropped.append(((mono, expr), c))
    return s.build_like(good), dropped


def compile_observables(series_list: Sequence[Series], base: CompiledSDE,
                        params: Dict[str, float], param_names: Sequence[str],
                        state_of: Callable) -> ObservableSet:
    """Observables read off the state and filters of ``base``.  Bare noise
    has no value at a time, only an increment: a term carrying it raises
    CompileError naming the term (unit coefficient, the base's state names)."""
    for i, s in enumerate(series_list):
        for (mono, expr), _c in s.terms.items():
            if any(noise.is_bare(a) for a in expr):
                m, n = s.dims.m, s.dims.n
                fast = tuple(base.state_names[m:m + n])
                names = (tuple(base.state_names[:m]),
                         fast + tuple(f"y{j}" for j in range(len(fast), n)),
                         tuple(param_names))
                term = render_series(s.build_like({(mono, expr): 1}), names)
                raise CompileError(f"observable {i} carries bare noise: {term}")
    sde = compile_series(series_list, [f"obs{i}" for i in range(len(series_list))],
                         state_of, params, param_names, base.n_noise,
                         bank=base.bank)
    return ObservableSet(sde)


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
        replicate that overflows stays non-finite)."""
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


def sample_steps(sample_times: Sequence[float], T: float,
                 dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted sample times and their step indices; ValueError naming a time
    outside [0, T]."""
    times = np.asarray(sorted(sample_times), dtype=float)
    for t in times:
        if not -1e-12 <= t <= T + 1e-12:
            raise ValueError(f"sample time {t:g} outside the horizon [0, {T:g}]")
    return times, np.asarray([int(round(t / dt)) for t in times])


def run_ensemble(sde: CompiledSDE, x0: Sequence[float], T: float, dt: float,
                 n_rep: int, seed: int, sample_times: Sequence[float],
                 observables: Optional[ObservableSet] = None,
                 chunk: int = 512, warm: Optional[float] = None) -> EnsembleResult:
    """Integrate an ensemble and record state (or observables) at the
    requested times.  Deterministic given the master seed.

    A chunk of ``chunk`` replicates is one random stream spawned from the
    master seed: it draws its filters' warm-up, then its horizon increments.
    Chunks warm up one after another; the horizon steps all replicates as
    one array, each chunk's increments filling its own columns, so a
    replicate's path does not depend on how many chunks step beside it.
    Once every replicate has a non-finite component, stepping stops and the
    remaining sample times record NaN."""
    sample_times, sample_idx = sample_steps(sample_times, T, dt)
    n_steps = int(round(T / dt))
    warm_time = sde.bank.max_spin() if warm is None else warm
    warm_steps = int(math.ceil(warm_time / dt))
    sde.bank.prepare(dt)
    n_out = observables.sde.dim if observables else sde.dim
    names = observables.sde.state_names if observables else sde.state_names
    out = np.empty((n_rep, len(sample_times), n_out))
    master = np.random.SeedSequence(seed)
    chunks = [(lo, min(lo + chunk, n_rep)) for lo in range(0, n_rep, chunk)]
    rngs = [np.random.default_rng(child) for child in master.spawn(len(chunks))]
    sqdt = math.sqrt(dt)

    def draw(steps, rng, R):
        # one draw of (steps, n_noise, R) is the stream of `steps`
        # successive (n_noise, R) draws
        return rng.standard_normal((steps, sde.n_noise, R)) * sqdt

    z = np.empty((sde.bank.n, n_rep))
    for rng, (lo, hi) in zip(rngs, chunks):
        z_c = sde.bank.make_state(hi - lo)
        for b0 in range(0, warm_steps, _BLOCK):
            z_c = sde.bank.step(z_c, draw(min(_BLOCK, warm_steps - b0), rng, hi - lo))[-1]
        z[:, lo:hi] = z_c
    state = np.tile(np.asarray(x0, dtype=float)[:, None], (1, n_rep))
    block = max(1, _BLOCK * 512 // n_rep)
    amp = sde.noise_amp[:, None]
    pos = 0
    for t_i in range(n_steps + 1):
        while pos < len(sample_idx) and sample_idx[pos] == t_i:
            out[:, pos, :] = (observables.values(state, z) if observables
                              else state).T
            pos += 1
        if t_i == n_steps:
            break
        if t_i % _BLOCK == 0 and not np.isfinite(state).all(axis=0).any():
            out[:, pos:, :] = np.nan        # a non-finite state stays so
            break
        j = t_i % block
        if j == 0:
            # filter the next block only now: one block is held at a time
            steps = min(block, n_steps - t_i)
            dw_block = np.concatenate([draw(steps, rng, hi - lo)
                                       for rng, (lo, hi) in zip(rngs, chunks)],
                                      axis=2)
            z_block = sde.bank.step(z, dw_block)
            dw_amp_block = dw_block * amp
        dw_amp = dw_amp_block[j]
        z_ends = (z, z_block[j])

        def increment(y, end):
            drift, diff = sde.rates(y, z_ends[end])
            return drift * dt + np.einsum("dkr,kr->dr", diff, dw_amp)

        state = heun_step(state, increment)
        z = z_ends[1]
    return EnsembleResult(sample_times, out, tuple(names))
