"""Stratonovich Monte Carlo: compiled SDE models, Heun stepping, ensembles.

A series-defined evolution compiles to drift/diffusion term lists over a
numeric state vector.  Memory convolutions appearing as coefficients become
a bank of exponential filters (exact update, variance-matched noise
weight) that is warmed up before time zero and advanced alongside the
state.  The filters are driven by noise alone, so the bank advances a block
of steps at a time, each filter one ``lfilter`` recursion along the block;
the state is stepped one step at a time inside the block.  Replicates are
integrated in vectorised chunks, each chunk drawing from its own spawned
random stream, so results are reproducible from the master seed and
independent across replicates.  A chunk draws each block's increments in
one call, which consumes the stream exactly as one draw per step would.

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
from .series import Series
from .systems import SystemSpec, NormalForm


# Steps per FilterBank.step call in run_ensemble.  Longer blocks amortise
# the per-slot lfilter call but hold more memory: in 512-replicate chunks of
# the toy chart's five filters, 32 steps added about 2 MiB of peak RSS over
# stepping one step at a time, 64 steps about 6 MiB.
_BLOCK = 32


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
        if len(child) == 1 and noise.is_bare(child[0]):
            slot = FilterSlot(mu, "w", driver_k=child[0][1],
                              spin_time=10.0 / abs(mu))
        else:
            if any(noise.is_bare(a) for a in child):
                raise CompileError(f"bare noise nested inside a convolution: {child}")
            subs = tuple(self.slot_for(a) for a in child)
            spin = 10.0 / abs(mu) + max(self.slots[s].spin_time for s in subs)
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
        self._a = np.array([math.exp(s.rate * dt) for s in self.slots])
        self._c = np.array([
            math.sqrt((1.0 - math.exp(2 * s.rate * dt)) / (2.0 * abs(s.rate)) / dt)
            if s.driver_kind == "w" else 0.0 for s in self.slots])
        self._dt = dt

    def step(self, z: np.ndarray, dw: np.ndarray) -> np.ndarray:
        """Advance every slot over a block of steps from state ``z`` (n, R);
        ``dw`` has shape (steps, n_noise, R).  Returns the state after each
        step, shape (steps, n, R) (a view of a time-last array).

        Each slot is one first-order recursion y[t] = a y[t-1] + x[t] along
        time, run by ``lfilter`` (time on the last axis, where it is
        contiguous).  A Brownian slot's input is c dW; a product slot's is
        the trapezoid (dt/2)(a u[t-1] + u[t]) of its drivers' product u,
        whose trajectories are already computed because drivers have lower
        slot numbers.  Both are the per-step recursion's own operations, so
        the result is bitwise that of stepping one step at a time."""
        steps, _, R = dw.shape
        out = np.empty((self.n, R, steps))
        dw_t = np.moveaxis(dw, 0, -1).copy()
        for i, s in enumerate(self.slots):
            a = self._a[i]
            if s.driver_kind == "w":
                x = self._c[i] * dw_t[s.driver_k]
            else:
                u_new = out[s.driver_slots[0]]
                u_0 = z[s.driver_slots[0]]
                for d in s.driver_slots[1:]:
                    u_new = u_new * out[d]
                    u_0 = u_0 * z[d]
                u_old = np.concatenate((u_0[:, None], u_new[:, :-1]), axis=1)
                x = (self._dt / 2.0) * (a * u_old + u_new)
            out[i], _ = lfilter([1.0], [1.0, -a], x, axis=-1,
                                zi=(a * z[i])[:, None])
        return np.moveaxis(out, -1, 0)


@dataclass
class CompiledTerm:
    coeff: float
    pows: Tuple[int, ...]
    conv_slots: Tuple[int, ...]
    noise_k: int = -1               # -1: drift term


@dataclass
class CompiledSDE:
    """Numeric drift/diffusion term lists per state component."""
    state_names: Tuple[str, ...]
    n_noise: int
    terms: List[List[CompiledTerm]]
    bank: FilterBank
    noise_amp: np.ndarray           # per-symbol amplitude multiplier

    @property
    def dim(self) -> int:
        return len(self.state_names)

    def coefficient(self, term: CompiledTerm, state: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
        val = np.full(state.shape[1], term.coeff)
        for d, p in enumerate(term.pows):
            if p:
                val = val * state[d] ** p
        for s in term.conv_slots:
            val = val * z[s]
        return val

    def rates(self, state: np.ndarray, z: np.ndarray):
        """Split evaluation: drift (dim, R) and diffusion (dim, n_noise, R)."""
        R = state.shape[1]
        drift = np.zeros((self.dim, R))
        diff = np.zeros((self.dim, self.n_noise, R))
        for d, terms in enumerate(self.terms):
            for t in terms:
                c = self.coefficient(t, state, z)
                if t.noise_k < 0:
                    drift[d] += c
                else:
                    diff[d, t.noise_k] += c
        return drift, diff


def compile_series(series_list: Sequence[Series], state_names: Sequence[str],
                   state_of: Callable[[Tuple], Tuple[int, ...]],
                   params: Dict[str, float], param_names: Sequence[str],
                   n_noise: int,
                   noise_amp: Optional[Dict[int, float]] = None,
                   bank: Optional[FilterBank] = None) -> CompiledSDE:
    """Compile series into numeric term lists (the one place series terms
    become floats; ``CompiledSDE.rates`` evaluates them).

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
    return CompiledSDE(tuple(state_names), n_noise, all_terms, bank, amps)


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
        drift, diff = self.sde.rates(state, z)
        if np.any(diff):
            raise CompileError("observables cannot carry bare noise")
        return drift


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
    requested times.  Deterministic given the master seed."""
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
    for child, (lo, hi) in zip(master.spawn(len(chunks)), chunks):
        rng = np.random.default_rng(child)
        R = hi - lo
        state = np.tile(np.asarray(x0, dtype=float)[:, None], (1, R))
        z = sde.bank.make_state(R)
        sqdt = math.sqrt(dt)

        def draw(steps):
            # one draw of (steps, n_noise, R) is the stream of `steps`
            # successive (n_noise, R) draws
            return rng.standard_normal((steps, sde.n_noise, R)) * sqdt

        for b0 in range(0, warm_steps, _BLOCK):
            z = sde.bank.step(z, draw(min(_BLOCK, warm_steps - b0)))[-1]
        pos = 0
        for t_i in range(n_steps + 1):
            while pos < len(sample_idx) and sample_idx[pos] == t_i:
                if observables:
                    out[lo:hi, pos, :] = observables.values(state, z).T
                else:
                    out[lo:hi, pos, :] = state.T
                pos += 1
            if t_i == n_steps:
                break
            j = t_i % _BLOCK
            if j == 0:
                # filter the next block only now: one block is held at a time
                dw_block = draw(min(_BLOCK, n_steps - t_i))
                z_block = sde.bank.step(z, dw_block)
            dw = dw_block[j]
            dw_amp = dw * sde.noise_amp[:, None]
            z_ends = (z, z_block[j])

            def increment(y, end):
                drift, diff = sde.rates(y, z_ends[end])
                return drift * dt + np.einsum("dkr,kr->dr", diff, dw_amp)

            state = heun_step(state, increment)
            z = z_ends[1]
    return EnsembleResult(sample_times, out, tuple(names))
