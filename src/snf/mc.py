"""Stratonovich Monte Carlo: compiled SDE models, Heun stepping, ensembles.

A series-defined evolution compiles to drift/diffusion term lists over a
numeric state vector, and to the plan that ``CompiledSDE.rates`` evaluates:
each distinct state power once per call, then each term as its coefficient
times its factors, added into its row in term order.  Memory convolutions
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
increments.  Warm-up and horizon step all chunks as one array, in blocks of
the same size, each chunk's increments filling its own columns.  A chunk draws each block's increments in one call into a buffer
of its own, which consumes its stream exactly as one draw per step would,
and scales them into its columns of one increment block reused throughout.

Heun (explicit midpoint) stepping: terms carrying one bare noise factor
contribute coefficient * dW, terms without contribute coefficient * dt, and
the corrector averages coefficients at the step's two ends, which is what
makes the scheme converge to the Stratonovich solution.  The step is
written once, in ``heun_path``'s loop, which single paths walk; ensembles
step with ``heun_step``, its one-step case.

``run_filter`` is ``scipy.signal.lfilter``, imported at its first call and
not with this module.  Only path sampling runs it; ensembles step the bank
themselves.  Importing it up front made ``scipy.signal`` (and with it
``scipy.stats``) most of the start-up time and memory of every process that
imports this module, ``snf simulate``, ``compare`` and ``hopf`` among them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import noise
from .render import render_noise, render_series
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


def heun_step(x, increment):
    """One Stratonovich Heun step of an array or scalar ``x``: the one-step
    case of ``heun_path``.  ``increment(y, end)`` is f dt + g dW, with the
    step's one dW, at the start (end=0, y=x) or at the end time and the
    predictor (end=1, y=x+first increment)."""
    return heun_path(x, 1, lambda y, _i, end: increment(y, end))[1]


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
    the convolution factors: a ``FilterBank`` rejects anticipatory ones, a
    ``snf.paths.PathSampler`` samples them on its path.
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
            ks, convs = noise.split_bare(expr)
            if len(ks) > 1:
                raise CompileError(
                    f"term with two bare noise factors: {render_noise(expr)}")
            slots = tuple(bank.slot_for(a) for a in convs)
            terms.append(CompiledTerm(coeff, state_of(mono), slots, ks[0] if ks else -1))
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
                          spec.param_names, n_noise, amps)


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
        for (mono, expr), _c in s.terms.items():
            if not noise.pointwise(expr):
                m, n = s.dims.m, s.dims.n
                fast = tuple(base.state_names[m:m + n])
                names = (tuple(base.state_names[:m]),
                         fast + tuple(f"y{j}" for j in range(len(fast), n)),
                         tuple(param_names))
                term = render_series(s.build_like({(mono, expr): 1}), names)
                raise CompileError(f"observable {i} carries bare noise: {term}")
    return compile_series(series_list, [f"obs{i}" for i in range(len(series_list))],
                          state_of, params, param_names, base.n_noise,
                          bank=base.bank)


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


def grid_steps(t: float, dt: float, what: str) -> int:
    """t as a whole number of steps of dt; ValueError naming ``what`` when t
    is off the step grid by more than 1e-9 steps."""
    n = round(t / dt)
    if abs(t / dt - n) > 1e-9:
        raise ValueError(f"{what} {t:g} is not a whole number of steps of dt = {dt:g}")
    return int(n)


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
    increments.  ``T`` and every sample time must lie on the step grid
    (``grid_steps``).
    Warm-up and horizon step all replicates as one array, each chunk's
    increments filling its own columns, so a replicate's path does not
    depend on how many chunks step beside it.
    Once every replicate has a non-finite component, stepping stops and the
    remaining sample times record NaN."""
    n_steps = grid_steps(T, dt, "horizon")
    sample_times, sample_idx = sample_steps(sample_times, T, dt)
    warm_steps = warm_up(sde.bank, dt, warm)[1]
    sde.bank.prepare(dt)
    names = (observables or sde).state_names
    out = np.empty((n_rep, len(sample_times), len(names)))
    master = np.random.SeedSequence(seed)
    chunks = [(lo, min(lo + chunk, n_rep)) for lo in range(0, n_rep, chunk)]
    rngs = [np.random.default_rng(child) for child in master.spawn(len(chunks))]
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
            pos += 1
        if t_i == n_steps:
            break
        if t_i % _BLOCK == 0 and not np.isfinite(state).all(axis=0).any():
            out[:, pos:, :] = np.nan        # a non-finite state stays so
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

        def increment(y, end):
            drift, diff = sde.rates(y, z_ends[end])
            return drift * dt + np.einsum("dkr,kr->dr", diff, dw_amp)

        state = heun_step(state, increment)
        z = z_ends[1]
    return EnsembleResult(sample_times, out, tuple(names))
