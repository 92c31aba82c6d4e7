"""Post-processing of a constructed normal form: slow-manifold charts,
their expectations, transform reversion, initial-condition projection, and
the long-time replacement of irreducible quadratic noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import noise
from .noise import Expr, ONE
from .render import render_noise
from .series import Series
from .systems import NormalForm


class AnalysisError(Exception):
    pass


@dataclass
class SsmChart:
    """The invariant manifold in original coordinates: the transform with the
    fast variables set to zero, parametrised by the slow variables."""
    x_of_X: List[Series]
    y_of_X: List[Series]


def ssm_parametrisation(nf: NormalForm) -> SsmChart:
    dims, trunc = nf.spec.dims, nf.spec.trunc
    zero = [Series.zero(dims, trunc) for _ in range(dims.n)]
    xs = [s.substitute(fast=zero) for s in nf.transform_x()]
    ys = [s.substitute(fast=zero) for s in nf.transform_y()]
    for s in xs + ys:
        for (_mono, expr), _c in s.terms.items():
            if noise.anticipates(expr):
                raise AnalysisError(
                    "anticipatory convolution on the slow manifold: "
                    f"{render_noise(expr)}")
    return SsmChart(xs, ys)


@dataclass
class Expected:
    """Term-wise expectation of a series; terms the rule tables cannot
    evaluate are reported symbolically instead of being guessed."""
    value: Series
    unevaluable: List[Tuple] = field(default_factory=list)


def expected_series(s: Series) -> Expected:
    return Expected(*_expect_terms(s, _expectation))


def _expectation(expr: Expr) -> Optional[Tuple[Expr, Fraction]]:
    e = noise.expectation(expr)
    return None if e is None else (ONE, e)


def _expect_terms(s: Series, rule) -> Tuple[Series, List[Tuple]]:
    """Apply an expectation ``rule`` term by term.  The rule maps a noise
    product to (the noise it keeps, a rational factor), or to None when the
    tables cannot evaluate it; such terms go to the returned tail."""
    pairs, tail = [], []
    for (mono, expr), c in s.terms.items():
        got = rule(expr)
        if got is None:
            tail.append(((mono, expr), c))
        else:
            pairs.append(((mono, got[0]), c * got[1]))
    return Series(s.dims, s.trunc, noise.add_into({}, pairs)), tail


def expected_ssm(chart: SsmChart) -> Tuple[List[Expected], List[Expected]]:
    return ([expected_series(s) for s in chart.x_of_X],
            [expected_series(s) for s in chart.y_of_X])


@dataclass
class Reversion:
    """The inverse transform: the decoupled variables as series in the
    original ones (original slots reuse the slow/fast variable positions)."""
    X_of_xy: List[Series]
    Y_of_xy: List[Series]


def revert(nf: NormalForm) -> Reversion:
    """Compositional inverse of the near-identity transform to the working
    order: X = x - xi(X, Y), Y = y - eta(X, Y).

    The inverse is built grade by grade (the order-by-order composition
    inverse of Brent & Kung, J. ACM 25, 1978): at working order k the
    transform and the order-(k-1) inverse are truncated to order k and the
    iteration runs to its fixed point there.  Only grade k is wrong at the
    start of a level, and a sweep passes that error on through the
    grade-preserving part of the transform alone (linear couplings such as
    ``y = Y + X`` under ``grade_fast off``).  That part must be nilpotent for
    the inverse to exist as a series, so one sweep per component clears the
    error and one more sees the fixed point.
    """
    dims, full = nf.spec.dims, nf.spec.trunc
    sweeps = dims.m + dims.n + 1
    U = [Series.slow_var(dims, full, i) for i in range(dims.m)]
    V = [Series.fast_var(dims, full, j) for j in range(dims.n)]
    for k in range(full.total + 1):
        trunc = replace(full, total=k)
        xi = [s.with_trunc(trunc) for s in nf.xi]
        eta = [s.with_trunc(trunc) for s in nf.eta]
        x_vars = [Series.slow_var(dims, trunc, i) for i in range(dims.m)]
        y_vars = [Series.fast_var(dims, trunc, j) for j in range(dims.n)]
        U = [u.with_trunc(trunc) for u in U]
        V = [v.with_trunc(trunc) for v in V]
        for _ in range(sweeps):
            U2 = [x_vars[i] - xi[i].substitute(slow=U, fast=V) for i in range(dims.m)]
            V2 = [y_vars[j] - eta[j].substitute(slow=U, fast=V) for j in range(dims.n)]
            if U2 == U and V2 == V:
                break
            U, V = U2, V2
        else:
            raise AnalysisError(
                f"reversion did not reach a fixed point at grade {k} "
                f"within {sweeps} sweeps")
    return Reversion(U, V)


@dataclass
class InitialProjection:
    """Projection of an observed state onto the slow model.

    ``expr`` is the exact symbolic projection (noise integrals and all);
    ``mean``/``variance`` evaluate it under the expectation tables, either
    unconditionally or conditional on knowing the future noise (the noise a
    forecast simulation will itself draw).  Unevaluable pieces are carried
    symbolically in the ``*_tail`` fields.
    """
    expr: Series
    mean: Series
    mean_tail: List[Tuple]
    variance: Series
    variance_tail: List[Tuple]
    mean_future_known: Series
    variance_future_known: Series
    future_tails: List[Tuple]


def _split_future(expr: Expr) -> Optional[Tuple[Expr, Expr]]:
    """Split a product into (future-measurable, rest); None when a factor
    straddles both sides."""
    fut, rest = [], []
    for a in expr:
        s = noise._side(a)
        if noise.is_bare(a):
            rest.append(a)
        elif s == 1:
            fut.append(a)
        elif s == -1:
            rest.append(a)
        else:
            return None
    return noise.product(*fut), noise.product(*rest)


def _conditional_expectation(expr: Expr) -> Optional[Tuple[Expr, Fraction]]:
    """E[expr | future noise], as known-future-factor times a rational."""
    split = _split_future(expr)
    if split is None:
        return None
    fut, rest = split
    e = noise.expectation(rest)
    if e is None:
        return None
    return fut, e


def project_initial_condition(rev: Reversion, nf: NormalForm,
                              x0, y0, component: int = 0) -> InitialProjection:
    dims = nf.spec.dims
    base = nf.spec.trunc
    consts_x = [Series.const(dims, base, Fraction(v)) for v in
                (x0 if isinstance(x0, (list, tuple)) else [x0] * dims.m)]
    consts_y = [Series.const(dims, base, Fraction(v)) for v in
                (y0 if isinstance(y0, (list, tuple)) else [y0] * dims.n)]
    expr = rev.X_of_xy[component].substitute(slow=consts_x, fast=consts_y)
    # Squaring for the variance doubles the noise grade; widen the window so
    # the square of an order-N projection is computed exactly.
    from .series import Trunc
    trunc = Trunc(2 * base.total, tuple(None for _ in dims.params),
                  base.count_fast)
    expr = expr.with_trunc(trunc)

    mean = expected_series(expr)
    centered = expr - mean.value
    var = expected_series(centered * centered)

    # Conditional on the future noise (the draw a forecast will use).
    mean_future, tails = _expect_terms(expr, _conditional_expectation)
    centered_f = expr - mean_future
    var_future, var_tails = _expect_terms(centered_f * centered_f,
                                          _conditional_expectation)
    return InitialProjection(
        expr=expr, mean=mean.value, mean_tail=mean.unevaluable,
        variance=var.value, variance_tail=var.unevaluable,
        mean_future_known=mean_future, variance_future_known=var_future,
        future_tails=tails + var_tails)


@dataclass
class FreshNoise:
    index: int
    source_symbol: int
    rate: Fraction
    intensity: Fraction      # variance per unit time; amplitude sqrt(intensity)
    provenance: str


@dataclass
class LongTimeModel:
    """Slow evolution with irreducible quadratic noise replaced, over long
    times, by its mean drift plus an independent effective white noise:

        phi_k Z[mu<0] phi_k  ->  1/2 + sqrt(1/(2|mu|)) phi_new.

    The fresh symbol's amplitude is carried as ``intensity`` metadata so all
    series coefficients stay rational.
    """
    F: List[Series]
    fresh: List[FreshNoise]
    leftovers: List[Tuple]

    def deterministic_part(self) -> List[Series]:
        return [s.build_like({k: c for k, c in s.terms.items() if k[1] == ONE})
                for s in self.F]


def long_time_model(nf: NormalForm) -> LongTimeModel:
    dims, trunc = nf.spec.dims, nf.spec.trunc
    fresh: List[FreshNoise] = []
    fresh_by_source: Dict[Tuple[int, Fraction], int] = {}
    leftovers: List[Tuple] = []
    out_series: List[Series] = []
    next_index = dims.noises
    for i, F in enumerate(nf.F):
        pairs: List[Tuple] = []
        for (mono, expr), c in F.terms.items():
            if expr == ONE or (len(expr) == 1 and noise.is_bare(expr[0])):
                pairs.append(((mono, expr), c))
                continue
            pair = noise.quad_pair(expr)
            if pair is None:
                leftovers.append((i, (mono, expr), c))
                pairs.append(((mono, expr), c))
                continue
            k, mu = pair
            key = (k, mu)
            if key not in fresh_by_source:
                fresh_by_source[key] = next_index
                fresh.append(FreshNoise(
                    index=next_index, source_symbol=k, rate=mu,
                    intensity=Fraction(1, 2) / abs(mu),
                    provenance=f"phi[{k}]*Z[{mu}]{{phi[{k}]}}"))
                next_index += 1
            pairs.append(((mono, ONE), c * Fraction(1, 2)))
            pairs.append(((mono, (noise.phi_atom(fresh_by_source[key]),)), c))
        out_series.append(Series(dims, trunc, noise.add_into({}, pairs)))
    return LongTimeModel(out_series, fresh, leftovers)
