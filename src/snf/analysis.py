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
from .series import Series, prefixes
from .systems import NormalForm


class AnalysisError(Exception):
    pass


@dataclass
class SsmChart:
    """The invariant manifold in original coordinates: the transform with the
    fast variables set to zero, parametrised by the slow variables.  Its
    terms are the transform's fast-free terms, in their order."""
    x_of_X: List[Series]
    y_of_X: List[Series]


def ssm_parametrisation(nf: NormalForm) -> SsmChart:
    chart = []
    for s in nf.transform_x() + nf.transform_y():
        kept = {(mono, expr): c for (mono, expr), c in s.terms.items() if not any(mono[1])}
        for _mono, expr in kept:
            if noise.anticipates(expr):
                raise AnalysisError(
                    "anticipatory convolution on the slow manifold: "
                    f"{render_noise(expr)}")
        chart.append(s.build_like(kept))
    return SsmChart(chart[:nf.spec.m], chart[nf.spec.m:])


@dataclass
class Expected:
    """Term-wise expectation of a series.  Terms whose noise product the
    moment recursion of ``noise.expectation`` does not reach (a mixed-side
    convolution, two bare factors, or a bare factor beside a future
    convolution) are kept symbolically instead of being guessed; no
    slow-manifold chart has one."""
    value: Series
    unevaluable: List[Tuple] = field(default_factory=list)


def expected_series(s: Series) -> Expected:
    return Expected(*_expect_terms(s, _expectation))


def chart_expectation(s: Series, lhs: str) -> Series:
    """The expectation of the slow-manifold chart line ``lhs = s``.  A
    derived chart holds past convolutions only, which the moment recursion
    always evaluates; any other term raises AnalysisError naming it."""
    got = expected_series(s)
    if got.unevaluable:
        (_mono, expr), _c = got.unevaluable[0]
        raise AnalysisError(f"no stationary expectation of {render_noise(expr)} "
                            f"in chart line '{lhs} = ...'")
    return got.value


def _expectation(expr: Expr) -> Optional[Tuple[Expr, Fraction]]:
    e = noise.expectation(expr)
    return None if e is None else (ONE, e)


def _expect_terms(s: Series, rule) -> Tuple[Series, List[Tuple]]:
    """Apply an expectation ``rule`` term by term.  The rule maps a noise
    product to (the noise it keeps, a rational factor), or to None when it
    cannot evaluate it; such terms go to the returned tail."""
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

    The inverse ``U``, ``V`` is built grade by grade (the order-by-order
    composition inverse of Brent & Kung, J. ACM 25, 1978), and each grade is
    computed once (online composition, van der Hoeven, J. Symb. Comput. 34,
    2002).  Grades add under products, so the grade-k slice of
    ``xi(U, V)`` reads ``U``, ``V`` through grade k only, and a level's grade
    is final once the level reaches its fixed point.

    A cache kept across levels holds the image under ``(U, V)`` of every
    monomial of ``xi`` and ``eta`` and of every prefix of one (its factors in
    slow, fast, parameter order); parameters map to themselves.  A
    monomial's image is the image of its prefix one factor shorter times the
    image of its last factor (the rule of ``series.prefix_images``, which
    ``Series.substitute`` runs whole), so its grade-k slice is a sum of
    ``Series.mul_grade`` products.  The pairs of grades below k are final and
    are multiplied once per level.  Only the pairs of a grade-k slice with a
    grade-0 part, known after level 0, are redone at each sweep, and only
    the images that have a grade-0 part take them.

    Only grade k is wrong at the start of a level, and a sweep passes that
    error on through the grade-preserving part of the transform alone
    (linear couplings such as ``y = Y + X`` under ``grade_fast off``).  That
    part must be nilpotent for the inverse to exist as a series, so one sweep
    per component clears the error and one more sees the grade-k slice
    unchanged: each level has ``m + n + 1`` sweeps.
    """
    dims, trunc = nf.spec.dims, nf.spec.trunc
    sweeps, nvar = dims.m + dims.n + 1, dims.m + dims.n
    zero = Series.zero(dims, trunc)
    # The monomials that take no product: 1 and each single factor, keyed by
    # its position in the exponent vector (variables, then parameters).
    atoms = {(): Series.const(dims, trunc, 1)}
    atoms.update(((v,), Series.var(dims, trunc, part, i)) for v, (part, i) in enumerate(
        (part, i) for part, size in enumerate(dims.sizes) for i in range(size)))
    # Each component as (monomial factors, noise coefficient) pairs.
    comps = [series.by_monomial() for series in nf.xi + nf.eta]
    products = prefixes(f for comp in comps for f, _c in comp)
    done = dict.fromkeys(list(atoms) + products, zero)   # each image below grade k
    ground = {}                           # each image's grade-0 part, if it has one
    for k in range(trunc.total + 1):
        fixed = {f: done[f[:-1]].mul_grade(done[f[-1:]], k) for f in products}
        part = {a: x if x.lowest_grade() == k else zero for a, x in atoms.items()}
        target = [part[(v,)] for v in range(nvar)]
        part.update(((v,), zero) for v in range(nvar))
        # (component, monomial) -> (slice, slice times its coefficients), kept
        # while a sweep leaves the slice the same object
        memo = {}

        def term(v, f, c):
            got = memo.get((v, f))
            if got is None or got[0] is not part[f]:
                got = memo[(v, f)] = (part[f], part[f].mul_grade(c, k))
            return got[1]

        for _ in range(sweeps):
            for f in products:
                head, last = f[:-1], f[-1:]
                if k == 0:
                    part[f] = part[head].mul_grade(part[last], 0)
                    continue
                cross = [part[a].mul_grade(ground[b], k)
                         for a, b in ((last, head), (head, last)) if b in ground]
                part[f] = fixed[f].plus(cross) if cross else fixed[f]
            new = [target[v] - zero.plus(term(v, f, c) for f, c in comps[v])
                   for v in range(nvar)]
            if all(new[v] == part[(v,)] for v in range(nvar)):
                break
            part.update(((v,), x) for v, x in enumerate(new))
        else:
            raise AnalysisError(
                f"reversion did not reach a fixed point at grade {k} "
                f"within {sweeps} sweeps")
        done = {f: x + part[f] for f, x in done.items()}
        if k == 0:
            ground = {f: x for f, x in done.items() if not x.is_zero()}
    return Reversion([done[(i,)] for i in range(dims.m)],
                     [done[(dims.m + j,)] for j in range(dims.n)])


@dataclass
class InitialProjection:
    """Projection of an observed state onto the slow model.

    ``expr`` is the exact symbolic projection (noise integrals and all);
    ``mean``/``variance`` evaluate it by the moment recursion of
    ``noise.expectation``, either unconditionally or conditional on knowing
    the future noise (the noise a forecast simulation will itself draw).
    The reversion mixes past and future noise, so products with a
    mixed-side convolution, or a bare factor beside a future one, occur;
    they are carried symbolically in the ``*_tail`` fields.
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
        s = noise.atom_side(a)
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


def project_initial_condition(rev: Reversion, nf: NormalForm, x0, y0) -> InitialProjection:
    """The start with every slow variable at ``x0`` and every fast one at
    ``y0``, projected onto the first slow coordinate X."""
    dims = nf.spec.dims
    base = nf.spec.trunc
    expr = rev.X_of_xy[0].substitute(slow=[Series.const(dims, base, Fraction(x0))] * dims.m,
                                     fast=[Series.const(dims, base, Fraction(y0))] * dims.n)
    # Squaring for the variance doubles the noise grade; widen the window so
    # the square of an order-N projection is computed exactly.
    trunc = replace(base, total=2 * base.total, param_caps=(None,) * len(dims.params))
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
    rate: Fraction
    intensity: Fraction      # variance per unit time; amplitude sqrt(intensity)


@dataclass
class LongTimeModel:
    """Slow evolution with irreducible quadratic noise replaced, over long
    times, by its mean drift plus an independent effective white noise: with
    z = Z[mu<0]{ phi_k }, both moments from ``noise.expectation``,

        phi_k z  ->  E[phi_k z] + sqrt(E[z^2]) phi_new  =  1/2 + sqrt(1/(2|mu|)) phi_new.

    The fresh symbol's amplitude is carried as ``intensity`` metadata so all
    series coefficients stay rational.
    """
    F: List[Series]
    fresh: List[FreshNoise]
    leftovers: List[Tuple]


def noise_free_part(series: List[Series]) -> List[Series]:
    """Each series' terms that carry no noise factor."""
    return [s.build_like({k: c for k, c in s.terms.items() if k[1] == ONE})
            for s in series]


def long_time_model(nf: NormalForm) -> LongTimeModel:
    dims, trunc = nf.spec.dims, nf.spec.trunc
    fresh: Dict[Tuple[int, Fraction], FreshNoise] = {}     # by (k, mu)
    leftovers: List[Tuple] = []
    out_series: List[Series] = []
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
            if pair not in fresh:
                z = expr[1]                 # Z[mu]{ phi[k] }
                fresh[pair] = FreshNoise(index=dims.noises + len(fresh), rate=pair[1],
                                         intensity=noise.expectation((z, z)))
            pairs.append(((mono, ONE), c * noise.expectation(expr)))
            pairs.append(((mono, (noise.phi_atom(fresh[pair].index),)), c))
        out_series.append(Series(dims, trunc, noise.add_into({}, pairs)))
    return LongTimeModel(out_series, list(fresh.values()), leftovers)
