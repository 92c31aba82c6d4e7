"""Slow-manifold charts, expectations, reversion, initial conditions, and
the long-time quadratic-noise replacement."""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_system
from snf import noise
from snf.analysis import (AnalysisError, Reversion, expected_series, expected_ssm,
                          long_time_model, noise_free_part, project_initial_condition,
                          revert, ssm_parametrisation)
from snf.engine import construct
from snf.render import parse_series_for
from snf.series import Series
from snf.systems import ALLOW, FORBID, NormalForm
from test_engine_vector import two_fast_system

F = Fraction


def S(spec, text):
    return parse_series_for(text, spec)


def test_toy_ssm_chart(toy3):
    spec = toy3.spec
    chart = ssm_parametrisation(toy3)
    assert chart.x_of_X[0] == S(spec, """
        x + sigma*x*Z[-1]{ phi[0] }
        - 1/2*sigma^2*x*Z[-1]{ phi[0] }^2
        - 2*sigma^2*x*Z[-1]{ Z[-1]{ phi[0] }^2 }""")
    assert chart.y_of_X[0] == S(spec, """
        x^2 + sigma*Z[-1]{ phi[0] }
        + 2*sigma*x^2*Z[-1]{ phi[0] - Z[-1]{ phi[0] } }
        - 2*sigma^2*Z[-1]{ Z[-1]{ phi[0] }^2 }
        + 8*sigma^3*Z[-1]{ Z[-1]{ phi[0] }*Z[-1]{ Z[-1]{ phi[0] }^2 } }""")


def test_ssm_chart_deterministic_limit(toy3):
    spec = toy3.spec
    chart = ssm_parametrisation(toy3)
    zero = [Series.zero(spec.dims, spec.trunc)]
    assert chart.x_of_X[0].substitute(par=zero) == S(spec, "x")
    assert chart.y_of_X[0].substitute(par=zero) == S(spec, "x^2")


def test_ssm_chart_has_no_anticipation(toy5):
    chart = ssm_parametrisation(toy5)
    for s in chart.x_of_X + chart.y_of_X:
        for (_m, expr), _c in s.terms.items():
            assert not noise.anticipates(expr)


def test_linear_ssm(linear3):
    spec = linear3.spec
    chart = ssm_parametrisation(linear3)
    assert chart.x_of_X[0] == S(spec, "x - eps*Z[-1]{ phi[0] }")
    assert chart.y_of_X[0] == S(spec, "Z[-1]{ phi[0] }")


def test_expected_ssm_toy(toy3):
    # E[x] = (1 - 5/4 sigma^2) X by the moment recursion; E[y] picks up the
    # mean of the -2 sigma^2 Z-((Z-phi)^2) transform term.
    spec = toy3.spec
    ex, ey = expected_ssm(ssm_parametrisation(toy3))
    assert ex[0].value == S(spec, "x - 5/4*sigma^2*x")
    assert ex[0].unevaluable == []
    assert ey[0].value == S(spec, "x^2 - sigma^2")
    assert ey[0].unevaluable == []


@pytest.mark.parametrize("name,orders", [("toy.snf", (3, 4, 5, 6, 7)),
                                         ("papavasiliou.snf", (3, 4, 5, 6)),
                                         ("linear.snf", (3,))],
                         ids=["toy", "papavasiliou", "linear"])
def test_every_chart_term_has_an_expectation(name, orders):
    # the chart holds past convolutions only, which the moment recursion
    # always evaluates, so no expected_ssm line keeps a tail
    for order in orders:
        for policy in (ALLOW, FORBID):
            chart = ssm_parametrisation(construct(make_system(name, total=order), policy))
            for s in chart.x_of_X + chart.y_of_X:
                assert expected_series(s).unevaluable == [], (order, policy.label())


@pytest.mark.parametrize("name", ["toy.snf", "papavasiliou.snf", "linear.snf"])
def test_chart_is_the_transform_with_the_fast_variables_zero(name):
    # the chart selects the transform's fast-free terms; composing with
    # y = 0 is the reference, packed form and term order included
    for order in (2, 3, 4, 5):
        for policy in (ALLOW, FORBID):
            nf = construct(make_system(name, total=order), policy)
            dims, trunc = nf.spec.dims, nf.spec.trunc
            zero = [Series.zero(dims, trunc)] * dims.n
            want = [s.substitute(fast=zero) for s in nf.transform_x() + nf.transform_y()]
            chart = ssm_parametrisation(nf)
            got = chart.x_of_X + chart.y_of_X
            assert got == want, (order, policy.label())
            assert [list(s.terms) for s in got] == [list(s.terms) for s in want]


def test_expected_ssm_consistent_with_steeper_parabola(toy3):
    # (E[x]/X)^2 * (1 + 5/2 sigma^2) = 1 + O(sigma^4) at sigma = 0.1: the
    # steeper-parabola factor 1 + 5/2 sigma^2 squares the 5/4 coefficient.
    spec = toy3.spec
    ex, _ey = expected_ssm(ssm_parametrisation(toy3))
    coeff = -ex[0].value.coefficient(spec.dims.mono(slow=(1,), par=(2,)))
    assert coeff == F(5, 4)
    s2 = F(1, 100)
    lhs = (1 - coeff * s2) ** 2 * (1 + 2 * coeff * s2)
    assert abs(lhs - 1) <= 3 * coeff ** 2 * s2 ** 2


def test_reversion_matches_roundtrip(toy3):
    spec = toy3.spec
    rv = revert(toy3)
    tx, ty = toy3.transform_x(), toy3.transform_y()
    assert rv.X_of_xy[0].substitute(slow=tx, fast=ty) == S(spec, "x")
    assert rv.Y_of_xy[0].substitute(slow=tx, fast=ty) == S(spec, "y")


def test_papavasiliou_order4_reversion_inverts_transform():
    # grade_fast off: the coupling y = Y + X passes errors between the
    # components at the same grade, so each level takes three sweeps.
    nf = construct(make_system("papavasiliou.snf", total=4), ALLOW)
    assert nf.certified
    rv = revert(nf)
    dims, trunc = nf.spec.dims, nf.spec.trunc
    ident = [Series.slow_var(dims, trunc, 0), Series.fast_var(dims, trunc, 0)]
    back = [s.substitute(slow=rv.X_of_xy, fast=rv.Y_of_xy)
            for s in nf.transform_x() + nf.transform_y()]
    assert back == ident


def test_reversion_without_fixed_point_names_grade(pk3):
    # Y = y - Y^2 has no finite fixed point when fast variables carry no
    # grade: every sweep raises the fast degree at grade 0.
    dims, trunc = pk3.spec.dims, pk3.spec.trunc
    y = Series.fast_var(dims, trunc, 0)
    nf = NormalForm(spec=pk3.spec, policy=ALLOW, xi=[Series.zero(dims, trunc)],
                    eta=[y * y], F=pk3.F, G=pk3.G)
    with pytest.raises(AnalysisError, match="at grade 0 within 3 sweeps"):
        revert(nf)


# The level-by-level inverse that ``revert`` replaced: at each working order
# it substitutes the whole inverse again.  Kept as the reference ``revert``
# must equal.
def _revert_reference(nf: NormalForm) -> Reversion:
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


@pytest.mark.parametrize("policy", [ALLOW, FORBID], ids=["anticipate", "no-anticipate"])
@pytest.mark.parametrize("name,order", [("toy.snf", o) for o in range(3, 8)]
                         + [("papavasiliou.snf", o) for o in range(3, 6)]
                         # linear's eta holds Z[-1]{ phi[0] } at grade 0, so an
                         # image of Y starts below its monomial's grade
                         + [("linear.snf", 3), ("two-fast", 5)])
def test_revert_equals_the_level_by_level_reference(name, order, policy):
    spec = (two_fast_system(total=order) if name == "two-fast"
            else make_system(name, total=order))
    nf = construct(spec, policy)
    rv, ref = revert(nf), _revert_reference(nf)
    assert rv.X_of_xy == ref.X_of_xy and rv.Y_of_xy == ref.Y_of_xy


def test_toy_reversion_slow(toy3):
    spec = toy3.spec
    rv = revert(toy3)
    assert rv.X_of_xy[0] == S(spec, """
        x + x^3 - x*y + 3/2*x*y^2
        + 2*sigma*x*y*Z[+1]{ phi[0] }
        - 2*sigma^2*x*Z[+1]{ phi[0] }*Z[-1]{ phi[0] }""")


def test_toy_reversion_fast(toy3):
    # The grade-2 part; the sigma^2 coefficient 2(1 + Z-) is fixed by the
    # round-trip identity.
    spec = toy3.spec
    rv = revert(toy3)
    low = rv.Y_of_xy[0].build_like({k: c for k, c in rv.Y_of_xy[0].terms.items()
                                    if spec.trunc.grade_of(k[0]) <= 2})
    assert low == S(spec, """
        y - x^2 - 2*y^2 - sigma*Z[-1]{ phi[0] }
        + 2*sigma^2*Z[-1]{ phi[0] }^2
        + 2*sigma^2*Z[-1]{ Z[-1]{ phi[0] }^2 }""")


def test_initial_condition_projection(toy3):
    # From the order-3 projection (the displayed one): known mean and the
    # leading variance 2 sigma^2 x0^2 y0^2 + sigma^4 x0^2, exactly.
    spec = toy3.spec
    rv = revert(toy3)
    ip = project_initial_condition(rv, toy3, F(3, 10), F(1, 5))
    x0, y0 = F(3, 10), F(1, 5)
    want_mean = x0 + x0 ** 3 - x0 * y0 + F(3, 2) * x0 * y0 ** 2
    assert ip.mean.coefficient(spec.dims.mono()) == want_mean
    assert ip.mean_tail == []
    assert ip.variance.coefficient(spec.dims.mono(par=(2,))) == 2 * x0 ** 2 * y0 ** 2
    assert ip.variance.coefficient(spec.dims.mono(par=(4,))) == x0 ** 2

    # knowing the future noise shifts the mean and shrinks the variance
    zp = noise.z_atom(F(1), (noise.phi_atom(0),))
    assert ip.mean_future_known.terms.get(
        (spec.dims.mono(par=(1,)), (zp,))) == 2 * x0 * y0
    assert ip.variance_future_known.terms.get(
        (spec.dims.mono(par=(4,)), (zp, zp))) == 2 * x0 ** 2
    assert list(ip.variance_future_known.terms) == [
        (spec.dims.mono(par=(4,)), (zp, zp))]


def test_initial_condition_deterministic_case(toy3):
    spec = toy3.spec
    rv = revert(toy3)
    ip = project_initial_condition(rv, toy3, F(3, 10), F(0))
    x0 = F(3, 10)
    zero = [Series.zero(spec.dims, ip.expr.trunc)]
    det = ip.expr.substitute(par=zero)
    assert det.coefficient(spec.dims.mono()) == x0 + x0 ** 3
    assert ip.variance.substitute(par=zero).is_zero()


def test_long_time_model_pk(pk3):
    spec = pk3.spec
    lt = long_time_model(pk3)
    # phi Z- phi -> 1/2 + (1/sqrt 2) fresh noise: drift coefficient -eps/2,
    # fresh symbol amplitude carried as intensity 1/2
    assert lt.F[0] == S(spec, """
        -eps*(x + eps*x + x^2) - eps*sigma*(1 + 2*eps + 2*x)*phi[0]
        - 1/2*eps*sigma^2 - eps*sigma^2*phi[1]""")
    assert len(lt.fresh) == 1
    f = lt.fresh[0]
    assert f.index == 1 and f.rate == F(-1) and f.intensity == F(1, 2)
    assert lt.leftovers == []


def test_long_time_model_leading_truncation_is_averaged_model(pk3):
    # dropping the noise recovers dxbar = -(xbar + xbar^2 + 1/2) dtau after
    # restoring slow time (dividing by eps, sigma = 1)
    spec = pk3.spec
    lt = long_time_model(pk3)
    det = noise_free_part(lt.F)[0]
    lead = det.build_like({k: c for k, c in det.terms.items() if k[0][2][0] == 1})   # eps^1
    assert lead == S(spec, "-eps*x - eps*x^2 - 1/2*eps*sigma^2")


@pytest.mark.parametrize("mu", [F(-1), F(-3), F(-8), F(-1, 2), F(-15), F(-7, 3)])
def test_long_time_moments_are_one_half_and_one_over_two_mu(pk3, mu):
    # noise.expectation gives the drift 1/2 and the intensity 1/(2|mu|)
    spec = pk3.spec
    phi = noise.phi_atom(0)
    quad = noise.product(phi, noise.z_atom(mu, (phi,)))
    x = spec.dims.mono(slow=(1,), par=(1, 0))
    F_quad = Series(spec.dims, spec.trunc, {(x, quad): F(3)})
    lt = long_time_model(replace(pk3, F=[F_quad]))
    assert [(f.rate, f.intensity) for f in lt.fresh] == [(mu, 1 / (2 * abs(mu)))]
    assert lt.F[0].coefficient(x) == F(3, 2)
    assert lt.leftovers == []


def test_long_time_model_reports_leftovers(toy5):
    lt = long_time_model(toy5)
    # the X^3 phi Z-Z- phi factor is outside the replacement table
    assert len(lt.leftovers) == 1
    (_i, (mono, expr), _c) = lt.leftovers[0]
    assert sum(mono[0]) == 3


def test_long_time_model_no_quadratic_terms_identity(linear3):
    lt = long_time_model(linear3)
    assert lt.F[0] == linear3.F[0]
    assert lt.fresh == [] and lt.leftovers == []
