"""Series algebra: ring laws, grading, composition, the derivative."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from snf import noise
from snf.series import Dims, Series, Trunc, grade
from snf.render import parse_series, render_series

F = Fraction
DIMS = Dims(1, 1, ("sigma",), 1)
TR = Trunc(4, (None,))
NAMES = (("x",), ("y",), ("sigma",))


def S(text, trunc=TR):
    return parse_series(text, DIMS, trunc, NAMES)


def test_monomial_product():
    assert S("x") * S("y") == S("x*y")


def test_identity_element():
    assert (S("1") + S("x*y")) * S("1") == S("1 + x*y")


def test_noise_product_canonical():
    a = S("sigma*Z[-1]{ phi[0] }")
    assert a * a == S("sigma^2*Z[-1]{ phi[0] }^2")


def test_truncation_drops_high_grades():
    s = S("x + x^3")
    assert s.truncate(2) == S("x", Trunc(2, (None,)))


def test_grade_three_with_noise_kept():
    # noise symbols are grade 0: sigma^2 x phi Z- phi has grade 3
    s = S("sigma^2*x*phi[0]*Z[-1]{ phi[0] }")
    assert s.truncate(3).terms == s.terms
    assert s.truncate(2).is_zero()


def test_truncate_keeps_fast_grading():
    # Under grade_fast off, y^5 has grade 0 and survives a lower total.
    t = Trunc(6, (None,), count_fast=False)
    y5 = Series.fast_var(DIMS, t, 0).pow(5)
    cut = y5.truncate(3)
    assert cut.trunc == Trunc(3, (None,), count_fast=False)
    assert cut.terms == y5.terms


def test_param_caps():
    t = Trunc(4, (1,))
    s = Series(DIMS, t, S("sigma + sigma^2").terms)
    assert s == S("sigma", t)


def test_substitute_identity():
    s = S("x + x*y + sigma*x*Z[-1]{ phi[0] }")
    assert s.substitute() == s


def test_substitute_example():
    # x -> X into -x*y with y -> Y + X^2 gives -X*Y - X^3
    target = S("-x*y")
    got = target.substitute(fast=[S("y + x^2")])
    assert got == S("-x*y - x^3")


def test_substitute_param_zero():
    s = S("x + sigma*x*Z[-1]{ phi[0] } + sigma^2*x")
    z = Series.zero(DIMS, TR)
    assert s.substitute(par=[z]) == S("x")


def test_time_derivative_chain_rule():
    # d/dt(X^2) with Xdot = -X^3 gives -2X^4
    s = S("x^2")
    got = s.time_derivative([S("-x^3")], [Series.zero(DIMS, TR)])
    assert got == S("-2*x^4")


def test_time_derivative_noise_atom():
    s = S("Z[-1]{ phi[0] }")
    got = s.time_derivative([Series.zero(DIMS, TR)], [Series.zero(DIMS, TR)])
    assert got == S("phi[0] - Z[-1]{ phi[0] }")


def test_time_derivative_mixed():
    # d/dt(Y Z- phi) with Ydot = -Y
    s = S("y*Z[-1]{ phi[0] }")
    got = s.time_derivative([Series.zero(DIMS, TR)], [S("-y")])
    assert got == S("y*phi[0] - 2*y*Z[-1]{ phi[0] }")


def test_render_parse_roundtrip():
    s = S("x - 5/2*sigma^2*x + 3*x*y^2*Z[+1]{ phi[0]*Z[-1]{ phi[0] } }")
    assert parse_series(render_series(s, NAMES), DIMS, TR, NAMES) == s


def test_render_deterministic_order():
    s = S("x^3 + x + x*y")
    t = S("x*y + x + x^3")
    assert render_series(s, NAMES) == render_series(t, NAMES)


def test_dimension_mismatch_rejected():
    other = Series.zero(Dims(2, 1, ("sigma",), 1), TR)
    with pytest.raises(ValueError):
        _ = S("x") * other


# -- property tests ----------------------------------------------------------

coeffs = st.integers(-3, 3)


@st.composite
def small_series(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        se = draw(st.integers(0, 2))
        fe = draw(st.integers(0, 2))
        pe = draw(st.integers(0, 1))
        use_noise = draw(st.booleans())
        expr = (noise.z_atom(F(-1), (noise.phi_atom(0),)),) if use_noise else noise.ONE
        c = F(draw(coeffs) or 1)
        key = (((se,), (fe,), (pe,)), expr)
        terms[key] = terms.get(key, F(0)) + c
    return Series(DIMS, TR, terms)


@given(small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_mul_associative_at_truncation(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_series(), small_series(), small_series())
@settings(max_examples=60, deadline=None)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_product_grades_add(a, b):
    wide = Trunc(12, (None,))
    aw, bw = a.with_trunc(wide), b.with_trunc(wide)
    for (mono, _e), _c in (aw * bw).terms.items():
        assert grade(mono) <= 4 + 4


@given(small_series(), small_series())
@settings(max_examples=40, deadline=None)
def test_derivative_product_rule(a, b):
    xdot = [S("-x^2")]
    ydot = [S("-y")]
    lhs = (a * b).time_derivative(xdot, ydot)
    rhs = a.time_derivative(xdot, ydot) * b + a * b.time_derivative(xdot, ydot)
    assert lhs == rhs


@given(small_series())
@settings(max_examples=40, deadline=None)
def test_substitute_identity_property(a):
    assert a.substitute() == a


DIMS2 = Dims(1, 2, ("eps", "sigma"), 1)


def _naive_mul(a, b):
    """All-pairs product; the constructor drops what the truncation cuts."""
    out = {}
    for (ma, ea), ca in a.terms.items():
        for (mb, eb), cb in b.terms.items():
            mono = tuple(tuple(x + y for x, y in zip(pa, pb))
                         for pa, pb in zip(ma, mb))
            key = (mono, noise.merge(ea, eb))
            out[key] = out.get(key, F(0)) + ca * cb
    return Series(a.dims, a.trunc, out)


@st.composite
def series_pair(draw):
    trunc = Trunc(draw(st.integers(0, 5)),
                  (draw(st.sampled_from([None, 0, 1, 2])),
                   draw(st.sampled_from([None, 1]))),
                  draw(st.booleans()))
    atoms = [noise.ONE, (noise.phi_atom(0),),
             (noise.z_atom(F(-1), (noise.phi_atom(0),)),)]

    def one():
        terms = {}
        for _ in range(draw(st.integers(0, 6))):
            mono = ((draw(st.integers(0, 3)),),
                    (draw(st.integers(0, 3)), draw(st.integers(0, 1))),
                    (draw(st.integers(0, 2)), draw(st.integers(0, 2))))
            key = (mono, draw(st.sampled_from(atoms)))
            terms[key] = terms.get(key, F(0)) + F(draw(coeffs) or 1)
        return Series(DIMS2, trunc, terms)
    return one(), one()


@given(series_pair())
@settings(max_examples=150, deadline=None)
def test_mul_matches_all_pairs_product(pair):
    a, b = pair
    assert (a * b).terms == _naive_mul(a, b).terms


# -- arithmetic results hold the invariant without a re-check ----------------

PHI = (noise.phi_atom(0),)
ZM = noise.z_atom(F(-1), PHI)
ZP = noise.z_atom(F(2), PHI)
RICH_EXPRS = [noise.ONE, PHI, (ZM,), (ZP,), noise.product(PHI[0], ZM),
              noise.product(ZM, ZP)]


def _holds_invariant(r):
    for (mono, _expr), c in r.terms.items():
        assert type(c) is Fraction and c != 0
        assert r.trunc.keeps(mono)
    assert r.terms == Series(r.dims, r.trunc, dict(r.terms)).terms


@st.composite
def trusted_case(draw, count_fast, capped):
    caps = ((draw(st.sampled_from([0, 1, 2])), draw(st.sampled_from([None, 1])))
            if capped else (None, None))
    trunc = Trunc(draw(st.integers(0, 5)), caps, count_fast)

    def one():
        terms = {}
        for _ in range(draw(st.integers(0, 5))):
            mono = ((draw(st.integers(0, 3)),),
                    (draw(st.integers(0, 3)), draw(st.integers(0, 1))),
                    (draw(st.integers(0, 2)), draw(st.integers(0, 2))))
            key = (mono, draw(st.sampled_from(RICH_EXPRS)))
            terms[key] = terms.get(key, F(0)) + F(draw(coeffs) or 1, draw(st.integers(1, 3)))
        return Series(DIMS2, trunc, terms)
    scale = F(draw(st.integers(-2, 2)), draw(st.integers(1, 3)))
    return one(), one(), scale, [one() for _ in range(5)]


@pytest.mark.parametrize("count_fast", [True, False])
@pytest.mark.parametrize("capped", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_trusted_results_hold_the_invariant(count_fast, capped, data):
    a, b, c, subs = data.draw(trusted_case(count_fast, capped))
    # (a + b)*(a - b) cancels every cross term inside one product
    results = [a * b, b * a, a * a, (a + b) * (a - b), a + b, a - b, a + (-a), -a,
               a.scale(c), a.scale(0), a.diff_slow(0), a.diff_fast(1), a.substitute(),
               a.substitute(slow=subs[:1], fast=subs[1:3], par=subs[3:])]
    for r in results:
        _holds_invariant(r)
    assert (a + (-a)).is_zero() and (a - a).is_zero()
    assert (a + b) * (a - b) == a * a - b * b
