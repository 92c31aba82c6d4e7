"""Series algebra: ring laws, grading, composition, the derivative."""

from dataclasses import replace
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
    assert s.with_trunc(replace(s.trunc, total=2)) == S("x", Trunc(2, (None,)))


def test_grade_three_with_noise_kept():
    # noise symbols are grade 0: sigma^2 x phi Z- phi has grade 3
    s = S("sigma^2*x*phi[0]*Z[-1]{ phi[0] }")
    assert s.with_trunc(replace(s.trunc, total=3)).terms == s.terms
    assert s.with_trunc(replace(s.trunc, total=2)).is_zero()


def test_truncate_keeps_fast_grading():
    # Under grade_fast off, y^5 has grade 0 and survives a lower total.
    t = Trunc(6, (None,), count_fast=False)
    y = Series.fast_var(DIMS, t, 0)
    y5 = y * y * y * y * y
    cut = y5.with_trunc(replace(t, total=3))
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


def _naive_add(a, b, sign=1):
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = out.get(key, F(0)) + sign * c
    return Series(a.dims, a.trunc, out)


def _naive_substitute(a, subs):
    """Term by term, each variable's power by repeated all-pairs products;
    ``subs`` lists the slow, fast and parameter replacements in order."""
    dims, trunc = a.dims, a.trunc
    out = Series(dims, trunc, {})
    for (mono, expr), c in a.terms.items():
        piece = Series(dims, trunc, {(dims.mono(), expr): c})
        for base, e in zip(subs, (e for part in mono for e in part)):
            for _ in range(e):
                piece = _naive_mul(piece, base)
        out = _naive_add(out, piece)
    return out


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
    subs = [b, a, b, a + b, b]              # x; y0, y1; eps, sigma
    cases = [(a * b, _naive_mul(a, b)), (a + b, _naive_add(a, b)),
             (a - b, _naive_add(a, b, -1)), (b - b, Series(b.dims, b.trunc, {})),
             (a.substitute(slow=subs[:1], fast=subs[1:3], par=subs[3:]),
              _naive_substitute(a, subs))]
    for packed, outside in cases:
        assert packed.terms == outside.terms
        assert packed == outside and outside == packed


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
    # the same terms from outside the algebra pack to the same form
    rebuilt = Series(r.dims, r.trunc, dict(r.terms))
    assert r.terms == rebuilt.terms and r == rebuilt and rebuilt == r


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
               a.scale(c), a.scale(0), a.diff(0, 0), a.diff(1, 1), a.substitute(),
               a.substitute(slow=subs[:1], fast=subs[1:3], par=subs[3:]),
               a * a * a, a - b + b, (a - b) * subs[0] + b * subs[0],
               a.substitute(fast=[subs[1] - subs[1], subs[2] + subs[1]])]
    for r in results:
        _holds_invariant(r)
    assert (a + (-a)).is_zero() and (a - a).is_zero()
    assert (a + b) * (a - b) == a * a - b * b
    assert a - b + b == a and (a - b) * subs[0] + b * subs[0] == a * subs[0]


def _per_term_substitute(s, slow=None, fast=None, par=None):
    """The composition ``Series.substitute`` made before it grouped terms by
    monomial, kept as its reference: each term times each of its variables'
    powers in slow, fast, parameter order, each power by repeated squaring."""
    dims, trunc = s.dims, s.trunc
    bases = [b for part, (given_, size) in enumerate(zip((slow, fast, par), dims.sizes))
             for b in (given_ if given_ is not None else
                       [Series.var(dims, trunc, part, k) for k in range(size)])]
    powers = {}

    def power(v, e):
        if (v, e) not in powers:
            result, base, k = Series.const(dims, trunc, 1), bases[v], e
            while k:
                if k & 1:
                    result = result * base
                base = base * base if k > 1 else base
                k >>= 1
            powers[(v, e)] = result
        return powers[(v, e)]

    pieces = []
    for (mono, expr), c in s.terms.items():
        piece = Series(dims, trunc, {(dims.mono(), expr): c})
        for v, e in enumerate(e for part in mono for e in part):
            if e:
                piece = piece * power(v, e)
        pieces.append(piece)
    return Series.zero(dims, trunc).plus(pieces)


@pytest.mark.parametrize("count_fast", [True, False])
@pytest.mark.parametrize("capped", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_substitute_is_the_per_term_composition(count_fast, capped, data):
    a, b, _c, subs = data.draw(trusted_case(count_fast, capped))
    for slow, fast, par in ((subs[:1], subs[1:3], subs[3:]), (None, subs[1:3], None),
                            ([a + b], None, [b, subs[4]]), (None, None, None)):
        got = a.substitute(slow=slow, fast=fast, par=par)
        want = _per_term_substitute(a, slow, fast, par)
        _holds_invariant(got)
        assert got == want and got.sorted_terms() == want.sorted_terms()


@pytest.mark.parametrize("count_fast", [True, False])
@pytest.mark.parametrize("capped", [True, False])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_mul_grade_is_the_product_cut_to_one_grade(count_fast, capped, data):
    a, b, _c, subs = data.draw(trusted_case(count_fast, capped))
    trunc = a.trunc
    for left, right in ((a, b), (b, a), (a, a), (subs[0] + a, subs[1] - b)):
        full = left * right
        slices = []
        for k in range(trunc.total + 2):
            got = left.mul_grade(right, k)
            _holds_invariant(got)
            assert got == full.build_like({key: c for key, c in full.terms.items()
                                           if trunc.grade_of(key[0]) == k})
            slices.append(got)
        assert Series.zero(DIMS2, trunc).plus(slices) == full


# -- packed exponent fields --------------------------------------------------

def test_ungraded_fast_exponent_overflow_names_the_monomial():
    # Under grade_fast off nothing bounds a fast exponent: a product past
    # its field raises, naming the monomial, and never carries into sigma.
    from snf.series import _FREE_BITS
    t = Trunc(2, (None,), count_fast=False)
    top = 2 ** _FREE_BITS - 1
    y = Series.fast_var(DIMS, t, 0)
    widest = y
    for _ in range(_FREE_BITS - 1):    # exponent e -> 2e + 1, from 1 up to top
        widest = widest * widest * y
    assert widest.terms == {(((0,), (top,), (0,)), noise.ONE): F(1)}
    with pytest.raises(OverflowError, match=rf"\[0, {top + 1}, 0\]"):
        widest * y
    with pytest.raises(OverflowError, match=rf"\[0, {2 * top}, 0\]"):
        (S("sigma", t) + widest) * widest
    with pytest.raises(OverflowError, match=rf"exponent {top + 1} of monomial"):
        Series(DIMS, t, {(((0,), (top + 1,), (0,)), noise.ONE): F(1)})
    # the grade-windowed product keeps the guard for the grades it computes
    with pytest.raises(OverflowError, match=rf"\[0, {top + 1}, 0\]"):
        widest.mul_grade(y, 0)
    with pytest.raises(OverflowError, match=rf"\[0, {2 * top}, 0\]"):
        (S("sigma", t) + widest).mul_grade(widest, 0)
    assert (S("sigma", t) + widest).mul_grade(widest, 1) == S("sigma", t) * widest
    assert widest.mul_grade(y, 1).is_zero()


def test_noise_derivative_is_computed_once_per_product_across_a_construct(monkeypatch):
    # Series.diff_noise reads d/dt of each noise product from one
    # process-wide cache; no caller may change the sums it hands out.
    from collections import Counter
    from conftest import make_system
    from snf import series
    from snf.engine import construct
    from snf.systems import ALLOW
    calls, diff = Counter(), noise.diff

    def spy(s):
        calls.update(s)
        return diff(s)

    series._noise_diff.cache_clear()
    monkeypatch.setattr(noise, "diff", spy)
    construct(make_system("toy.snf", total=5), ALLOW)
    info = series._noise_diff.cache_info()
    assert len(calls) > 10 and max(calls.values()) == 1
    assert info.misses == info.currsize == len(calls)
    for expr in calls:
        assert series._noise_diff(expr) == diff({expr: F(1)})
    assert series._noise_diff.cache_info().misses == info.misses


def test_one_layout_per_dims_and_truncation():
    # Series._check compares layouts by identity, so equal (dims, trunc)
    # pairs built apart must share one, and the cache must never evict it
    from snf import series
    a = Series.zero(DIMS, TR)
    b = Series.zero(Dims(1, 1, ("sigma",), 1), Trunc(4, (None,)))
    assert a._lay is b._lay and a + b == a
    assert series._layout.cache_info().maxsize is None
    wider = Series.zero(DIMS, replace(TR, total=5))
    assert wider._lay is not a._lay
    with pytest.raises(ValueError, match="truncation mismatch"):
        a + wider
