"""The one add-and-drop-zeros path: noise sums and series never keep a zero
coefficient, and the per-term noise rewrites match term-by-term references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from snf import noise
from snf.render import ParseError, parse_series, render_rate, render_series
from snf.series import Series
from test_noise import atoms, memory_sums
from test_series import DIMS, NAMES, TR, small_series

F = Fraction

conv_atoms = atoms().filter(noise.is_conv)
rates = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])


@st.composite
def noise_sums(draw, atom=atoms()):
    """Up to four products of up to two atoms, small non-zero coefficients."""
    out = {}
    for _ in range(draw(st.integers(0, 4))):
        expr = noise.product(*draw(st.lists(atom, max_size=2)))
        out[expr] = F(draw(st.integers(-2, 2)) or 1)
    return out


@st.composite
def noisy_series(draw, atom=conv_atoms, variables=True):
    """Noisy terms in x, y and sigma; in sigma alone without ``variables``."""
    power = st.integers(0, 2 if variables else 0)
    terms = {}
    for expr, c in draw(noise_sums(atom)).items():
        mono = ((draw(power),), (draw(power),), (draw(st.integers(0, 1)),))
        terms[(mono, expr)] = c
    return Series(DIMS, TR, terms)


def no_zeros(d):
    return all(c != 0 for c in d.values())


def test_add_into_drops_cancelled_keys_and_keeps_order():
    out = {"a": F(1), "b": F(2)}
    assert noise.add_into(out, [("a", F(-1)), ("c", F(3)), ("a", F(5))]) is out
    assert list(out.items()) == [("b", F(2)), ("c", F(3)), ("a", F(5))]
    assert noise.add_into(out, [("b", F(1)), ("c", F(1))], F(-2)) == {"a": F(5), "c": F(1)}


@given(noise_sums(), noise_sums())
@settings(max_examples=80, deadline=None)
def test_noise_sum_results_hold_no_zero(a, b):
    assert noise.n_add(a, noise.n_scale(a, -1)) == {}
    for got in (noise.n_add(a, b), noise.n_add(b, noise.n_scale(a, -1)),
                noise.n_mul(a, b), noise.n_mul(noise.n_add(a, b), noise.n_scale(a, -1))):
        assert no_zeros(got)


@given(noise_sums(conv_atoms), rates)
@settings(max_examples=80, deadline=None)
def test_conv_and_diff_hold_no_zero(a, mu):
    assert no_zeros(noise.conv(mu, a))
    assert no_zeros(noise.diff(a))
    # d/dt Z[mu] c - mu Z[mu] c = -sgn(mu) c cancels every convolution
    zc = noise.conv(mu, a)
    lhs = noise.n_add(noise.diff(zc), noise.n_scale(zc, -mu))
    assert no_zeros(lhs)


@given(memory_sums())
@settings(max_examples=60, deadline=None)
def test_ibp_normalize_holds_no_zero(c):
    evo, xform = noise.ibp_normalize(c)
    assert no_zeros(evo) and no_zeros(xform)


@given(small_series(), small_series(), noisy_series())
@settings(max_examples=60, deadline=None)
def test_series_results_hold_no_zero(a, b, s):
    xdot, ydot = [-(a * a)], [b]
    for got in (a + b, a - b, a - a, (a + b) * (a - b), a * b - b * a,
                s.map_noise(lambda e: noise.conv(F(-1), {e: F(1)})),
                s.diff_noise(), s.time_derivative(xdot, ydot),
                (s - s.scale(2)).time_derivative(xdot, ydot)):
        assert no_zeros(got.terms)
    assert (a - a).is_zero()


def _diff_noise_reference(s):
    out = {}
    for (mono, expr), c in s.terms.items():
        for e2, c2 in noise.diff({expr: c}).items():
            out[(mono, e2)] = out.get((mono, e2), F(0)) + c2
    return Series(s.dims, s.trunc, out)


@given(noisy_series())
@settings(max_examples=80, deadline=None)
def test_diff_noise_matches_per_term_diff(s):
    assert s.diff_noise().terms == _diff_noise_reference(s).terms


def _map_noise_reference(s, fn):
    out = {}
    for (mono, expr), c in s.terms.items():
        noise.add_into(out, (((mono, e2), c2) for e2, c2 in fn(expr).items()), c)
    return Series(s.dims, s.trunc, out)


@given(noisy_series(), rates)
@settings(max_examples=80, deadline=None)
def test_map_noise_calls_fn_once_per_product(s, mu):
    # every product of s on up to two monomials
    t = s + s * Series.slow_var(DIMS, TR, 0)
    calls = []

    def fn(expr):
        calls.append(expr)
        return noise.conv(mu, {expr: F(1)})

    got = t.map_noise(fn)
    assert sorted(calls, key=repr) == sorted({e for _m, e in t.terms}, key=repr)
    ref = _map_noise_reference(t, lambda e: noise.conv(mu, {e: F(1)}))
    assert list(got.terms.items()) == list(ref.terms.items())


@given(noisy_series(atoms(), variables=False), rates)
@settings(max_examples=80, deadline=None)
def test_parsed_convolution_is_termwise_conv(inner, mu):
    text = render_series(inner, NAMES)
    got = parse_series(f"Z[{render_rate(mu)}]{{ {text} }}", DIMS, TR, NAMES)
    ref = {}
    for (mono, expr), c in parse_series(text, DIMS, TR, NAMES).terms.items():
        for e2, c2 in noise.conv(mu, {expr: c}).items():
            ref[(mono, e2)] = ref.get((mono, e2), F(0)) + c2
    assert got.terms == Series(DIMS, TR, ref).terms


@pytest.mark.parametrize("text", ["Z[-1]{ x*phi[0] }", "sigma*Z[-1]{ Z[1]{ y } }"])
def test_a_variable_inside_a_convolution_is_refused(text):
    # only noise and constant parameters lie under a kernel
    with pytest.raises(ParseError, match="inside a convolution"):
        parse_series(text, DIMS, TR, NAMES)
