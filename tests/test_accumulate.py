"""The one add-and-drop-zeros path: noise sums and series never keep a zero
coefficient, the per-term noise rewrites match term-by-term references, and
the report parser, which accumulates plain term dicts, inverts the renderer."""

import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from snf import noise
from snf.render import ParseError, _tokenize, parse_series, render_rate, render_series
from snf.series import Series, Trunc
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


# -- the lexer ------------------------------------------------------------------

# The named-group tokenizer the one-pass lexer replaced, kept as its reference.
_NAMED = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<lbrack>\[) | (?P<rbrack>\])
  | (?P<lbrace>\{) | (?P<rbrace>\})
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<op>[-+*/^])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _named_tokens(text):
    tokens = []
    for m in _NAMED.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"bad character at column {m.start() + 1}: {m.group()!r}")
        if kind != "ws":
            tokens.append((kind, m.group()))
    tokens.append(("end", ""))
    return tokens


def _tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc)


# the grammar's alphabet, whitespace of several kinds (a no-break space, an
# em space, a file separator), characters it refuses (':', '.', a superscript
# two, a zero-width space, a Latin letter with an accent) and an Arabic-Indic
# three, which \d reads as a digit
_PIECES = [*"0123456789", "12", "3/4", "/", "x", "y", "sigma", "phi", "Z", "_a1",
           *"[]{}()+-*^", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\x1c",
           ":", ".", "\u00b2", "\u200b", "\u00e9", "\u0663"]


@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
@settings(max_examples=400, deadline=None)
@example("Z[-1]{ phi[0] } + 3/4*x^2*sigma")
@example("x\u00b2 + y")
@example("\u0663/\u0664*x + 1\u0663")
@example("x: y.z")
@example("3/2^2*x - 1/2 ^3 + x^3/4^2")
def test_lexer_matches_the_named_group_tokenizer(text):
    # the same tokens, or the same error with the same column
    assert _tokens_or_error(_tokenize, text) == _tokens_or_error(_named_tokens, text)


# -- the report parser: plain term dicts, packed once ---------------------------

def _canonical(expr):
    """The canonical noise sum of a product built atom by atom."""
    out = {noise.ONE: F(1)}
    for a in expr:
        factor = (noise.nsum_bare(a[1]) if noise.is_bare(a)
                  else noise.conv(a[1], _canonical(a[2])))
        out = noise.n_mul(out, factor)
    return out


@given(noisy_series(atoms()), noisy_series(), st.sampled_from([F(1), F(-3, 4), F(5, 3)]))
@settings(max_examples=80, deadline=None)
def test_parse_series_inverts_render_series(a, b, c):
    # slow, fast and parameter variables, bare and nested noise, mixed
    # denominators; the parse packs exactly the series that was rendered
    s = (a + b.scale(c)).map_noise(_canonical)
    got = parse_series(render_series(s, NAMES), DIMS, TR, NAMES)
    assert got == s
    assert got._num == s._num and got._den == s._den


def test_parenthesised_powered_input_is_its_series_value():
    # the grammar beyond canonical report lines
    got = parse_series("(1 + 2*x^2)*y/4*(3*Z[-1]{ phi[0] } - Z[+1]{ phi[0] })^2",
                       DIMS, TR, NAMES)
    x, y = Series.slow_var(DIMS, TR, 0), Series.fast_var(DIMS, TR, 0)
    phi = (noise.phi_atom(0),)
    z = Series.noise_sum(DIMS, TR, {(noise.z_atom(F(-1), phi),): F(3),
                                    (noise.z_atom(F(1), phi),): F(-1)})
    want = (Series.const(DIMS, TR, 1) + (x * x).scale(2)) * y.scale(F(1, 4)) * (z * z)
    assert got == want
    assert parse_series("-(x - y)^2 + x^0 + x*y*5/2", DIMS, TR, NAMES) == \
        parse_series("1 - x^2 + 9/2*x*y - y^2", DIMS, TR, NAMES)


@pytest.mark.parametrize("glued,spaced", [
    ("x^2/4", "x^2 / 4"),
    ("(1 + x)^2/4*y", "(1 + x)^2 / 4*y"),
    ("x^ 2/4 - y", "x^2 / 4 - y"),
    ("x^2/4/5", "x^2 / 4 / 5"),
    ("y/4/5", "y / 4 / 5"),
    ("3/4*x", "3 / 4*x"),
])
def test_a_number_after_a_power_or_a_division_is_an_integer(glued, spaced):
    # '^' takes the integer and '/' divides by the number after it, however
    # the blanks fall; a p/q elsewhere is one rational, as written
    got = parse_series(glued, DIMS, TR, NAMES)
    assert got == parse_series(spaced, DIMS, TR, NAMES)
    assert parse_series("x^2/4", DIMS, TR, NAMES) == \
        (Series.slow_var(DIMS, TR, 0) * Series.slow_var(DIMS, TR, 0)).scale(F(1, 4))
    assert parse_series("y/4/5", DIMS, TR, NAMES) == Series.fast_var(DIMS, TR, 0).scale(F(1, 20))


def _value_or_refusal(text):
    try:
        s = parse_series(text, DIMS, TR, NAMES)
    except ParseError:
        return "refused"
    return s, s._num, s._den


# numbers, p/q, names, '^', '*' and '/' in parentheses: a p/q stands after
# '*', '/', '(' and at the start, before '*', '/', '^', ')' and at the end
_WRITTEN = st.recursive(
    st.sampled_from(["0", "1", "2", "3", "12", "1/2", "3/4", "5/3", "4/2", "0/3",
                     "x", "y", "sigma"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("*/"), inner).map("".join),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
        inner.map(lambda t: f"({t})")),
    max_leaves=6)


@given(_WRITTEN)
@settings(max_examples=300, deadline=None)
@example("3/2^2*x")
@example("x^2/4/5*y")
@example("(1/2)^3*x/3/4")
def test_a_written_fraction_reads_as_a_division_wherever_it_stands(text):
    # the same value, packed the same way, or a refusal either way
    assert _value_or_refusal(text) == _value_or_refusal(text.replace("/", " / "))


@pytest.mark.parametrize("glued,spaced,value", [
    ("3/2^2*x", "3 / 2^2*x", "3/4*x"),
    ("1/2 ^3*y", "1 / 2^3*y", "1/8*y"),
    ("x^3/4^2", "x^3 / 4^2", "1/16*x^3"),
    ("3/2*2^2*x", "3/2 * 2^2*x", "6*x"),
])
def test_a_power_binds_before_a_glued_fraction(glued, spaced, value):
    # 3/2^2 reads as 3 / 2^2, as conventional precedence has it, not (3/2)^2
    got = parse_series(glued, DIMS, TR, NAMES)
    assert got == parse_series(spaced, DIMS, TR, NAMES)
    assert got == parse_series(value, DIMS, TR, NAMES)


@pytest.mark.parametrize("text", ["x/y", "x/(1 - 1)", "x/0"])
def test_division_by_anything_but_a_nonzero_rational_is_refused(text):
    with pytest.raises(ParseError, match=re.escape(
            f"division only by non-zero rationals in {text!r}") + "$"):
        parse_series(text, DIMS, TR, NAMES)


@pytest.mark.parametrize("text,trunc,term", [
    ("x^3", Trunc(2, (None,)), "x^3"),
    ("x - 2*sigma^2*y", Trunc(4, (1,)), "-2*sigma^2*y"),
])
def test_a_term_outside_the_truncation_window_is_refused(text, trunc, term):
    with pytest.raises(ParseError, match=re.escape(
            f"term {term} is outside the truncation window in {text!r}")):
        parse_series(text, DIMS, trunc, NAMES)


def test_the_window_is_applied_to_the_finished_sum():
    # a term that cancels within the line is never refused
    assert parse_series("x^3 + x - x^3", DIMS, Trunc(2, (None,)), NAMES) == \
        Series.slow_var(DIMS, Trunc(2, (None,)), 0)
