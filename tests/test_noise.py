"""Unit tests for the convolution calculus."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from snf import noise
from snf.noise import (MalformedResidual, NotDifferentiable, RepeatedRate,
                       ONE, compose, conv, diff, expectation, ibp_normalize,
                       n_add, n_mul, n_scale, nsum_bare, phi_atom, product,
                       z_atom)
from snf.render import parse_series, render_noise
from snf.series import Dims, Trunc

F = Fraction
PHI = phi_atom(0)
ZM = z_atom(F(-1), (PHI,))
ZP = z_atom(F(1), (PHI,))


def zconv(mu, s):
    return conv(F(mu), s)


def test_canonical_product_sorted():
    a = product(ZM, PHI, ZP)
    b = product(ZP, ZM, PHI)
    assert a == b
    assert a[0] == PHI


def test_conv_of_one_collapses():
    assert zconv(-2, {ONE: F(1)}) == {ONE: F(1, 2)}
    assert zconv(3, {ONE: F(6)}) == {ONE: F(2)}


def test_compose_opposite_signs():
    # Z[-1] Z[+1] = (1/2)(Z[-1] + Z[+1])
    got = zconv(-1, {(ZP,): F(1)})
    assert got == {(ZM,): F(1, 2), (ZP,): F(1, 2)}


def test_compose_same_sign():
    # Z[-1] Z[-2] = Z[-1] - Z[-2]
    z2 = z_atom(F(-2), (PHI,))
    got = zconv(-1, {(z2,): F(1)})
    assert got == {(ZM,): F(1), (z2,): F(-1)}


def test_compose_repeated_rate_error():
    with pytest.raises(RepeatedRate):
        compose(F(-1), F(-1))


def test_repeated_rate_nesting_kept_structural():
    got = zconv(-1, {(ZM,): F(1)})
    assert got == {(z_atom(F(-1), (ZM,)),): F(1)}


def test_diff_memory_convolution():
    # d/dt Z[-1] phi = phi - Z[-1] phi
    assert diff({(ZM,): F(1)}) == {(PHI,): F(1), (ZM,): F(-1)}


def test_diff_anticipating_convolution():
    assert diff({(ZP,): F(1)}) == {(PHI,): F(-1), (ZP,): F(1)}


def test_diff_product_rule_square():
    # d/dt (Z- phi)^2 = 2 phi Z- phi - 2 (Z- phi)^2
    got = diff({(ZM, ZM): F(1)})
    assert got == {product(PHI, ZM): F(2), (ZM, ZM): F(-2)}


def test_diff_nested():
    # d/dt Z[-1]((Z[-1] phi)^2) = (Z- phi)^2 - Z[-1]((Z- phi)^2)
    outer = z_atom(F(-1), (ZM, ZM))
    got = diff({(outer,): F(1)})
    assert got == {(ZM, ZM): F(1), (outer,): F(-1)}


def test_diff_bare_raises():
    with pytest.raises(NotDifferentiable):
        diff({(PHI,): F(1)})


def test_mixed_product_derivative_cancels_rate_sum():
    # d/dt (Z- phi Z+ phi) = phi Z+ phi - phi Z- phi
    got = diff({product(ZM, ZP): F(1)})
    assert got == {product(PHI, ZP): F(1), product(PHI, ZM): F(-1)}


def test_pointwise_is_the_one_sampling_rule():
    nested = z_atom(F(-2), (ZM, ZP))
    for expr in (ONE, (ZM,), product(ZM, ZP), (nested,), (z_atom(F(-1), (nested,)),)):
        assert noise.pointwise(expr), expr
    # bare noise at the top, or beside other factors inside a convolution
    for expr in ((PHI,), product(PHI, ZM), (z_atom(F(-1), product(PHI, ZM)),),
                 (z_atom(F(-1), product(PHI, PHI)),),
                 (z_atom(F(-3), (z_atom(F(-1), product(PHI, ZM)),)),)):
        assert not noise.pointwise(expr), expr


def test_split_bare_names_dt_and_dw_terms():
    phi1 = phi_atom(1)
    assert noise.split_bare(ONE) == ((), ONE)
    assert noise.split_bare(product(ZM, ZP)) == ((), product(ZM, ZP))
    assert noise.split_bare(product(PHI, ZM)) == ((0,), (ZM,))
    assert noise.split_bare(product(phi1, PHI, ZM)) == ((0, 1), (ZM,))


def test_quad_pair_is_phi_times_its_memory_convolution():
    assert noise.quad_pair(product(PHI, ZM)) == (0, F(-1))
    phi1 = phi_atom(1)
    z1 = z_atom(F(-3), (phi1,))
    assert noise.quad_pair(product(phi1, z1)) == (1, F(-3))
    for expr in (product(PHI, ZP), product(phi1, ZM), (ZM, ZM), (PHI,),
                 product(PHI, z_atom(F(-1), (ZM,))), product(PHI, ZM, ZM)):
        assert noise.quad_pair(expr) is None, expr


class TestExpectation:
    def test_constant(self):
        assert expectation(ONE) == 1

    def test_bare(self):
        assert expectation((PHI,)) == 0

    def test_single_convolution(self):
        assert expectation((z_atom(F(-3), (PHI,)),)) == 0

    def test_squared_convolution(self):
        assert expectation((ZM, ZM)) == F(1, 2)
        z3 = z_atom(F(-3), (PHI,))
        assert expectation((z3, z3)) == F(1, 6)

    def test_bare_times_memory(self):
        assert expectation(product(PHI, ZM)) == F(1, 2)

    def test_bare_times_anticipation_unevaluable(self):
        # a bare factor beside a future convolution is refused
        assert expectation(product(PHI, ZP)) is None
        # odd symbol parity vanishes regardless
        assert expectation(product(PHI, PHI, ZP)) == 0

    def test_nested_mean(self):
        # E[Z-((Z- phi)^2)] = E[(Z- phi)^2]/1 = 1/2
        assert expectation((z_atom(F(-1), (ZM, ZM)),)) == F(1, 2)

    def test_odd_count_vanishes(self):
        inner = z_atom(F(-1), (ZM, ZM))
        assert expectation(product(ZM, inner)) == 0

    def test_past_future_factorise(self):
        assert expectation(product(ZM, ZP)) == 0
        assert expectation(product(ZM, ZM, ZP, ZP)) == F(1, 4)

    def test_independent_symbols_factorise(self):
        z0 = z_atom(F(-1), (phi_atom(0),))
        z1 = z_atom(F(-1), (phi_atom(1),))
        assert expectation(product(z0, z0, z1, z1)) == F(1, 4)
        assert expectation(product(z0, z1)) == 0

    def test_closed_world(self):
        # products the old rule table left unevaluated; each value is checked
        # against a long-path mean in tests/test_paths.py
        z2 = z_atom(F(-2), (PHI,))
        assert expectation(product(ZM, z2)) == F(1, 3)
        assert expectation(product(ZM, z_atom(F(-1), (ZM,)))) == F(1, 4)
        assert expectation(product(ZM, ZM, ZM, ZM)) == F(3, 4)
        # still refused: a bare factor beside a future convolution, and a
        # mixed-side convolution in a product
        assert expectation(product(PHI, ZP)) is None
        assert expectation(product(ZM, z_atom(F(-1), (ZP,)))) is None

    @pytest.mark.parametrize("mu", [F(-1), F(-2), F(-1, 3), F(-7, 2)])
    def test_quadratic_noise_drift_is_one_half(self, mu):
        # the drift long_time_model gives phi[k]*Z[mu]{ phi[k] }
        for k in (0, 1):
            phi = phi_atom(k)
            assert expectation(product(phi, z_atom(mu, (phi,)))) == F(1, 2)

    def test_future_products_are_mirror_images(self):
        # time reversal negates every rate at every depth
        assert expectation((ZP, ZP, ZP, ZP)) == F(3, 4)
        nested = z_atom(F(2), (PHI, z_atom(F(1), (PHI,))))
        assert expectation((nested,)) == F(1, 4)
        assert expectation(product(ZP, z_atom(F(1), (ZP,)))) == F(1, 4)


def _check_split(c, evo, xform):
    """evo + d/dt(xform) must equal c exactly."""
    back = n_add(evo, diff(xform)) if xform else dict(evo)
    assert back == c


class TestIbp:
    def test_single_memory_convolution(self):
        c = {(ZM,): F(1)}
        evo, xform = ibp_normalize(c)
        assert evo == {(PHI,): F(1)}
        assert xform == {(ZM,): F(-1)}
        _check_split(c, evo, xform)

    def test_paper_square_rule(self):
        # (Z- phi)^2 -> evolution phi Z- phi, transform -(1/2)(Z- phi)^2
        c = {(ZM, ZM): F(1)}
        evo, xform = ibp_normalize(c)
        assert evo == {product(PHI, ZM): F(1)}
        assert xform == {(ZM, ZM): F(-1, 2)}
        _check_split(c, evo, xform)

    def test_paper_wrapped_square_rule(self):
        outer = z_atom(F(-1), (ZM, ZM))
        c = {(outer,): F(1)}
        evo, xform = ibp_normalize(c)
        assert evo == {product(PHI, ZM): F(1)}
        assert xform == {(ZM, ZM): F(-1, 2), (outer,): F(-1)}
        _check_split(c, evo, xform)

    def test_zero_rate_sum_product(self):
        # Z- phi Z+ phi -> evolution phi Z-Z- phi, transform Z-Z- phi Z+ phi
        c = {product(ZM, ZP): F(1)}
        evo, xform = ibp_normalize(c)
        zz = z_atom(F(-1), (ZM,))
        assert evo == {product(PHI, zz): F(1)}
        assert xform == {product(zz, ZP): F(1)}
        _check_split(c, evo, xform)

    def test_bare_and_constants_pass_through(self):
        c = {ONE: F(3), (PHI,): F(-2), product(PHI, ZM): F(5)}
        evo, xform = ibp_normalize(c)
        assert evo == c and xform == {}

    def test_two_bares_malformed(self):
        with pytest.raises(MalformedResidual):
            ibp_normalize({product(PHI, PHI, ZM): F(1)})

    def test_two_bares_name_the_rendered_product(self):
        with pytest.raises(MalformedResidual,
                           match=r"two bare factors in forcing: phi\[0\]\^2$"):
            ibp_normalize({product(PHI, PHI): F(1)})

    def test_depth_limit_names_the_product(self, monkeypatch):
        # the wrapped square rule normalises (Z- phi)^2 one level down
        monkeypatch.setattr(noise, "_IBP_DEPTH_LIMIT", 0)
        with pytest.raises(MalformedResidual,
                           match=r"within 0 levels at Z\[-1\]\{ phi\[0\] \}\^2$"):
            ibp_normalize({(z_atom(F(-1), (ZM, ZM)),): F(1)})

    def test_triple_product(self):
        c = {product(ZM, ZM, ZM): F(1)}
        evo, xform = ibp_normalize(c)
        _check_split(c, evo, xform)
        for e in evo:
            assert noise.bare_count(e) == 1 or e == ONE


# -- property tests ----------------------------------------------------------

rates = st.sampled_from([F(-2), F(-1), F(-1, 2), F(1, 2), F(1), F(2)])


@st.composite
def atoms(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return phi_atom(draw(st.integers(0, 1)))
    mu = draw(rates)
    n = draw(st.integers(1, 2))
    child = product(*[draw(atoms(depth=depth - 1)) for _ in range(n)])
    return z_atom(mu, child)


# The rule table noise.expectation used before the moment recursion, kept
# unchanged as a reference: every product it evaluates must get its value.

def _table_expectation(expr):
    if expr == ONE:
        return Fraction(1)
    if noise.phi_occurrences(expr) % 2 == 1:
        return Fraction(0)
    # Factorise over disjoint noise symbols.
    comps = []
    for a in expr:
        syms = noise.symbols_of((a,))
        hit = [c for c in comps if noise.symbols_of(tuple(c)) & syms]
        for c in hit:
            comps.remove(c)
        comps.append(sum(hit, []) + [a])
    if len(comps) > 1:
        total = Fraction(1)
        for c in comps:
            e = _table_expectation(product(*c))
            if e is None:
                return None
            total *= e
        return total
    return _table_component(expr)


def _table_component(expr):
    if expr == ONE:
        return Fraction(1)
    if len(expr) == 1:
        a = expr[0]
        if noise.is_bare(a):
            return Fraction(0)
        inner = _table_expectation(a[2])
        if inner is None:
            return None
        return inner / abs(a[1])
    # Disjoint past/future groups are independent.
    sides = [noise.atom_side(a) for a in expr]
    if all(s is not None for s in sides) and len(set(sides)) == 2:
        past = product(*[a for a, s in zip(expr, sides) if s < 0])
        fut = product(*[a for a, s in zip(expr, sides) if s > 0])
        ep, ef = _table_expectation(past), _table_expectation(fut)
        if ep is None or ef is None:
            return None
        return ep * ef
    if len(expr) == 2:
        a, b = expr
        if a == b and noise.is_conv(a) and len(a[2]) == 1 and noise.is_bare(a[2][0]):
            return Fraction(1, 2) / abs(a[1])
        if noise.quad_pair(expr) is not None:
            return Fraction(1, 2)
    return None


@given(st.lists(atoms(), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_expectation_agrees_with_the_rule_table(atom_list):
    expr = product(*atom_list)
    want = _table_expectation(expr)
    if want is not None:
        assert expectation(expr) == want


def test_the_rule_table_reference_answers_its_own_cases():
    # the property above compares values only where the table answers
    z3 = z_atom(F(-3), (PHI,))
    assert _table_expectation(product(z3, z3)) == F(1, 6)
    assert _table_expectation(product(PHI, ZM)) == F(1, 2)
    assert _table_expectation(product(ZM, ZM, ZP, ZP)) == F(1, 4)
    assert _table_expectation(product(ZM, z_atom(F(-2), (PHI,)))) is None


@given(st.lists(atoms(), min_size=1, max_size=4), st.permutations(range(4)))
@settings(max_examples=60, deadline=None)
def test_canonical_key_order_independent(atom_list, perm):
    shuffled = [atom_list[i % len(atom_list)] for i in perm][: len(atom_list)]
    assert product(*atom_list) == product(*sorted(shuffled, key=noise.atom_sort_key)) \
        or sorted(atom_list, key=noise.atom_sort_key) != sorted(shuffled, key=noise.atom_sort_key)
    # building the same multiset in any order gives the same key
    assert product(*atom_list) == product(*reversed(atom_list))


@st.composite
def memory_sums(draw):
    """Forcings built from memory convolutions with at most one bare."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        n_conv = draw(st.integers(1, 2))
        convs = []
        for _ in range(n_conv):
            mu = draw(st.sampled_from([F(-2), F(-1), F(-1, 2)]))
            nest = draw(st.booleans())
            inner = (z_atom(F(-1), (PHI,)),) if nest else (PHI,)
            convs.append(z_atom(mu, inner))
        expr = product(*convs)
        coeff = F(draw(st.integers(-4, 4)) or 1)
        terms[expr] = terms.get(expr, F(0)) + coeff
    return {e: c for e, c in terms.items() if c}


@given(memory_sums())
@settings(max_examples=80, deadline=None)
def test_ibp_reconstructs_forcing(c):
    evo, xform = ibp_normalize(c)
    back = n_add(evo, diff(xform)) if xform else dict(evo)
    assert back == c
    for e in evo:
        # irreducible shapes only: constants, one bare, bare times convolutions
        assert e == ONE or noise.bare_count(e) == 1


# -- interned rates ------------------------------------------------------------

def test_interned_rate_atoms_match_every_other_form():
    dims, names = Dims(1, 1, ("sigma",), 1), (("x",), ("y",), ("sigma",))
    s = parse_series("Z[-1]{ phi[0] }", dims, Trunc(2, (None,)), names)
    [(_mono, parsed)] = list(s.terms)
    built = z_atom(F(-1), (PHI,))
    forms = [built, parsed[0], ("Z", Fraction(-1), (("phi", 0),)),
             copy.deepcopy(built), pickle.loads(pickle.dumps(built))]
    for form in forms:
        assert form == built and hash(form) == hash(built)
        assert {form: 1}[built] == 1 and {built: 1}[form] == 1
        assert {(form,): 1}[(built,)] == 1
    rate = built[1]
    assert hash(rate) == hash(Fraction(-1)) == hash(-1)
    assert str(rate) == "-1" and repr(rate) == "Fraction(-1, 1)"
    assert render_noise((built,)) == "Z[-1]{ phi[0] }"
    assert copy.deepcopy(rate) is rate and pickle.loads(pickle.dumps(rate)) is rate
    assert z_atom(F(3, 2), (PHI,))[1] is z_atom(F(6, 4), (PHI,))[1]
