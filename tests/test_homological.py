"""Per-monomial homological assignments: the case table, the defining
relation and linearity in the forcing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from snf import noise
from snf.noise import ONE, diff, n_add, n_scale, phi_atom, product, z_atom
from snf.homological import TermAssignment, solve_fast, solve_slow
from snf.systems import ALLOW, FORBID, Policy, PolicyConflict

F = Fraction
PHI = phi_atom(0)
ZM = z_atom(F(-1), (PHI,))
ZP = z_atom(F(1), (PHI,))
B = (F(-1),)


def check_relation(asg, mu, c):
    """a + db/dt - mu*b must reproduce the forcing exactly."""
    got = dict(asg.evolution)
    if asg.transform:
        got = n_add(got, diff(asg.transform))
        got = n_add(got, n_scale(asg.transform, -mu))
    assert got == c


def test_fast_noise_goes_to_memory_convolution():
    # toy first step: forcing sigma*phi with q=0 -> eta gets Z- phi
    c = {(PHI,): F(1)}
    asg = solve_fast(c, (0,), 0, B, ALLOW, {})
    assert asg.evolution == {}
    assert asg.transform == {(ZM,): F(1)}
    check_relation(asg, F(-1), c)


def test_fast_resonant_bare_stays_in_evolution():
    # forcing -4 sigma Y phi at q=1: mu = 0, bare noise must stay
    c = {(PHI,): F(-4)}
    asg = solve_fast(c, (1,), 0, B, ALLOW, {})
    assert asg.evolution == c and asg.transform == {}


def test_fast_resonant_memory_splits_by_parts():
    # forcing -4 sigma Y Z- phi at mu=0: evolution -4 phi, transform 4 Z- phi
    c = {(ZM,): F(-4)}
    asg = solve_fast(c, (1,), 0, B, ALLOW, {})
    assert asg.evolution == {(PHI,): F(-4)}
    assert asg.transform == {(ZM,): F(4)}
    check_relation(asg, F(0), c)


def test_fast_anticipation_with_minus_sign():
    # forcing 8 Y^2 (2 phi - 3 Z- phi): mu = +1, b = -Z+ applied to c
    c = {(PHI,): F(16), (ZM,): F(-24)}
    asg = solve_fast(c, (2,), 0, B, ALLOW, {})
    assert asg.evolution == {}
    # -Z+(16 phi - 24 Z- phi) with the composition Z+Z- = (Z+ + Z-)/2
    assert asg.transform == {(ZP,): F(-4), (ZM,): F(12)}
    check_relation(asg, F(1), c)


def test_fast_anticipation_forbidden_couples_evolution():
    c = {(PHI,): F(16), (ZM,): F(-24)}
    asg = solve_fast(c, (2,), 0, B, FORBID, {})
    assert asg.evolution == c and asg.transform == {}


def test_fast_deterministic_forbidden_also_coupled():
    # even deterministic mu>0 forcings go to the evolution when anticipation
    # is off (the transform is kept free of fast-variable content)
    c = {ONE: F(-2)}
    asg = solve_fast(c, (2,), 0, B, FORBID, {})
    assert asg.evolution == c and asg.transform == {}


def test_fast_deterministic_anticipating_is_plain_division():
    # Z+ of a constant is 1/|mu|: no anticipatory atom survives
    c = {ONE: F(-2)}
    asg = solve_fast(c, (2,), 0, B, ALLOW, {})
    assert asg.evolution == {}
    assert asg.transform == {ONE: F(2)}
    check_relation(asg, F(1), c)


def test_near_resonance_threshold():
    pol = Policy(anticipation=True, mu_min=F(1, 4))
    c = {(PHI,): F(1)}
    # mu = -1/8 is slower than the threshold: stays in the evolution
    asg = solve_fast(c, (0,), 0, (F(-1, 8),), pol, {})
    assert asg.evolution == c and asg.transform == {}
    # mu = -1 is fast enough
    asg2 = solve_fast(c, (0,), 0, (F(-1),), pol, {})
    assert asg2.transform


def test_slow_resonant_memory_split():
    # forcing -sigma X Z- phi: evolution -sigma X phi, transform +sigma X Z- phi
    c = {(ZM,): F(-1)}
    asg = solve_slow(c, (0,), B, ALLOW, {})
    assert asg.evolution == {(PHI,): F(-1)}
    assert asg.transform == {(ZM,): F(1)}
    check_relation(asg, F(0), c)


def test_slow_quadratic_irreducible_stays():
    c = {product(PHI, ZM): F(2)}
    asg = solve_slow(c, (0,), B, ALLOW, {})
    assert asg.evolution == c and asg.transform == {}


def test_slow_anticipation_branches():
    # forcing sigma X Y (5 phi - 6 Z- phi): anticipate -> transform only
    c = {(PHI,): F(5), (ZM,): F(-6)}
    allow = solve_slow(c, (1,), B, ALLOW, {})
    assert allow.evolution == {}
    check_relation(allow, F(1), c)
    forbid = solve_slow(c, (1,), B, FORBID, {})
    assert forbid.evolution == c and forbid.transform == {}


def test_policy_conflict_surfaces():
    # a memory solve whose forcing already anticipates cannot be hidden
    c = {(ZP,): F(1)}
    with pytest.raises(PolicyConflict):
        solve_fast(c, (0,), 0, B, FORBID, {})


rates = st.sampled_from([F(-2), F(-1), F(-1, 2)])


@st.composite
def forcings(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            expr = (PHI,)
        elif kind == 1:
            expr = (z_atom(draw(rates), (PHI,)),)
        else:
            expr = product(z_atom(draw(rates), (PHI,)),
                           z_atom(draw(rates), (PHI,)))
        c = F(draw(st.integers(-3, 3)) or 1)
        terms[expr] = terms.get(expr, F(0)) + c
    return {e: c for e, c in terms.items() if c}


@given(forcings(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_fast_defining_relation(c, q):
    mu = F(-1) - F(-q)   # beta_j - q*beta with beta = -1
    asg = solve_fast(c, (q,), 0, B, ALLOW, {})
    check_relation(asg, mu, c)


@given(forcings(), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_slow_defining_relation(c, q):
    mu = F(q)
    asg = solve_slow(c, (q,), B, ALLOW, {})
    check_relation(asg, mu, c)


@given(forcings(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_forbidden_never_anticipates(c, q):
    asg_f = solve_fast(c, (q,), 0, B, FORBID, {})
    asg_s = solve_slow(c, (q,), B, FORBID, {})
    for asg in (asg_f, asg_s):
        for e in list(asg.evolution) + list(asg.transform):
            assert not noise.anticipates(e)


def _solved(solve, c):
    try:
        return solve(c)
    except PolicyConflict:
        return None


@given(forcings(), forcings(), st.booleans(), st.integers(0, 3),
       st.sampled_from([ALLOW, FORBID]))
@settings(max_examples=80, deadline=None)
def test_solve_is_linear_in_the_forcing(c1, c2, anticipating, q, policy):
    """The engine solves a monomial's whole noise sum at once: that is the
    sum of the solves of its parts, and conflicts only where a part has one."""
    if anticipating:
        c2 = n_add(c2, {(ZP,): F(1)})
    for solve in (lambda c: solve_fast(c, (q,), 0, B, policy, {}),
                  lambda c: solve_slow(c, (q,), B, policy, {})):
        whole = _solved(solve, n_add(c1, c2))
        parts = [_solved(solve, c) for c in (c1, c2)]
        if whole is None:
            assert None in parts
        elif None not in parts:
            assert whole.evolution == n_add(parts[0].evolution, parts[1].evolution)
            assert whole.transform == n_add(parts[0].transform, parts[1].transform)


def _one_solve(mu, c, policy, slow):
    """The split of a whole noise sum in one pass, as the solve made it
    before it summed unit solutions: the reference for values, key order
    and refusals."""
    if mu == 0:
        return TermAssignment(*noise.ibp_normalize(c))
    if mu < 0:
        if slow:
            raise PolicyConflict("decaying rate cannot arise in a slow equation")
        if abs(mu) < policy.mu_min:
            return TermAssignment(dict(c), {})
        if not policy.anticipation and any(map(noise.anticipates, c)):
            raise PolicyConflict("memory assignment would embed an anticipatory forcing")
        return TermAssignment({}, noise.conv(mu, c))
    if policy.anticipation:
        return TermAssignment({}, n_scale(noise.conv(mu, c), -1))
    return TermAssignment(dict(c), {})


def _outcome(solve):
    try:
        asg = solve()
    except PolicyConflict as exc:
        return str(exc)
    return list(asg.evolution.items()), list(asg.transform.items())


@given(st.lists(st.tuples(forcings(), st.integers(0, 3), st.booleans()), min_size=1,
                max_size=6),
       st.sampled_from([ALLOW, FORBID, Policy(anticipation=True, mu_min=F(3, 2))]))
@settings(max_examples=80, deadline=None)
def test_a_shared_memo_gives_the_one_pass_solve(calls, policy):
    # one memo across the calls, as construct shares it across its sweeps;
    # mu_min 3/2 makes the q = 0 fast solves (mu = -1) near-resonant
    solved = {}
    for c, q, slow in calls:
        if slow:
            got = _outcome(lambda: solve_slow(c, (q,), B, policy, solved))
            want = _outcome(lambda: _one_solve(F(q), c, policy, True))
        else:
            got = _outcome(lambda: solve_fast(c, (q,), 0, B, policy, solved))
            want = _outcome(lambda: _one_solve(F(q - 1), c, policy, False))
        assert got == want
