"""Construction of normal forms: exact coefficient checks against the worked
systems, certification, and structural invariants."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import make_system
from snf import noise
from snf.engine import (ConvergenceError, compute_residual, construct,
                        refine_once, verify_order)
from snf.render import parse_series_for
from snf.series import Dims, Series, Trunc
from snf.systems import ALLOW, FORBID, PolicyConflict, SystemSpec

F = Fraction


def S(spec, text):
    return parse_series_for(text, spec)


# -- the bistable toy system -------------------------------------------------

def test_toy_third_order_transform(toy3):
    spec = toy3.spec
    assert toy3.certified
    want_x = S(spec, """
        x + x*y + 3/2*x*y^2
        + sigma*x*Z[-1]{ phi[0] }
        + sigma*x*y*Z[+1]{ -5*phi[0] + 6*Z[-1]{ phi[0] } }
        - 1/2*sigma^2*x*Z[-1]{ phi[0] }^2
        - 2*sigma^2*x*Z[-1]{ Z[-1]{ phi[0] }^2 }""")
    got_x = Series.slow_var(spec.dims, spec.trunc, 0) + toy3.xi[0]
    assert got_x == want_x


def test_toy_third_order_fast_transform(toy3):
    # The sigma^2 term -2 sigma^2 Z-((Z-phi)^2) is derived in the third
    # refinement step and must be present for the residual to vanish.
    spec = toy3.spec
    want_y = S(spec, """
        y + x^2 + 2*y^2 + 4*y^3
        + sigma*Z[-1]{ phi[0] }
        + 4*sigma*y*Z[-1]{ phi[0] }
        + 2*sigma*x^2*Z[-1]{ phi[0] - Z[-1]{ phi[0] } }
        - 8*sigma*y^2*Z[+1]{ 2*phi[0] - 3*Z[-1]{ phi[0] } }
        - 2*sigma^2*Z[-1]{ Z[-1]{ phi[0] }^2 }
        + 4*sigma^2*y*Z[-1]{ phi[0] }^2
        - 8*sigma^2*y*Z[-1]{ Z[-1]{ phi[0] }^2 }
        + 8*sigma^3*Z[-1]{ Z[-1]{ phi[0] }*Z[-1]{ Z[-1]{ phi[0] }^2 } }""")
    got_y = Series.fast_var(spec.dims, spec.trunc, 0) + toy3.eta[0]
    assert got_y == want_y


def test_toy_third_order_evolution(toy3):
    spec = toy3.spec
    assert toy3.xdot()[0] == S(spec, """
        -x^3 - sigma*x*phi[0] + 2*sigma^2*x*phi[0]*Z[-1]{ phi[0] }""")
    assert toy3.ydot()[0] == S(spec, """
        -y - 2*x^2*y - 4*sigma*y*phi[0] + 8*sigma^2*y*phi[0]*Z[-1]{ phi[0] }""")


def test_toy_higher_order_model(toy5):
    spec = toy5.spec
    assert toy5.certified
    assert toy5.xdot()[0] == S(spec, """
        -x^3 - sigma*x*phi[0]
        + 2*sigma^2*x*phi[0]*Z[-1]{ phi[0] }
        - 4*sigma^2*x^3*phi[0]*Z[-1]{ Z[-1]{ phi[0] } }""")
    assert toy5.ydot()[0] == S(spec, """
        - (1 + 2*x^2 + 4*x^4)*y
        - 4*sigma*(1 + x^2)*y*phi[0]
        + 8*sigma^2*y*phi[0]*Z[-1]{ phi[0] }
        + 4*sigma^2*x^2*y*phi[0]*(3*Z[-1]{ phi[0] } - Z[+1]{ phi[0] }
                                  - 2*Z[-1]{ Z[-1]{ phi[0] } })""")


def test_toy_deterministic_transform():
    spec = make_system("toy.snf", total=4, caps=(0,))
    nf = construct(spec, ALLOW)
    assert nf.certified
    got_x = Series.slow_var(spec.dims, spec.trunc, 0) + nf.xi[0]
    got_y = Series.fast_var(spec.dims, spec.trunc, 0) + nf.eta[0]
    assert got_x == S(spec, "x + x*y + 3/2*x*y^2 - 2*x^3*y + 5/2*x*y^3")
    assert got_y == S(spec, "y + x^2 + 2*y^2 + 4*y^3 - 4*x^2*y^2 + 8*y^4")


def test_toy_deterministic_evolution_fifth_order():
    spec = make_system("toy.snf", total=5, caps=(0,))
    nf = construct(spec, ALLOW)
    assert nf.xdot()[0] == S(spec, "-x^3")
    assert nf.ydot()[0] == S(spec, "-(1 + 2*x^2 + 4*x^4)*y")


def test_toy_no_anticipation_model(toy3_noanticipate):
    nf = toy3_noanticipate
    spec = nf.spec
    assert nf.certified
    got_x = Series.slow_var(spec.dims, spec.trunc, 0) + nf.xi[0]
    assert got_x == S(spec, """
        x + sigma*x*Z[-1]{ phi[0] }
        - 1/2*sigma^2*x*Z[-1]{ phi[0] }^2
        - 2*sigma^2*x*Z[-1]{ Z[-1]{ phi[0] }^2 }""")
    got_y = Series.fast_var(spec.dims, spec.trunc, 0) + nf.eta[0]
    assert got_y == S(spec, """
        y + x^2
        + sigma*(1 + 4*y)*Z[-1]{ phi[0] }
        + 2*sigma*x^2*(Z[-1]{ phi[0] } - Z[-1]{ Z[-1]{ phi[0] } })
        - 2*sigma^2*Z[-1]{ Z[-1]{ phi[0] }^2 }
        + 4*sigma^2*y*Z[-1]{ phi[0] }^2
        - 8*sigma^2*y*Z[-1]{ Z[-1]{ phi[0] }^2 }""")
    assert nf.xdot()[0] == S(spec, """
        -x^3 - x*y - sigma*x*phi[0] - 4*sigma*x*y*Z[-1]{ phi[0] }
        + 2*sigma^2*x*phi[0]*Z[-1]{ phi[0] }""")
    assert nf.ydot()[0] == S(spec, """
        -(1 + 2*x^2 + 2*y)*y - 4*sigma*y*(phi[0] + 2*y*Z[-1]{ phi[0] })
        + 8*sigma^2*y*phi[0]*Z[-1]{ phi[0] }""")


def test_policy_equivalence_on_slow_manifold(toy3, toy3_noanticipate):
    zero_a = [Series.zero(toy3.spec.dims, toy3.spec.trunc)]
    zero_f = [Series.zero(toy3_noanticipate.spec.dims, toy3_noanticipate.spec.trunc)]
    allow = toy3.xdot()[0].substitute(fast=zero_a).with_trunc(
        replace(toy3.spec.trunc, param_caps=(2,)))
    forbid = toy3_noanticipate.xdot()[0].substitute(fast=zero_f)
    assert allow.terms == forbid.terms


# -- the two-scale comparison system ----------------------------------------

def test_pk_model(pk3):
    spec = pk3.spec
    assert pk3.certified
    assert pk3.xdot()[0] == S(spec, """
        -eps*(x + eps*x + x^2)
        - eps*sigma*(1 + 2*eps + 2*x)*phi[0]
        - eps*sigma^2*phi[0]*Z[-1]{ phi[0] }""")
    assert pk3.ydot()[0] == S(spec, """
        y*((-1 + eps + eps^2 + 2*eps^3) + (2*eps + 4*eps^2)*x
           + sigma*(2*eps + 6*eps^2)*phi[0])""")


def test_pk_transform_epsilon_block(pk3):
    # the slow transform is complete at first order in eps
    spec = pk3.spec
    tx = Series.slow_var(spec.dims, spec.trunc, 0) + pk3.xi[0]
    eps_part = tx.build_like({k: c for k, c in tx.terms.items() if k[0][2][0] == 1})
    assert eps_part == S(spec, """
        eps*(y + 1/2*y^2 + 2*x*y)
        + eps*sigma*((1 + y + 2*x)*Z[-1]{ phi[0] } + y*Z[+1]{ phi[0] })
        + 1/2*eps*sigma^2*Z[-1]{ phi[0] }^2""")


def test_pk_fast_transform_contains_displayed_terms(pk3):
    spec = pk3.spec
    ty = Series.fast_var(spec.dims, spec.trunc, 0) + pk3.eta[0]
    displayed = S(spec, """
        y + x + sigma*Z[-1]{ phi[0] } - 1/2*eps*y^2
        + eps*sigma*((1 - y)*Z[-1]{ phi[0] } + Z[-1]{ Z[-1]{ phi[0] } }
                     + y*Z[+1]{ phi[0] })
        + eps*sigma^2*Z[-1]{ phi[0]*Z[-1]{ phi[0] } + 1/2*Z[-1]{ phi[0] }^2 }""")
    for key, c in displayed.terms.items():
        assert ty.terms.get(key) == c, key


# -- the linear introductory pair --------------------------------------------

def test_linear_system_exact(linear3):
    nf = linear3
    spec = nf.spec
    assert nf.certified
    # dX = eps dW exactly; dY = -Y dt exactly
    assert nf.xdot()[0] == S(spec, "eps*phi[0]")
    assert nf.ydot()[0] == S(spec, "-y")
    assert nf.eta[0] == S(spec, "Z[-1]{ phi[0] }")
    # x = X - eps Y - eps Z[-1] phi  (direct substitution fixes the signs:
    # any other combination fails to satisfy dx = eps*y dt)
    assert nf.xi[0] == S(spec, "-eps*y - eps*Z[-1]{ phi[0] }")


# -- certification machinery --------------------------------------------------

def test_verify_order_certifies(toy5):
    assert verify_order(toy5.spec, toy5) is None


def test_single_coefficient_corruption_detected(toy5):
    import copy
    spec = toy5.spec
    bad = copy.deepcopy(toy5)
    bad.F[0] = bad.F[0] + S(spec, "1/1000*x^3")
    worst = verify_order(spec, bad)
    assert worst is not None and worst <= 3


def test_transform_corruption_detected(toy3):
    import copy
    spec = toy3.spec
    bad = copy.deepcopy(toy3)
    bad.eta[0] = bad.eta[0] + S(spec, "1/7*sigma*Z[-1]{ phi[0] }")
    assert verify_order(spec, bad) is not None


def test_construct_idempotent(toy3):
    from snf.engine import ResidualTracker
    assert refine_once(toy3.spec, toy3, ResidualTracker(toy3.spec, toy3), {}) is False


@pytest.mark.parametrize("name,total", [("toy.snf", 5), ("papavasiliou.snf", 3)])
def test_construct_runs_the_residual_formula_only_at_the_identity_form(
        monkeypatch, name, total):
    # the tracker is built from _residual, once per side; every later sweep
    # updates it from its additions
    from snf import engine
    spec = make_system(name, total=total)
    calls, sweeps = [], []
    residual = engine._residual

    def counted(spec, nf, fast):
        calls.append((fast, all(s.is_zero() for s in nf.xi + nf.eta + nf.F + nf.G)))
        return residual(spec, nf, fast)

    def sweep(*args):
        sweeps.append(args)
        return refine_once(*args)
    monkeypatch.setattr(engine, "_residual", counted)
    monkeypatch.setattr(engine, "refine_once", sweep)
    construct(spec, ALLOW)
    assert len(sweeps) > 2
    assert sorted(calls) == [(False, True), (True, True)]


def _checked_sweeps(monkeypatch):
    """After every sweep of construct, whether the tracked residuals equal
    compute_residual's, slow side then fast side."""
    from snf import engine
    checked = []

    def sweep(spec, nf, tracker, solved):
        changed = refine_once(spec, nf, tracker, solved)
        res_x, res_y = compute_residual(spec, nf)
        checked.append((tracker.slow == res_x, tracker.fast == res_y))
        return changed
    monkeypatch.setattr(engine, "refine_once", sweep)
    return checked


def _vector_systems():
    from test_engine_vector import (jordan_slow_system, near_resonant_system,
                                    toy_family_system, two_fast_system)
    return [two_fast_system(), jordan_slow_system(), near_resonant_system(),
            toy_family_system(2, 1, 3)]


@pytest.mark.parametrize("policy", [ALLOW, FORBID], ids=lambda p: p.label())
@pytest.mark.parametrize("name,total", [
    *(("toy.snf", t) for t in range(3, 8)),
    *(("papavasiliou.snf", t) for t in range(3, 7)),
    ("linear.snf", 3), ("linear.snf", 4), ("vector", None)])
def test_the_tracked_residual_is_the_residual_after_every_sweep(
        monkeypatch, name, total, policy):
    specs = _vector_systems() if name == "vector" else [make_system(name, total=total)]
    for spec in specs:
        checked = _checked_sweeps(monkeypatch)
        nf = construct(spec, policy)
        assert len(checked) > 1
        assert checked == [(True, True)] * len(checked), spec.label
        assert verify_order(spec, nf) is None


@st.composite
def small_systems(draw):
    """One slow and one or two fast variables, a parameter s, and random
    rational coefficients on quadratic and cubic right-hand-side terms,
    some of them noisy."""
    n = draw(st.integers(1, 2))
    dims = Dims(1, n, ("s",), 1)
    # ungraded fast variables must ride along linearly, and a slow x*y is
    # then a grade-1 coupling that no truncation clears
    count_fast = n == 2 or draw(st.booleans())
    tr = Trunc(draw(st.integers(3, 4)), (draw(st.sampled_from([None, 2])),), count_fast)
    x = Series.slow_var(dims, tr, 0)
    ys = [Series.fast_var(dims, tr, j) for j in range(n)]
    s = Series.param(dims, tr, "s")
    phi = Series.noise_sum(dims, tr, noise.nsum_bare(0))
    monos = [x * x, x * ys[0], x * x * x, x * ys[-1] * ys[-1], ys[0] * ys[-1],
             s * phi, s * x * phi, s * ys[0] * phi]
    coeffs = st.fractions(-2, 2, max_denominator=3)

    def rhs(allowed):
        return Series.zero(dims, tr).plus(
            monos[i].scale(draw(coeffs)) for i in draw(st.sets(st.sampled_from(allowed),
                                                                min_size=1, max_size=4)))
    rates = tuple(draw(st.sampled_from([F(-1), F(-2), F(-1, 2), F(-3, 2)]))
                  for _ in range(n))
    return SystemSpec(("x",), tuple(f"y{j}" for j in range(n)), ("s",), ((F(0),),),
                      rates, [rhs([1, 2, 3, 4, 6] if count_fast else [2, 6])],
                      [rhs([0, 1, 3, 4, 5, 6, 7] if count_fast else [0, 1, 5, 6, 7])
                       for _ in range(n)],
                      1, tr, "random")


@given(spec=small_systems(), anticipate=st.booleans())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_the_tracked_residual_of_random_systems(monkeypatch, spec, anticipate):
    checked = _checked_sweeps(monkeypatch)
    try:
        construct(spec, ALLOW if anticipate else FORBID)
    except (PolicyConflict, noise.NoiseError):
        pass
    assert checked == [(True, True)] * len(checked)


def test_a_dropped_rate_change_term_is_caught(monkeypatch):
    # the planted fault: drop sum s_v drate_v from the time-derivative update
    from snf import engine
    checked = _checked_sweeps(monkeypatch)
    monkeypatch.setattr(engine, "_rate_change_terms", lambda spec, s, d_rate: [])
    try:
        construct(make_system("toy.snf", total=5), ALLOW)
    except ConvergenceError:
        pass
    assert (True, True) in checked and checked != [(True, True)] * len(checked)


def _held_state():
    """The size of each container that snf.noise, snf.homological or
    snf.engine holds at module or class level, but for the interning pool
    of rates; any other value by id."""
    from snf import engine, homological
    modules = (noise, homological, engine)
    holders = [vars(m) for m in modules]
    holders += [vars(v) for m in modules for v in vars(m).values()
                if isinstance(v, type) and v.__module__ == m.__name__]
    return [{name: len(v) if isinstance(v, (dict, list, set)) else id(v)
             for name, v in held.items() if name != "_pool"} for held in holders]


def test_no_solve_or_residual_outlives_construct():
    # a rate no other system has, so a memo kept past the call would grow
    import gc
    from snf.engine import ResidualTracker
    dims, tr = Dims(1, 1, ("s",), 1), Trunc(4, (None,))
    x, y = Series.slow_var(dims, tr, 0), Series.fast_var(dims, tr, 0)
    phi = Series.param(dims, tr, "s") * Series.noise_sum(dims, tr, noise.nsum_bare(0))
    spec = SystemSpec(("x",), ("y",), ("s",), ((F(0),),), (F(-7, 3),),
                      [-(x * y)], [x * x + phi], 1, tr, "rate-7/3")
    before = _held_state()
    nf = construct(spec, ALLOW)
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, ResidualTracker)]
    assert _held_state() == before
    assert nf.certified and any(not s.is_zero() for s in nf.eta)


def test_construct_deterministic():
    a = construct(make_system("toy.snf", total=3), ALLOW)
    b = construct(make_system("toy.snf", total=3), ALLOW)
    assert [s.terms for s in a.xi + a.eta + a.F + a.G] == \
           [s.terms for s in b.xi + b.eta + b.F + b.G]


def _stall_after_one_sweep(monkeypatch):
    """Run construct's first sweep; every later one changes nothing but
    reports a change, so the sweep budget runs out one sweep in."""
    from snf import engine
    sweeps = []

    def sweep(spec, nf, tracker, solved):
        sweeps.append(nf)
        return refine_once(spec, nf, tracker, solved) if len(sweeps) == 1 else True
    monkeypatch.setattr(engine, "refine_once", sweep)


def test_budget_exhaustion_raises(monkeypatch):
    _stall_after_one_sweep(monkeypatch)
    with pytest.raises(ConvergenceError):
        construct(make_system("toy.snf", total=4), ALLOW)


def test_budget_exhaustion_dumps_the_residual_in_the_report_names(monkeypatch):
    # the residual is a function of the normal-form variables X, Y
    _stall_after_one_sweep(monkeypatch)
    with pytest.raises(ConvergenceError) as info:
        construct(make_system("toy.snf", total=4), ALLOW)
    dump = info.value.residual_dump
    assert "- 2*Y^2 + X^2 +" in dump.splitlines()[1]
    assert not re.search(r"\b[xy]\b", dump)


def test_identity_transform_residual(toy3):
    # With the identity transform the fast residual is the raw right-hand
    # side x^2 - 2y^2 + sigma*phi.
    from snf.engine import identity_form
    spec = toy3.spec
    nf0 = identity_form(spec, ALLOW)
    res_x, res_y = compute_residual(spec, nf0)
    assert res_y[0] == S(spec, "x^2 - 2*y^2 + sigma*phi[0]")
    assert res_x[0] == S(spec, "-x*y")


@pytest.mark.parametrize("fixture", ["toy3", "toy5", "toy3_noanticipate",
                                     "pk3", "linear3"])
def test_structural_invariants(fixture, request):
    nf = request.getfixturevalue(fixture)
    assert nf.check_structure() == []
    for s in nf.G:
        for (mono, _e), _c in s.terms.items():
            assert sum(mono[1]) >= 1
    if nf.policy.anticipation:
        for s in nf.F:
            for (mono, expr), _c in s.terms.items():
                assert sum(mono[1]) == 0
                assert not noise.anticipates(expr)
    for s in nf.xi + nf.eta:
        for (_mono, expr), _c in s.terms.items():
            assert noise.bare_count(expr) == 0


def test_anticipation_only_on_fast_monomials(toy5):
    # positive-rate convolutions only ever multiply fast-variable factors
    for s in list(toy5.xi) + list(toy5.eta):
        for (mono, expr), _c in s.terms.items():
            if noise.anticipates(expr):
                assert sum(mono[1]) >= 1, (mono, expr)
