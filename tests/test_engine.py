"""Construction of normal forms: exact coefficient checks against the worked
systems, certification, and structural invariants."""

import re
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_system
from snf import noise
from snf.engine import (ConvergenceError, compute_residual, construct,
                        refine_once, verify_order)
from snf.render import parse_series_for
from snf.series import Series
from snf.systems import ALLOW, FORBID

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
    assert refine_once(toy3.spec, toy3) is False


@pytest.mark.parametrize("name,total", [("toy.snf", 5), ("papavasiliou.snf", 3)])
def test_each_sweep_computes_each_side_once(monkeypatch, name, total):
    # one time derivative per residual component: m + n per sweep
    from snf import engine
    spec = make_system(name, total=total)
    per_sweep = []
    time_derivative = Series.time_derivative

    def counted(self, xdot, ydot):
        per_sweep[-1] += 1
        return time_derivative(self, xdot, ydot)

    def sweep(spec, nf):
        per_sweep.append(0)
        return refine_once(spec, nf)
    monkeypatch.setattr(Series, "time_derivative", counted)
    monkeypatch.setattr(engine, "refine_once", sweep)
    construct(spec, ALLOW)
    assert len(per_sweep) > 1
    assert per_sweep == [spec.m + spec.n] * len(per_sweep)


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

    def sweep(spec, nf):
        sweeps.append(nf)
        return refine_once(spec, nf) if len(sweeps) == 1 else True
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
