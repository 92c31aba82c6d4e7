"""An oracle for the normal-form residual outside the ``Series`` algebra.

The residual of the original equations is recomputed in sympy's sparse
polynomials over the rationals.  Slow, fast and parameter variables and every
distinct noise atom, bare ``phi[k]`` included, are ring generators, so noise
products commute.  The time derivative is restated from the convolution
calculus of ``snf.noise``,

    d/dt Z[mu]{c} = -sgn(mu)*c + mu*Z[mu]{c},

and the chain rule runs along the claimed evolution AX+F, BY+G.  Products
drop the monomials outside the truncation window (total grade, fast grading,
parameter caps) as they are formed.  Nothing here calls ``Series``
arithmetic, ``substitute``, ``time_derivative`` or the noise calculus; the
series are only read term by term.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from sympy import QQ
from sympy.polys.rings import ring

from conftest import make_system
from snf import noise
from snf.engine import ConvergenceError, construct, verify_order
from snf.render import parse_series
from snf.series import Dims, Series, Trunc
from snf.systems import ALLOW, PolicyConflict, SystemDefinitionError, SystemSpec
from test_engine_vector import jordan_slow_system, two_fast_system


class ResidualOracle:
    """The lowest surviving grade of the residual of ``nf`` against ``spec``."""

    def __init__(self, spec, nf):
        self.spec, self.nf = spec, nf
        atoms = {}
        for s in spec.f + spec.g + nf.xi + nf.eta + nf.F + nf.G:
            for _mono, expr in s.terms:
                _collect_atoms(expr, atoms)
        m, n, p = spec.m, spec.n, len(spec.param_names)
        names = ([f"x{i}" for i in range(m)] + [f"y{j}" for j in range(n)]
                 + [f"p{k}" for k in range(p)] + [f"a{k}" for k in range(len(atoms))])
        self.R, *gens = ring(names, QQ)
        self.x, self.y, self.p = gens[:m], gens[m:m + n], gens[m + n:m + n + p]
        self.atom_gen = dict(zip(atoms, gens[m + n + p:]))

    # -- truncated arithmetic ---------------------------------------------------

    def grade(self, exps):
        m, n, p = len(self.x), len(self.y), len(self.p)
        g = sum(exps[:m]) + sum(exps[m + n:m + n + p])
        return g + sum(exps[m:m + n]) if self.spec.trunc.count_fast else g

    def keeps(self, exps):
        trunc, mn = self.spec.trunc, len(self.x) + len(self.y)
        return self.grade(exps) <= trunc.total and all(
            trunc.cap_for(k) is None or exps[mn + k] <= trunc.cap_for(k)
            for k in range(len(self.p)))

    def cut(self, poly):
        return self.R({e: c for e, c in poly.items() if self.keeps(e)})

    def mul(self, a, b):
        return self.cut(a * b)

    # -- the residual -----------------------------------------------------------

    def poly(self, s: Series):
        out = self.R.zero
        for (mono, expr), c in s.terms.items():
            t = self.R(QQ(c))
            for gen, e in zip(self.x + self.y + self.p, mono[0] + mono[1] + mono[2]):
                t *= gen ** e
            for a in expr:
                t *= self.atom_gen[a]
            out += t
        return out

    def compose(self, f, bases):
        """f with its slow and fast variables replaced by ``bases``,
        truncated at every product."""
        mn = len(bases)
        powers = {}
        out = self.R.zero
        for exps, c in f.items():
            term = self.R({(0,) * mn + exps[mn:]: c})
            for k, e in enumerate(exps[:mn]):
                if not e:
                    continue
                if (k, e) not in powers:
                    pw = self.R.one
                    for _ in range(e):
                        pw = self.mul(pw, bases[k])
                    powers[(k, e)] = pw
                term = self.mul(term, powers[(k, e)])
            out += term
        return out

    def d_atom(self, a):
        """d/dt Z[mu]{c} = -sgn(mu)*c + mu*Z[mu]{c}; phi[k] has none."""
        if noise.is_bare(a):
            raise ValueError(f"phi[{a[1]}] has no time derivative")
        mu, child = a[1], a[2]
        c = self.R.one
        for b in child:
            c *= self.atom_gen[b]
        return (-1 if mu > 0 else 1) * c + QQ(mu) * self.atom_gen[a]

    def d_dt(self, poly, xdot, ydot):
        """The chain rule along (xdot, ydot), plus each atom's own d/dt."""
        out = self.R.zero
        for v, vdot in zip(self.x + self.y, xdot + ydot):
            dp = poly.diff(v)
            if dp:
                out += self.mul(dp, vdot)
        for a, z in self.atom_gen.items():
            dp = poly.diff(z)
            if dp:
                out += self.mul(dp, self.d_atom(a))
        return out

    def lowest_grade(self):
        """Of  f(x, y) + A x - xdot  and  g(x, y) + B y - ydot  at
        x = X + xi, y = Y + eta, with xdot = AX + F + d(xi)/dt and
        ydot = BY + G + d(eta)/dt."""
        spec, nf, P = self.spec, self.nf, self.poly
        A = lambda v: [sum((QQ(spec.A[i][j]) * v[j] for j in range(spec.m)), self.R.zero)
                       for i in range(spec.m)]
        B = lambda v: [QQ(b) * w for b, w in zip(spec.B_diag, v)]
        xi, eta = [P(s) for s in nf.xi], [P(s) for s in nf.eta]
        tx = [x + d for x, d in zip(self.x, xi)]
        ty = [y + d for y, d in zip(self.y, eta)]
        Xdot = [a + P(F) for a, F in zip(A(self.x), nf.F)]
        Ydot = [b + P(G) for b, G in zip(B(self.y), nf.G)]
        residuals = []
        for f, lin, evo, corr in ((spec.f, A(tx), Xdot, xi), (spec.g, B(ty), Ydot, eta)):
            for k in range(len(f)):
                residuals.append(self.compose(P(f[k]), tx + ty) + lin[k] - evo[k]
                                 - self.d_dt(corr[k], Xdot, Ydot))
        return min((self.grade(e) for r in residuals for e in self.cut(r).keys()),
                   default=None)


def _collect_atoms(expr, atoms):
    """Every distinct atom of ``expr``, convolution children included."""
    for a in expr:
        if a not in atoms:
            atoms[a] = None
            if noise.is_conv(a):
                _collect_atoms(a[2], atoms)


def oracle_grade(nf):
    return ResidualOracle(nf.spec, nf).lowest_grade()


def corrupted(nf, seed):
    """``nf`` with one coefficient raised by a seventh of itself, the
    corruption criterion 4 applies."""
    rng = np.random.default_rng(seed)
    fields = [f for f in ("xi", "eta", "F", "G")
              if any(not s.is_zero() for s in getattr(nf, f))]
    field = fields[rng.integers(len(fields))]
    comps = list(getattr(nf, field))
    k = int(rng.choice([i for i, s in enumerate(comps) if not s.is_zero()]))
    key, c = comps[k].sorted_terms()[rng.integers(len(comps[k].terms))]
    comps[k] = comps[k] + Series(nf.spec.dims, nf.spec.trunc, {key: c / 7})
    return dataclasses.replace(nf, **{field: comps})


def coupled_jordan_system(total=3):
    """x1dot = x2 - x1 y;  x2dot = -x2 y;  ydot = -y + x1^2 + s phi.  Unlike
    ``jordan_slow_system`` its xi[1] is nonzero, so the A*xi term is live."""
    dims, trunc = Dims(2, 1, ("s",), 1), Trunc(total, (None,))
    S = lambda text: parse_series(text, dims, trunc, (("x1", "x2"), ("y",), ("s",)))
    return SystemSpec(("x1", "x2"), ("y",), ("s",),
                      ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
                      (Fraction(-1),), [S("-x1*y"), S("-x2*y")], [S("x1^2 + s*phi[0]")],
                      1, trunc, "coupled-jordan")


@pytest.fixture(scope="module")
def toy7():
    return construct(make_system("toy.snf", total=7), ALLOW)


@pytest.fixture(scope="module")
def two_fast3():
    return construct(two_fast_system(3), ALLOW)


@pytest.fixture(scope="module")
def jordan3():
    return construct(jordan_slow_system(3), ALLOW)


@pytest.fixture(scope="module")
def coupled_jordan3():
    return construct(coupled_jordan_system(3), ALLOW)


CASES = ["toy5", "toy3_noanticipate", "pk3", "linear3", "two_fast3", "jordan3",
         "coupled_jordan3"]


@pytest.mark.parametrize("case", CASES + ["toy7"])
def test_oracle_clears_the_constructed_form(case, request):
    nf = request.getfixturevalue(case)
    assert nf.certified
    assert oracle_grade(nf) is None


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_agrees_on_a_corrupted_form(case, seed, request):
    bad = corrupted(request.getfixturevalue(case), seed)
    want = verify_order(bad.spec, bad)
    assert want is not None
    assert oracle_grade(bad) == want


def test_coupled_jordan_case_exercises_the_slow_coupling(coupled_jordan3):
    assert coupled_jordan3.spec.A[0][1] != 0
    assert not coupled_jordan3.xi[1].is_zero()


# -- drawn scalar systems ----------------------------------------------------

SLOW_TERMS = ("x*y", "x^2", "x^3", "x*y^2", "s*y", "s*x*phi[0]")
FAST_TERMS = ("x^2", "y^2", "x*y", "x^2*y", "s*phi[0]", "s*x*phi[0]")


def drawn_system(rate, f_coeffs, g_coeffs):
    dims = Dims(1, 1, ("s",), 1)
    trunc = Trunc(3, (2,))
    names = (("x",), ("y",), ("s",))

    def rhs(terms, coeffs):
        text = " + ".join(f"({c})*{t}" for t, c in zip(terms, coeffs) if c) or "0"
        return parse_series(text, dims, trunc, names)

    return SystemSpec(("x",), ("y",), ("s",), ((Fraction(0),),), (Fraction(rate),),
                      [rhs(SLOW_TERMS, f_coeffs)], [rhs(FAST_TERMS, g_coeffs)],
                      1, trunc, "drawn")


coeffs = st.lists(st.integers(-2, 2), min_size=6, max_size=6)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(rate=st.sampled_from([-1, -2, Fraction(-1, 2)]), f=coeffs, g=coeffs)
def test_oracle_on_drawn_systems(rate, f, g):
    spec = drawn_system(rate, f, g)
    try:
        nf = construct(spec, ALLOW)
    except (SystemDefinitionError, PolicyConflict, ConvergenceError, noise.NoiseError):
        assume(False)
    assert oracle_grade(nf) is None
    if any(not s.is_zero() for s in nf.xi + nf.eta + nf.F + nf.G):
        bad = corrupted(nf, 0)
        assert oracle_grade(bad) == verify_order(spec, bad)
