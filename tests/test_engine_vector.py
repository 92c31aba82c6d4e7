"""Vector systems: several fast rates, triangular slow coupling, and
near-resonant rate cancellations."""

from fractions import Fraction

import pytest

from snf import noise
from snf.engine import construct, verify_order
from snf.render import parse_series_for
from snf.series import Dims, Series, Trunc
from snf.systems import ALLOW, Policy, SystemSpec

F = Fraction


def two_fast_system(total=3):
    """xdot = -x y1;  y1dot = -y1 + x^2 + s phi;  y2dot = -2 y2 + y1^2 - x y1."""
    dims = Dims(1, 2, ("s",), 1)
    tr = Trunc(total, (None,))
    X = Series.slow_var(dims, tr, 0)
    Y1 = Series.fast_var(dims, tr, 0)
    Y2 = Series.fast_var(dims, tr, 1)
    s = Series.param(dims, tr, "s")
    phi = Series.noise_sum(dims, tr, noise.nsum_bare(0))
    return SystemSpec(("x",), ("y1", "y2"), ("s",), ((F(0),),),
                      (F(-1), F(-2)),
                      [-(X * Y1)],
                      [X * X + s * phi, Y1 * Y1 - X * Y1],
                      1, tr, "two-fast")


def jordan_slow_system(total=3):
    """Slow block in Jordan form: x1dot = x2 - x1 y; x2dot = -x2^3;
    ydot = -y + x1^2 + s phi."""
    dims = Dims(2, 1, ("s",), 1)
    tr = Trunc(total, (None,))
    X1 = Series.slow_var(dims, tr, 0)
    X2 = Series.slow_var(dims, tr, 1)
    Y = Series.fast_var(dims, tr, 0)
    s = Series.param(dims, tr, "s")
    phi = Series.noise_sum(dims, tr, noise.nsum_bare(0))
    A = ((F(0), F(1)), (F(0), F(0)))
    return SystemSpec(("x1", "x2"), ("y",), ("s",), A, (F(-1),),
                      [-(X1 * Y), -(X2 * X2 * X2)],
                      [X1 * X1 + s * phi],
                      1, tr, "jordan-slow")


def test_two_fast_rates_construct_and_certify():
    spec = two_fast_system()
    nf = construct(spec, ALLOW)
    assert nf.certified
    assert verify_order(spec, nf) is None
    assert nf.check_structure() == []
    # the y1^2 forcing of the second fast equation is resonant
    # (mu = -2 - 2*(-1) = 0) and must stay in its evolution
    assert nf.G[1].coefficient(spec.dims.mono(fast=(2, 0))) == F(1)
    # the x*y1 forcing has mu = -2 + 1 = -1 and moves to the transform
    assert nf.eta[1].coefficient(spec.dims.mono(slow=(1,), fast=(1, 0))) == F(-1)
    assert nf.G[1].coefficient(spec.dims.mono(slow=(1,), fast=(1, 0))) == 0


def test_two_fast_rates_noise_placement():
    spec = two_fast_system()
    nf = construct(spec, ALLOW)
    # s*phi forces y1 at mu = -1: eta1 gains s Z[-1]phi, and the slow
    # equation sees -s X Z[-1]phi, split into -s X phi + transform
    want = parse_series_for("s*Z[-1]{ phi[0] }", spec)
    key = next(iter(want.terms))
    assert nf.eta[0].terms.get(key) == F(1)
    assert nf.F[0].coefficient(
        spec.dims.mono(slow=(1,), par=(1,)),
        (noise.phi_atom(0),)) == F(-1)


def test_jordan_slow_block_converges():
    spec = jordan_slow_system()
    nf = construct(spec, ALLOW)
    assert nf.certified
    assert verify_order(spec, nf) is None
    assert nf.check_structure() == []
    # the linear coupling stays in A, not in the corrections
    assert nf.F[0].coefficient(spec.dims.mono(slow=(0, 1))) == 0
    # slow evolution stays free of the fast variable
    for s in nf.F:
        for (mono, _e), _c in s.terms.items():
            assert sum(mono[1]) == 0


def near_resonant_system():
    """Rates (-1, -9/8): xdot = 0;  y1dot = -y1 - x^2;  y2dot = -9/8 y2 + x y1."""
    dims = Dims(1, 2, ("s",), 1)
    tr = Trunc(3, (None,))
    X = Series.slow_var(dims, tr, 0)
    Y1 = Series.fast_var(dims, tr, 0)
    return SystemSpec(("x",), ("y1", "y2"), ("s",), ((F(0),),),
                      (F(-1), F(-9, 8)),
                      [Series.zero(dims, tr)],
                      [-(X * X), X * Y1],
                      1, tr, "near-resonant")


def toy_family_system(a, b, c):
    """xdot = -a x y;  ydot = -y + b x^2 - c y^2 + s phi."""
    dims = Dims(1, 1, ("s",), 1)
    tr = Trunc(4, (2,))
    X = Series.slow_var(dims, tr, 0)
    Y = Series.fast_var(dims, tr, 0)
    s = Series.param(dims, tr, "s")
    phi = Series.noise_sum(dims, tr, noise.nsum_bare(0))
    return SystemSpec(("x",), ("y",), ("s",), ((F(0),),), (F(-1),),
                      [-(X * Y).scale(a)],
                      [(X * X).scale(b) - (Y * Y).scale(c) + s * phi],
                      1, tr, f"family-{a}{b}{c}")


def test_near_resonant_cancellation_respects_mu_min():
    """With rates (-1, -9/8) the y2 forcing x*y1 has mu = -1/8; a threshold
    above that keeps it in the evolution, below it moves to the transform."""
    spec = near_resonant_system()
    key_mono = spec.dims.mono(slow=(1,), fast=(1, 0))
    kept = construct(spec, Policy(anticipation=True, mu_min=F(1, 4)))
    assert kept.certified
    assert kept.G[1].coefficient(key_mono) == F(1)
    moved = construct(spec, Policy(anticipation=True, mu_min=F(0)))
    assert moved.certified
    assert moved.G[1].coefficient(key_mono) == 0
    # b = Z[-1/8](1) = 8 solves a + db/dt - mu b = c with a = 0
    assert moved.eta[1].coefficient(key_mono) == F(8)


@pytest.mark.parametrize("a,b,c", [(1, 2, 1), (2, 1, 3), (1, 1, 2)])
def test_toy_family_certifies(a, b, c):
    # varying the quadratic coefficients of the scalar family still
    # constructs and certifies
    nf = construct(toy_family_system(a, b, c), ALLOW)
    assert nf.certified and nf.check_structure() == []
