"""Per-monomial homological assignments a + db/dt - mu*b = c.

Each residual monomial X^p Y^q of a slow or fast equation, with its whole
noise coefficient c(t), is split into an evolution part ``a`` and a
transform part ``b`` carrying the same monomial; the split is linear in c.
The resonance rate decides the split:

    fast equation j:  mu = beta_j - sum_l q_l beta_l
    slow equation:    mu = -sum_l q_l beta_l

For mu != 0 the bounded-kernel solution is b = -sgn(mu) Z[mu] c (memory for
mu < 0, anticipation for mu > 0).  Resonant terms (mu = 0) are integrated by
parts so that only constants, bare noise and bare-times-convolution products
remain in the evolution.

Each solve reads and fills ``solved``, the unit solutions keyed by (rate,
side, noise product).  The caller owns it: ``construct`` keeps one per
call, so no solution outlives the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from . import noise
from .noise import Expr, NoiseSum
from .systems import Policy, PolicyConflict


@dataclass
class TermAssignment:
    """Evolution and transform coefficients solving a + db/dt - mu*b = c."""
    evolution: NoiseSum
    transform: NoiseSum


Solved = Dict[Tuple[Fraction, bool, Expr], TermAssignment]


def _bounded_solution(mu: Fraction, c: NoiseSum) -> NoiseSum:
    # b = -sgn(mu) Z[mu] c satisfies db/dt - mu b = c.
    sgn = 1 if mu > 0 else -1
    return noise.n_scale(noise.conv(mu, c), -sgn)


def solve_fast(c: NoiseSum, q: Sequence[int], j: int, B_diag: Sequence[Fraction],
               policy: Policy, solved: Solved) -> TermAssignment:
    """Assign a fast-equation forcing with monomial exponents q in Y."""
    mu = B_diag[j] - sum(Fraction(ql) * bl for ql, bl in zip(q, B_diag))
    return _solve(mu, c, policy, False, solved)


def solve_slow(c: NoiseSum, q: Sequence[int], B_diag: Sequence[Fraction],
               policy: Policy, solved: Solved) -> TermAssignment:
    """Assign a slow-equation forcing with monomial exponents q in Y."""
    mu = -sum(Fraction(ql) * bl for ql, bl in zip(q, B_diag))
    return _solve(mu, c, policy, True, solved)


def _solve(mu: Fraction, c: NoiseSum, policy: Policy, slow: bool,
           solved: Solved) -> TermAssignment:
    # The split is linear in c: sum the unit solutions of its products, in
    # c's order, so the sums come out as one solve of c would build them.
    evo: NoiseSum = {}
    xform: NoiseSum = {}
    for expr, v in c.items():
        unit = solved.get((mu, slow, expr))
        if unit is None:
            unit = solved[(mu, slow, expr)] = _solve_unit(mu, expr, policy, slow)
        noise.add_into(evo, unit.evolution.items(), v)
        noise.add_into(xform, unit.transform.items(), v)
    return TermAssignment(evo, xform)


def _solve_unit(mu: Fraction, expr: Expr, policy: Policy, slow: bool) -> TermAssignment:
    c = {expr: Fraction(1)}
    if mu == 0:
        evo, xform = noise.ibp_normalize(c)
        return TermAssignment(evo, xform)
    if mu < 0:
        if slow:
            raise PolicyConflict("decaying rate cannot arise in a slow equation")
        if abs(mu) < policy.mu_min:
            # Near resonance the memory kernel is as slow as the model itself.
            return TermAssignment(c, {})
        if not policy.anticipation and noise.anticipates(expr):
            raise PolicyConflict(
                "memory assignment would embed an anticipatory forcing")
        return TermAssignment({}, _bounded_solution(mu, c))    # memory
    if policy.anticipation:
        return TermAssignment({}, _bounded_solution(mu, c))    # anticipatory
    return TermAssignment(c, {})    # coupled
