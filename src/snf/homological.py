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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import noise
from .noise import NoiseSum
from .systems import Policy, PolicyConflict


@dataclass
class TermAssignment:
    """Evolution and transform coefficients solving a + db/dt - mu*b = c."""
    evolution: NoiseSum
    transform: NoiseSum


def _bounded_solution(mu: Fraction, c: NoiseSum) -> NoiseSum:
    # b = -sgn(mu) Z[mu] c satisfies db/dt - mu b = c.
    sgn = 1 if mu > 0 else -1
    return noise.n_scale(noise.conv(mu, c), -sgn)


def solve_fast(c: NoiseSum, q: Sequence[int], j: int,
               B_diag: Sequence[Fraction], policy: Policy) -> TermAssignment:
    """Assign a fast-equation forcing with monomial exponents q in Y."""
    mu = B_diag[j] - sum(Fraction(ql) * bl for ql, bl in zip(q, B_diag))
    return _solve(mu, c, policy, slow=False)


def solve_slow(c: NoiseSum, q: Sequence[int],
               B_diag: Sequence[Fraction], policy: Policy) -> TermAssignment:
    """Assign a slow-equation forcing with monomial exponents q in Y."""
    mu = -sum(Fraction(ql) * bl for ql, bl in zip(q, B_diag))
    return _solve(mu, c, policy, slow=True)


def _solve(mu: Fraction, c: NoiseSum, policy: Policy, slow: bool) -> TermAssignment:
    if mu == 0:
        evo, xform = noise.ibp_normalize(c)
        return TermAssignment(evo, xform)
    if mu < 0:
        if slow:
            raise PolicyConflict("decaying rate cannot arise in a slow equation")
        if abs(mu) < policy.mu_min:
            # Near resonance the memory kernel is as slow as the model itself.
            return TermAssignment(dict(c), {})
        if not policy.anticipation and any(map(noise.anticipates, c)):
            raise PolicyConflict(
                "memory assignment would embed an anticipatory forcing")
        return TermAssignment({}, _bounded_solution(mu, c))    # memory
    if policy.anticipation:
        return TermAssignment({}, _bounded_solution(mu, c))    # anticipatory
    return TermAssignment(dict(c), {})    # coupled
