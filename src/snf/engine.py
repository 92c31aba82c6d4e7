"""Residual-driven construction of stochastic normal-form transforms.

Starting from the identity transform, each sweep measures how badly the
current transform-plus-evolution pair fails to satisfy the governing
equations, then splits every lowest-grade residual monomial between
transform and evolution by one homological solve.  Fast equations come
first, then the slow equations against the updated transform, and each
side's residual is computed once per sweep.  Sweeps repeat until the
residual vanishes below the truncation order.  One residual formula serves
both sides (``_residual``); the sweeps read it one side at a time, and
``verify_order`` reads both through ``compute_residual``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .series import Series
from .systems import NormalForm, Policy, SystemSpec
from .homological import solve_fast, solve_slow


class ConvergenceError(Exception):
    """The sweep budget ran out before the residual cleared."""

    def __init__(self, message: str, residual_dump: str = ""):
        super().__init__(message)
        self.residual_dump = residual_dump


def identity_form(spec: SystemSpec, policy: Policy) -> NormalForm:
    dims, trunc = spec.dims, spec.trunc
    zero = lambda: Series.zero(dims, trunc)
    return NormalForm(spec=spec, policy=policy,
                      xi=[zero() for _ in range(spec.m)],
                      eta=[zero() for _ in range(spec.n)],
                      F=[zero() for _ in range(spec.m)],
                      G=[zero() for _ in range(spec.n)])


def compute_residual(spec: SystemSpec, nf: NormalForm) -> Tuple[List[Series], List[Series]]:
    """The slow and the fast residuals at the current approximation."""
    return _residual(spec, nf, fast=False), _residual(spec, nf, fast=True)


def _residual(spec: SystemSpec, nf: NormalForm, fast: bool) -> List[Series]:
    """One side's residual of the original equations, per component k:

    res_k = rhs_k(X+xi, Y+eta) - evo_k - d(xform_k)/dt + (M xform)_k

    reading (g, G, eta, diag(B)) on the fast side and (f, F, xi, A) on the
    slow side, with d/dt taken along the current evolution (AX+F, BY+G).
    """
    tx, ty = nf.transform_x(), nf.transform_y()
    xdot, ydot = nf.xdot(), nf.ydot()
    if fast:
        rhs, evo, xform = spec.g, nf.G, nf.eta
        M = [[b if j == k else 0 for j in range(spec.n)] for k, b in enumerate(spec.B_diag)]
    else:
        rhs, evo, xform, M = spec.f, nf.F, nf.xi, spec.A
    res = []
    for k, row in enumerate(M):
        r = rhs[k].substitute(slow=tx, fast=ty) - evo[k] - xform[k].time_derivative(xdot, ydot)
        for j, a in enumerate(row):
            if a:
                r = r + xform[j].scale(a)
        res.append(r)
    return res


def _assign(nf: NormalForm, residuals: List[Series], g: int, fast: bool) -> None:
    """Clear grade ``g`` of one side: one solve per (component, monomial) with
    its whole noise sum, one evolution and one transform series per component."""
    spec = nf.spec
    targets = (nf.G, nf.eta) if fast else (nf.F, nf.xi)
    for k, res in enumerate(residuals):
        forcing = {}
        for (mono, expr), c in res.terms_of_grade(g):
            forcing.setdefault(mono, {})[expr] = c
        parts = ({}, {})
        for mono, c in forcing.items():
            asg = (solve_fast(c, mono[1], k, spec.B_diag, nf.policy) if fast
                   else solve_slow(c, mono[1], spec.B_diag, nf.policy))
            for part, solved in zip(parts, (asg.evolution, asg.transform)):
                part.update(((mono, e), v) for e, v in solved.items())
        for target, part in zip(targets, parts):
            target[k] = target[k] + Series(spec.dims, spec.trunc, part)


def refine_once(spec: SystemSpec, nf: NormalForm) -> bool:
    """One sweep: clear the lowest residual grade of the fast side, then of
    the slow side against the updated transform.  True when either changed."""
    changed = False
    for fast in (True, False):
        res = _residual(spec, nf, fast)
        g = _lowest(res)
        if g is not None:
            _assign(nf, res, g, fast)
            changed = True
    return changed


def construct(spec: SystemSpec, policy: Policy) -> NormalForm:
    """Build the normal form to the system's truncation order.

    Deterministic: identical spec, policy and order give an identical result.
    """
    spec.validate()
    nf = identity_form(spec, policy)
    # revert's rule: under grade_fast off a grade can pass through every
    # component before it clears, and one more sweep sees it settled
    budget = (spec.trunc.total + 1) * (spec.m + spec.n + 1)
    for _ in range(budget):
        # A sweep that changes nothing has just found the residual zero.
        if not refine_once(spec, nf):
            break
    else:
        res_x, res_y = compute_residual(spec, nf)
        if any(not s.is_zero() for s in res_x + res_y):
            raise ConvergenceError(
                f"residual not cleared after {budget} sweeps",
                residual_dump=_dump_residual(spec, res_x, res_y))
    # Either way the residual is zero, so residual_grade stays None.
    return nf


def verify_order(spec: SystemSpec, nf: NormalForm) -> Optional[int]:
    """The lowest grade at which the residual of ``compute_residual`` fails,
    or None when it clears the truncation window."""
    res_x, res_y = compute_residual(spec, nf)
    return _lowest(res_x + res_y)


def _lowest(series_list: List[Series]) -> Optional[int]:
    return min((s.lowest_grade() for s in series_list if not s.is_zero()), default=None)


def _dump_residual(spec: SystemSpec, res_x, res_y) -> str:
    # the residual is a function of the normal-form variables X, Y
    from .render import new_names, render_series
    names = (*new_names(spec), spec.param_names)
    lines = []
    for name, series_list in (("res_x", res_x), ("res_y", res_y)):
        for k, s in enumerate(series_list):
            if not s.is_zero():
                lines.append(f"{name}[{k}] = {render_series(s, names)}")
    return "\n".join(lines)
