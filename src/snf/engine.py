"""Residual-driven construction of stochastic normal-form transforms.

Starting from the identity transform, each sweep measures how badly the
current transform-plus-evolution pair fails to satisfy the governing
equations, then splits every lowest-grade residual monomial between
transform and evolution by one homological solve.  Fast equations come
first, then the slow equations against the updated transform.  Sweeps repeat
until the residual vanishes below the truncation order; ``compute_residual``
is the one residual formula, read by the sweeps and by ``verify_order``.
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
    """Residuals of the original equations at the current approximation.

    res_x_i = (A xi)_i + f_i(X+xi, Y+eta) - F_i - d(xi_i)/dt
    res_y_j = beta_j eta_j + g_j(X+xi, Y+eta) - G_j - d(eta_j)/dt

    with d/dt taken along the current evolution (AX+F, BY+G).
    """
    tx, ty = nf.transform_x(), nf.transform_y()
    xdot, ydot = nf.xdot(), nf.ydot()
    res_x = []
    for i in range(spec.m):
        r = spec.f[i].substitute(slow=tx, fast=ty) - nf.F[i] \
            - nf.xi[i].time_derivative(xdot, ydot)
        for j in range(spec.m):
            if spec.A[i][j]:
                r = r + nf.xi[j].scale(spec.A[i][j])
        res_x.append(r)
    res_y = []
    for j in range(spec.n):
        r = spec.g[j].substitute(slow=tx, fast=ty) - nf.G[j] \
            - nf.eta[j].time_derivative(xdot, ydot) \
            + nf.eta[j].scale(spec.B_diag[j])
        res_y.append(r)
    return res_x, res_y


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
    """One sweep: clear the lowest residual grade, fast first then slow.

    Returns True when any correction was made.
    """
    changed = False
    res_x, res_y = compute_residual(spec, nf)
    gy = _lowest(res_y)
    if gy is not None:
        _assign(nf, res_y, gy, fast=True)
        changed = True
        res_x, _ = compute_residual(spec, nf)
    gx = _lowest(res_x)
    if gx is not None:
        _assign(nf, res_x, gx, fast=False)
        changed = True
    return changed


def construct(spec: SystemSpec, policy: Policy) -> NormalForm:
    """Build the normal form to the system's truncation order.

    Deterministic: identical spec, policy and order give an identical result.
    """
    spec.validate()
    nf = identity_form(spec, policy)
    budget = spec.trunc.total + 5
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
    nf.certified = not nf.certification_failures()
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
