"""Residual-driven construction of stochastic normal-form transforms.

Starting from the identity transform, each sweep measures how badly the
current transform-plus-evolution pair fails to satisfy the governing
equations, then assigns every lowest-grade residual term to the transform or
the evolution through the homological solver.  Fast equations are treated
first, then the slow equations against the updated transform.  Sweeps repeat
until the residual vanishes below the truncation order; ``compute_residual``
is the one residual formula, read by the sweeps and by ``verify_order``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import noise
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


def _apply_fast(nf: NormalForm, res_y: List[Series], g: int) -> None:
    spec = nf.spec
    for j in range(spec.n):
        for (mono, expr), c in res_y[j].terms_of_grade(g):
            asg = solve_fast({expr: c}, mono[1], j, spec.B_diag, nf.policy)
            _accumulate(nf.G, nf.eta, j, mono, asg, nf, f"fast[{j}] {mono}")


def _apply_slow(nf: NormalForm, res_x: List[Series], g: int) -> None:
    spec = nf.spec
    for i in range(spec.m):
        for (mono, expr), c in res_x[i].terms_of_grade(g):
            asg = solve_slow({expr: c}, mono[1], spec.B_diag, nf.policy)
            _accumulate(nf.F, nf.xi, i, mono, asg, nf, f"slow[{i}] {mono}")


def _accumulate(evo_list, xform_list, idx, mono, asg, nf, where: str) -> None:
    dims, trunc = nf.spec.dims, nf.spec.trunc
    if asg.evolution:
        evo_list[idx] = evo_list[idx] + Series(
            dims, trunc, {(mono, e): c for e, c in asg.evolution.items()})
        if asg.note == "resonant":
            for e in asg.evolution:
                if e != noise.ONE and not any(noise.is_bare(a) for a in e):
                    nf.diagnostics.append(
                        f"memory term kept in evolution at {where}: {e}")
    if asg.transform:
        xform_list[idx] = xform_list[idx] + Series(
            dims, trunc, {(mono, e): c for e, c in asg.transform.items()})


def refine_once(spec: SystemSpec, nf: NormalForm) -> bool:
    """One sweep: clear the lowest residual grade, fast first then slow.

    Returns True when any correction was made.
    """
    changed = False
    res_x, res_y = compute_residual(spec, nf)
    gy = _lowest(res_y)
    if gy is not None:
        _apply_fast(nf, res_y, gy)
        changed = True
        res_x, _ = compute_residual(spec, nf)
    gx = _lowest(res_x)
    if gx is not None:
        _apply_slow(nf, res_x, gx)
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
