"""Residual-driven construction of stochastic normal-form transforms.

Starting from the identity transform, each sweep clears the lowest residual
grade of the fast equations, then of the slow equations against the updated
transform: ``_assign`` splits every residual monomial of that grade between
transform and evolution by one homological solve.  Sweeps repeat until the
residual vanishes below the truncation order.

One residual formula serves both sides (``_residual``).  ``construct`` runs
it once, at the identity form, to build a ``ResidualTracker``; after that
``_assign`` returns what it added, and the tracker updates both sides'
residuals from those additions alone.  The arithmetic is exact, so the
tracked residual equals the formula's after every sweep, and ``construct``
certifies when the tracked residual reaches zero.  ``verify_order`` reads
both sides from scratch through ``compute_residual``, so derivation and
verification are two computations of one residual.  Each distinct (rate,
side, noise product) is solved once per ``construct`` call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .homological import Solved, solve_fast, solve_slow
from .series import Series, prefix_images, prefixes
from .systems import NormalForm, Policy, SystemSpec


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
    rhs, evo, xform = (spec.g, nf.G, nf.eta) if fast else (spec.f, nf.F, nf.xi)
    res = []
    for k, row in enumerate(_linear_part(spec, fast)):
        r = rhs[k].substitute(slow=tx, fast=ty) - evo[k] - xform[k].time_derivative(xdot, ydot)
        for j, a in enumerate(row):
            if a:
                r = r + xform[j].scale(a)
        res.append(r)
    return res


def _linear_part(spec: SystemSpec, fast: bool):
    """The matrix M of one side: diag(B) on the fast side, A on the slow."""
    if fast:
        return [[b if j == k else 0 for j in range(spec.n)] for k, b in enumerate(spec.B_diag)]
    return spec.A


class ResidualTracker:
    """Both sides' residuals of one normal form, kept current from what each
    sweep adds to it.

    Built by ``_residual``.  It also keeps the image under the transform of
    every prefix of every right-hand-side monomial (``series.prefix_images``).
    When one side's evolution and transform change by ``d_evo`` and
    ``d_xform``, each prefix image P(f), f = head + (last,), changes by

        D(f) = D(head) T'(last) + P(head) dT(last),

    each transform component s by d(ds/dt) = diff_noise(ds) + sum ds_v rate'_v
    + sum s_v drate_v (subscript v: derivative in variable v), and each
    residual by its right-hand side's sum of c D(mono), minus ``d_evo`` and
    d(ds/dt), plus M ``d_xform``.  Primes are new values; P and s are old.
    """

    def __init__(self, spec: SystemSpec, nf: NormalForm):
        self.spec = spec
        self.slow = _residual(spec, nf, fast=False)
        self.fast = _residual(spec, nf, fast=True)
        dims, trunc = spec.dims, spec.trunc
        # each right-hand side as (monomial factors, noise coefficient) pairs
        self.rhs = [s.by_monomial() for s in spec.f + spec.g]
        factors = [f for pairs in self.rhs for f, _c in pairs]
        self.products = prefixes(factors)
        params = [Series.var(dims, trunc, 2, k) for k in range(len(dims.params))]
        self.images = prefix_images(factors, nf.transform_x() + nf.transform_y() + params,
                                    Series.const(dims, trunc, 1))

    def update(self, nf: NormalForm, fast: bool, old: List[Series],
               d_evo: List[Series], d_xform: List[Series]) -> None:
        """Take in one side's additions: ``old`` is that side's transform
        before them, ``nf`` the form after them."""
        spec, images = self.spec, self.images
        at = spec.m if fast else 0
        d_base = {at + k: d for k, d in enumerate(d_xform) if not d.is_zero()}
        d_rate = {at + k: d for k, d in enumerate(d_evo) if not d.is_zero()}
        change = {(v,): d for v, d in d_base.items()}
        base = {v: images[(v,)] + d for v, d in d_base.items()}    # T'
        for f in self.products:
            head, last = f[:-1], f[-1]
            pieces = []
            if head in change:
                pieces.append(change[head] * base.get(last, images[(last,)]))
            if last in d_base:
                pieces.append(images[head] * d_base[last])
            if pieces:
                d = pieces[0].plus(pieces[1:])
                if not d.is_zero():
                    change[f] = d
        for f, d in change.items():
            images[f] = images[f] + d
        xdot, ydot = nf.xdot(), nf.ydot()
        for side, res, xform in ((False, self.slow, nf.xi), (True, self.fast, nf.eta)):
            added = side == fast
            for k, row in enumerate(_linear_part(spec, side)):
                rhs = self.rhs[k + (spec.m if side else 0)]
                pieces = [c * change[f] for f, c in rhs if f in change]
                s_old = old[k] if added else xform[k]
                pieces += [-p for p in _rate_change_terms(spec, s_old, d_rate)]
                if added:
                    pieces.append(-d_evo[k])
                    if not d_xform[k].is_zero():
                        pieces.append(-d_xform[k].time_derivative(xdot, ydot))
                    pieces += [d_xform[j].scale(a) for j, a in enumerate(row) if a]
                res[k] = res[k].plus(pieces)


def _rate_change_terms(spec: SystemSpec, s: Series,
                       d_rate: Dict[int, Series]) -> List[Series]:
    """The terms s_v drate_v of d(ds/dt) when the evolution of each variable
    v (slow, then fast) changes by ``d_rate[v]``."""
    out = []
    for v, d in d_rate.items():
        part, k = (0, v) if v < spec.m else (1, v - spec.m)
        ds = s.diff(part, k)
        if not ds.is_zero():
            out.append(ds * d)
    return out


def _assign(nf: NormalForm, residuals: List[Series], g: int, fast: bool,
            solved: Solved) -> Tuple[List[Series], List[Series]]:
    """Clear grade ``g`` of one side: one solve per (component, monomial) with
    its whole noise sum, one evolution and one transform series per component.
    Returns what it added to the evolution and to the transform, per component."""
    spec = nf.spec
    targets = (nf.G, nf.eta) if fast else (nf.F, nf.xi)
    added = ([], [])
    for k, res in enumerate(residuals):
        forcing = {}
        for (mono, expr), c in res.terms_of_grade(g):
            forcing.setdefault(mono, {})[expr] = c
        parts = ({}, {})
        for mono, c in forcing.items():
            asg = (solve_fast(c, mono[1], k, spec.B_diag, nf.policy, solved) if fast
                   else solve_slow(c, mono[1], spec.B_diag, nf.policy, solved))
            for part, solved_part in zip(parts, (asg.evolution, asg.transform)):
                part.update(((mono, e), v) for e, v in solved_part.items())
        for target, part, out in zip(targets, parts, added):
            d = Series(spec.dims, spec.trunc, part)
            target[k] = target[k] + d
            out.append(d)
    return added


def refine_once(spec: SystemSpec, nf: NormalForm, tracker: ResidualTracker,
                solved: Solved) -> bool:
    """One sweep: clear the lowest residual grade of the fast side, then of
    the slow side against the updated transform, keeping ``tracker`` current.
    True when either changed."""
    changed = False
    for fast in (True, False):
        res = tracker.fast if fast else tracker.slow
        g = _lowest(res)
        if g is not None:
            old = list(nf.eta if fast else nf.xi)
            tracker.update(nf, fast, old, *_assign(nf, res, g, fast, solved))
            changed = True
    return changed


def construct(spec: SystemSpec, policy: Policy) -> NormalForm:
    """Build the normal form to the system's truncation order.

    Deterministic: identical spec, policy and order give an identical result.
    """
    spec.validate()
    nf = identity_form(spec, policy)
    tracker = ResidualTracker(spec, nf)
    solved: Solved = {}
    # revert's rule: under grade_fast off a grade can pass through every
    # component before it clears, and one more sweep sees it settled
    budget = (spec.trunc.total + 1) * (spec.m + spec.n + 1)
    for _ in range(budget):
        # A sweep that changes nothing has just found the residual zero.
        if not refine_once(spec, nf, tracker, solved):
            break
    else:
        res_x, res_y = tracker.slow, tracker.fast
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
