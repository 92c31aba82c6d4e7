"""System descriptions and the normal-form result container."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from . import noise
from .render import new_names, render_noise, term_text
from .series import Dims, Series, Trunc, grade


class SystemDefinitionError(Exception):
    """A system description violates a structural requirement.  ``rhs`` is
    the ("slow" or "fast", index) of the right-hand side at fault, if one is."""

    def __init__(self, message: str, rhs: Optional[Tuple[str, int]] = None):
        super().__init__(message)
        self.rhs = rhs


class CompileError(ValueError):
    """The series cannot be integrated as a forward SDE."""


class IllFormedForSampling(CompileError):
    """A product without pointwise values, or a path too short to sample it."""


class PolicyConflict(Exception):
    """A forcing arose that the active anticipation policy cannot assign."""


@dataclass(frozen=True)
class Policy:
    """Assignment policy for the homological solver.

    ``anticipation`` allows positive-rate convolutions in the transform;
    ``mu_min`` is the near-resonance threshold below which a decaying rate is
    treated as resonant (time scale 1/|mu| too slow to bury in the transform).
    """
    anticipation: bool = True
    mu_min: Fraction = Fraction(0)

    def label(self) -> str:
        return "anticipate" if self.anticipation else "no-anticipate"


ALLOW = Policy(anticipation=True)
FORBID = Policy(anticipation=False)


@dataclass
class SystemSpec:
    """Slow-fast stochastic system  dx = Ax + f,  dy = By + g.

    ``A`` is strictly upper triangular (zero spectrum), ``B`` diagonal with
    negative rational entries.  ``f`` and ``g`` hold everything else: series
    in the variables, parameters and bare noise symbols.
    """
    slow_names: Tuple[str, ...]
    fast_names: Tuple[str, ...]
    param_names: Tuple[str, ...]
    A: Tuple[Tuple[Fraction, ...], ...]
    B_diag: Tuple[Fraction, ...]
    f: List[Series]
    g: List[Series]
    n_noise: int
    trunc: Trunc
    label: str = ""

    @property
    def m(self) -> int:
        return len(self.slow_names)

    @property
    def n(self) -> int:
        return len(self.fast_names)

    @property
    def dims(self) -> Dims:
        return Dims(self.m, self.n, self.param_names, self.n_noise)

    def with_trunc(self, trunc: Trunc) -> "SystemSpec":
        """The same system under another truncation (e.g. ``--order``)."""
        return replace(self, trunc=trunc,
                       f=[s.with_trunc(trunc) for s in self.f],
                       g=[s.with_trunc(trunc) for s in self.g])

    def validate(self) -> None:
        m, n = self.m, self.n
        if len(self.A) != m or any(len(row) != m for row in self.A):
            raise SystemDefinitionError("A must be m x m")
        for i in range(m):
            for j in range(m):
                if j <= i and self.A[i][j] != 0:
                    raise SystemDefinitionError("A must be strictly upper triangular")
        if len(self.B_diag) != n:
            raise SystemDefinitionError("B_diag must have one rate per fast variable")
        for b in self.B_diag:
            if not b < 0:
                raise SystemDefinitionError(f"fast rate must be negative, got {b}")
        if len(self.f) != m or len(self.g) != n:
            raise SystemDefinitionError("one right-hand side per variable required")
        for which, serieses in (("slow", self.f), ("fast", self.g)):
            for idx, s in enumerate(serieses):
                for (mono, expr), c in s.terms.items():
                    g = grade(mono)
                    if g == 0 and expr == noise.ONE:
                        raise SystemDefinitionError(
                            f"{which} rhs {idx}: constant term shifts the equilibrium",
                            (which, idx))
                    if g == 1 and expr == noise.ONE and sum(mono[2]) == 0:
                        # A parameter-free linear term belongs in A or B when it
                        # lives in the equation's own block.
                        if which == "slow" and sum(mono[0]) == 1:
                            raise SystemDefinitionError(
                                f"slow rhs {idx}: bare linear slow term belongs in A",
                                (which, idx))
                        if which == "fast" and sum(mono[1]) == 1:
                            raise SystemDefinitionError(
                                f"fast rhs {idx}: bare linear fast term belongs in B",
                                (which, idx))
                    # A parameter-free term with a fast variable is one
                    # construct cannot clear when, in the truncation's own
                    # grading, a slow term is of grade at most 1 (a bare y;
                    # x*y or y^2 under grade_fast off) or a fast one of grade
                    # 0 (y^2 under grade_fast off).
                    tg = self.trunc.grade_of(mono)
                    if (expr == noise.ONE and sum(mono[2]) == 0 and sum(mono[1])
                            and tg <= (1 if which == "slow" else 0)):
                        if g == 1:
                            what = "bare fast-variable coupling"
                        else:
                            term = term_text((mono, noise.ONE), 1, (
                                self.slow_names, self.fast_names, self.param_names))
                            kind = "coupling" if which == "slow" else "term"
                            what = (f"fast-variable {kind} {term} "
                                    f"(grade {tg} under grade_fast off)")
                        fault = "has no slow time scale" if which == "slow" else "is not small"
                        raise SystemDefinitionError(
                            f"{which} rhs {idx}: {what} {fault}; "
                            "weight it by a small parameter", (which, idx))

    def linear_xdot(self) -> List[Series]:
        """A X per slow component, as series."""
        dims, trunc = self.dims, self.trunc
        out = []
        for i in range(self.m):
            s = Series.zero(dims, trunc)
            for j in range(self.m):
                if self.A[i][j]:
                    s = s + Series.slow_var(dims, trunc, j).scale(self.A[i][j])
            out.append(s)
        return out

    def linear_ydot(self) -> List[Series]:
        """B Y per fast component, as series."""
        dims, trunc = self.dims, self.trunc
        return [Series.fast_var(dims, trunc, j).scale(self.B_diag[j])
                for j in range(self.n)]


@dataclass
class NormalForm:
    """Coordinate transform x = X + xi, y = Y + eta with evolution
    dX = AX + F, dY = BY + G, plus certification metadata."""
    spec: SystemSpec
    policy: Policy
    xi: List[Series]
    eta: List[Series]
    F: List[Series]
    G: List[Series]
    residual_grade: Optional[int] = None

    @property
    def certified(self) -> bool:
        return not self.certification_failures()

    def xdot(self) -> List[Series]:
        lin = self.spec.linear_xdot()
        return [lin[i] + self.F[i] for i in range(self.spec.m)]

    def ydot(self) -> List[Series]:
        lin = self.spec.linear_ydot()
        return [lin[j] + self.G[j] for j in range(self.spec.n)]

    def transform_x(self) -> List[Series]:
        dims, trunc = self.spec.dims, self.spec.trunc
        return [Series.slow_var(dims, trunc, i) + self.xi[i] for i in range(self.spec.m)]

    def transform_y(self) -> List[Series]:
        dims, trunc = self.spec.dims, self.spec.trunc
        return [Series.fast_var(dims, trunc, j) + self.eta[j] for j in range(self.spec.n)]

    def certification_failures(self) -> List[str]:
        """Why the form is not certified: the residual grade, then each
        distinct structural problem; empty for a certified form."""
        residual = ([] if self.residual_grade is None
                    else [f"residual at grade {self.residual_grade}"])
        return residual + list(dict.fromkeys(self.check_structure()))

    def check_structure(self) -> List[str]:
        """Structural facts every construction must satisfy; empty when clean."""
        problems = []
        for i, s in enumerate(self.xi + self.eta):
            for (mono, expr), _c in s.terms.items():
                if grade(mono) == 0 and expr == noise.ONE:
                    problems.append(f"transform component {i} has a constant term")
                if any(noise.is_bare(a) for a in expr):
                    problems.append(
                        f"transform component {i} carries bare noise {render_noise(expr)}")
        for j, s in enumerate(self.G):
            for (mono, expr), _c in s.terms.items():
                if sum(mono[1]) == 0:
                    problems.append(f"fast evolution {j} has a fast-variable-free "
                                    f"term {self._render_term(mono, expr)}")
        if self.policy.anticipation:
            for i, s in enumerate(self.F):
                for (mono, expr), _c in s.terms.items():
                    if sum(mono[1]) != 0:
                        problems.append(f"slow evolution {i} depends on fast variables")
                    if noise.anticipates(expr):
                        problems.append(f"slow evolution {i} anticipates the "
                                        f"noise: {render_noise(expr)}")
            for comp in (self.xi, self.eta):
                for s in comp:
                    for (mono, expr), _c in s.terms.items():
                        if noise.anticipates(expr) and sum(mono[1]) == 0:
                            problems.append(
                                "anticipatory convolution on a fast-variable-free "
                                f"transform term {self._render_term(mono, expr)}")
        else:
            for s in self.xi + self.eta + self.F + self.G:
                for (_mono, expr), _c in s.terms.items():
                    if noise.anticipates(expr):
                        problems.append("anticipation produced under the "
                                        f"no-anticipate policy: {render_noise(expr)}")
        return problems

    def _render_term(self, mono, expr) -> str:
        """One term with unit coefficient, in the report's names X, Y."""
        return term_text((mono, expr), 1, (*new_names(self.spec), self.spec.param_names))
