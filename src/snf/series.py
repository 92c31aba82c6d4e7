"""Graded multivariate series over slow/fast variables, small parameters and
noise expressions, with exact rational coefficients.

A monomial records integer exponents for each slow variable, fast variable
and declared small parameter.  Its grade is the total exponent count; noise
expressions carry grade zero (noise magnitude lives in the parameter
exponents).  Series are truncated by a total-grade cap plus optional
per-parameter caps, so mixed orders such as "total grade 5, sigma^2 at most"
are expressible.

Series values are immutable once built; all operations return new values.

Invariant: every series holds only nonzero ``Fraction`` coefficients, on
monomials its ``Trunc`` keeps.  ``Series.__init__`` establishes it for terms
that come from outside the algebra (the parsers, system files, tests and
``build_like`` callers) by dropping zeros and unkept monomials and wrapping
each coefficient.  The arithmetic (``+``, ``-``, ``*``, ``scale``,
``substitute`` and the variable derivatives) takes operands that hold the
invariant and builds results that hold it by construction: sums and
products of nonzero Fractions with cancelled keys dropped, on monomials
whose total grade the ``__mul__`` bucket ladder bounds and whose parameter
exponents it checks.  Those results are wrapped by ``Series._trusted``
without a second check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from operator import add
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import noise
from .noise import Expr, NoiseSum, ONE

Mono = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]
Key = Tuple[Mono, Expr]


@dataclass(frozen=True)
class Dims:
    """Variable layout shared by every series of one system."""
    m: int
    n: int
    params: Tuple[str, ...]
    noises: int = 1

    def mono(self, slow=(), fast=(), par=()) -> Mono:
        s = tuple(slow) if slow else (0,) * self.m
        f = tuple(fast) if fast else (0,) * self.n
        p = tuple(par) if par else (0,) * len(self.params)
        if len(s) != self.m or len(f) != self.n or len(p) != len(self.params):
            raise ValueError("monomial exponent lengths do not match dims")
        return (s, f, p)

    @property
    def sizes(self) -> Tuple[int, int, int]:
        """Exponent count of each monomial part: slow, fast, parameter."""
        return (self.m, self.n, len(self.params))


@dataclass(frozen=True)
class Trunc:
    """Total-grade cap with optional per-parameter caps.

    ``count_fast=False`` grades by slow-variable and parameter factors only,
    for systems whose fast variables ride along linearly (the asymptotics are
    then in the parameters and slow amplitude alone).
    """
    total: int
    param_caps: Tuple[Optional[int], ...] = ()
    count_fast: bool = True

    def cap_for(self, k: int) -> Optional[int]:
        return self.param_caps[k] if k < len(self.param_caps) else None

    def grade_of(self, mono: Mono) -> int:
        g = sum(mono[0]) + sum(mono[2])
        if self.count_fast:
            g += sum(mono[1])
        return g

    def keeps(self, mono: Mono) -> bool:
        if self.grade_of(mono) > self.total:
            return False
        for k, e in enumerate(mono[2]):
            cap = self.cap_for(k)
            if cap is not None and e > cap:
                return False
        return True


def grade(mono: Mono) -> int:
    return sum(mono[0]) + sum(mono[1]) + sum(mono[2])


def term_sort_key(key: Key):
    mono, expr = key
    return (grade(mono), mono[0], mono[1], mono[2],
            tuple(noise._sort_key(a) for a in expr))


def name_index(names) -> Dict[str, Tuple[int, int]]:
    """Each name of a (slow, fast, parameter) name triple mapped to its
    (part, index); a name listed twice keeps its first place."""
    index: Dict[str, Tuple[int, int]] = {}
    for part, group in enumerate(names):
        for k, name in enumerate(group):
            index.setdefault(name, (part, k))
    return index


class Series:
    """Finite rational-coefficient series keyed by (monomial, noise product)."""

    __slots__ = ("dims", "trunc", "terms")

    def __init__(self, dims: Dims, trunc: Trunc, terms: Optional[Dict[Key, Fraction]] = None):
        self.dims = dims
        self.trunc = trunc
        clean: Dict[Key, Fraction] = {}
        if terms:
            for (mono, expr), c in terms.items():
                if c and trunc.keeps(mono):
                    clean[(mono, expr)] = Fraction(c)
        self.terms = clean

    @classmethod
    def _trusted(cls, dims: Dims, trunc: Trunc, terms: Dict[Key, Fraction]) -> "Series":
        """Wrap ``terms`` as they are: only for terms that already hold the
        module invariant under ``trunc``."""
        s = object.__new__(cls)
        s.dims, s.trunc, s.terms = dims, trunc, terms
        return s

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dims: Dims, trunc: Trunc) -> "Series":
        return cls(dims, trunc, {})

    @classmethod
    def const(cls, dims: Dims, trunc: Trunc, c) -> "Series":
        return cls(dims, trunc, {(dims.mono(), ONE): Fraction(c)})

    @classmethod
    def var(cls, dims: Dims, trunc: Trunc, part: int, k: int) -> "Series":
        """Variable ``k`` of monomial part ``part`` (0 slow, 1 fast, 2 parameter)."""
        exps = [[0] * size for size in dims.sizes]
        exps[part][k] = 1
        return cls(dims, trunc, {(tuple(map(tuple, exps)), ONE): Fraction(1)})

    @classmethod
    def slow_var(cls, dims: Dims, trunc: Trunc, i: int) -> "Series":
        return cls.var(dims, trunc, 0, i)

    @classmethod
    def fast_var(cls, dims: Dims, trunc: Trunc, j: int) -> "Series":
        return cls.var(dims, trunc, 1, j)

    @classmethod
    def param(cls, dims: Dims, trunc: Trunc, name: str) -> "Series":
        return cls.var(dims, trunc, 2, dims.params.index(name))

    @classmethod
    def noise_sum(cls, dims: Dims, trunc: Trunc, s: NoiseSum) -> "Series":
        return cls(dims, trunc, {(dims.mono(), e): c for e, c in s.items()})

    def build_like(self, terms: Dict[Key, Fraction]) -> "Series":
        return Series(self.dims, self.trunc, terms)

    # -- basic algebra ------------------------------------------------------

    def _check(self, other: "Series"):
        if self.dims != other.dims:
            raise ValueError("series dimension mismatch")
        if self.trunc != other.trunc:
            raise ValueError("series truncation mismatch")

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        return Series._trusted(self.dims, self.trunc,
                               noise.add_into(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Series":
        return Series._trusted(self.dims, self.trunc, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def scale(self, c) -> "Series":
        c = Fraction(c)
        if not c:
            return Series._trusted(self.dims, self.trunc, {})
        return Series._trusted(self.dims, self.trunc, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "Series") -> "Series":
        """Truncated product.  Grades add, so the right operand is bucketed
        by grade and each left term stops at the first bucket that would
        overflow the total cap.  The buckets also split by the exponents of
        the capped parameters, so a left term passes or skips a whole
        bucket on the parameter caps; with no cap set nothing is checked."""
        self._check(other)
        trunc = self.trunc
        grade_of, total = trunc.grade_of, trunc.total
        capped = [(k, trunc.cap_for(k)) for k in range(len(self.dims.params))
                  if trunc.cap_for(k) is not None]
        buckets: Dict[Tuple[int, ...], List[Tuple[Key, Fraction]]] = {}
        for item in other.terms.items():
            pb = item[0][0][2]
            at = (grade_of(item[0][0]),) + tuple(pb[k] for k, _cap in capped)
            buckets.setdefault(at, []).append(item)
        ladder = [(at[0], at[1:], bucket) for at, bucket in sorted(buckets.items())]
        merge = noise.merge
        # Merged noise products by operand identity: both operands keep
        # their keys alive for the whole call.
        merged: Dict[Tuple[int, int], Expr] = {}
        out: Dict[Key, Fraction] = {}
        get = out.get
        for (ma, ea), ca in self.terms.items():
            room = total - grade_of(ma)
            sa, fa, pa = ma
            spare = [cap - pa[k] for k, cap in capped]
            for g, used, bucket in ladder:
                if g > room:
                    break
                if capped and any(u > r for u, r in zip(used, spare)):
                    continue
                for ((sb, fb, pb), eb), cb in bucket:
                    if not ea:
                        e = eb
                    elif not eb:
                        e = ea
                    else:
                        pair = (id(ea), id(eb))
                        e = merged.get(pair)
                        if e is None:
                            e = merged[pair] = merge(ea, eb)
                    key = ((tuple(map(add, sa, sb)), tuple(map(add, fa, fb)),
                            tuple(map(add, pa, pb))), e)
                    # Inline rather than noise.add_into: this is the hot
                    # loop of reversion and certification.  A product of
                    # nonzero Fractions is nonzero; only a sum can cancel.
                    c = get(key)
                    if c is None:
                        out[key] = ca * cb
                    else:
                        c += ca * cb
                        if c:
                            out[key] = c
                        else:
                            del out[key]
        return Series._trusted(self.dims, trunc, out)

    def pow(self, k: int) -> "Series":
        if k < 0:
            raise ValueError("negative powers are not series")
        result = Series.const(self.dims, self.trunc, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def truncate(self, total: Optional[int] = None,
                 param_caps: Optional[Tuple[Optional[int], ...]] = None) -> "Series":
        new_total = self.trunc.total if total is None else min(self.trunc.total, total)
        caps = self.trunc.param_caps if param_caps is None else param_caps
        t = replace(self.trunc, total=new_total, param_caps=caps)
        return Series(self.dims, t, self.terms)

    def with_trunc(self, trunc: Trunc) -> "Series":
        return Series(self.dims, trunc, self.terms)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lowest_grade(self) -> Optional[int]:
        if not self.terms:
            return None
        return min(self.trunc.grade_of(m) for (m, _e) in self.terms)

    def terms_of_grade(self, g: int) -> List[Tuple[Key, Fraction]]:
        out = [(k, c) for k, c in self.terms.items() if self.trunc.grade_of(k[0]) == g]
        out.sort(key=lambda kc: term_sort_key(kc[0]))
        return out

    def sorted_terms(self) -> List[Tuple[Key, Fraction]]:
        return sorted(self.terms.items(), key=lambda kc: term_sort_key(kc[0]))

    def coefficient(self, mono: Mono, expr: Expr = ONE) -> Fraction:
        return self.terms.get((mono, expr), Fraction(0))

    def grade_filter(self, pred: Callable[[Mono], bool]) -> "Series":
        return self.build_like({k: c for k, c in self.terms.items() if pred(k[0])})

    def map_noise(self, fn: Callable[[Expr], NoiseSum]) -> "Series":
        """Replace each term's noise product by the noise sum ``fn`` gives."""
        out: Dict[Key, Fraction] = {}
        for (mono, expr), c in self.terms.items():
            noise.add_into(out, (((mono, e2), c2) for e2, c2 in fn(expr).items()), c)
        return self.build_like(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series) and self.dims == other.dims and self.terms == other.terms

    def __hash__(self):
        return hash((self.dims, tuple(self.sorted_terms())))

    def __repr__(self):
        n = len(self.terms)
        return f"<Series {n} term{'s' if n != 1 else ''} order {self.trunc.total}>"

    # -- composition and calculus -------------------------------------------

    def substitute(self, slow: Optional[Sequence["Series"]] = None,
                   fast: Optional[Sequence["Series"]] = None,
                   par: Optional[Sequence["Series"]] = None) -> "Series":
        """Full composition: replace variables by series (identity when None).

        Noise factors pass through untouched; only monomial slots compose.
        Each term multiplies in its slow, then fast, then parameter powers.
        """
        dims, trunc = self.dims, self.trunc
        bases = [list(given) if given is not None else
                 [Series.var(dims, trunc, part, k) for k in range(size)]
                 for part, (given, size) in enumerate(zip((slow, fast, par), dims.sizes))]
        powers: Dict[Tuple[int, int, int], Series] = {}
        unit = dims.mono()
        total: Dict[Key, Fraction] = {}
        for (mono, expr), c in self.terms.items():
            piece = Series._trusted(dims, trunc, {(unit, expr): c})
            for part, exps in enumerate(mono):
                for k, e in enumerate(exps):
                    if e:
                        at = (part, k, e)
                        power = powers.get(at)
                        if power is None:
                            power = powers[at] = bases[part][k].pow(e)
                        piece = piece * power
            noise.add_into(total, piece.terms.items())
        return Series._trusted(dims, trunc, total)

    def diff(self, part: int, k: int) -> "Series":
        """Derivative in variable ``k`` of monomial part ``part``."""
        out: Dict[Key, Fraction] = {}
        for (mono, expr), c in self.terms.items():
            e = mono[part][k]
            if not e:
                continue
            exps = list(mono[part])
            exps[k] -= 1
            parts = list(mono)
            parts[part] = tuple(exps)
            out[(tuple(parts), expr)] = c * e
        return Series._trusted(self.dims, self.trunc, out)

    def diff_slow(self, i: int) -> "Series":
        return self.diff(0, i)

    def diff_fast(self, j: int) -> "Series":
        return self.diff(1, j)

    def diff_noise(self) -> "Series":
        """The explicit time derivative acting on noise atoms alone."""
        return self.map_noise(lambda expr: noise.diff({expr: Fraction(1)}))

    def time_derivative(self, xdot: Sequence["Series"], ydot: Sequence["Series"]) -> "Series":
        """d/dt along an evolution: dt-part on noise plus the chain rule."""
        total = self.diff_noise()
        for part, rates in enumerate((xdot, ydot)):
            for k in range(self.dims.sizes[part]):
                d = self.diff(part, k)
                if not d.is_zero():
                    total = total + d * rates[k]
        return total
