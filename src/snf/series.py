"""Graded multivariate series over slow/fast variables, small parameters and
noise expressions, with exact rational coefficients.

A monomial records integer exponents for each slow variable, fast variable
and declared small parameter.  Its grade is the total exponent count; noise
expressions carry grade zero (noise magnitude lives in the parameter
exponents).  Series are truncated by a total-grade cap plus optional
per-parameter caps, so mixed orders such as "total grade 5, sigma^2 at most"
are expressible.

Series values are immutable once built; all operations return new values.

Packed form.  A series stores its terms as a dict from one int key per
(monomial, noise product) to an int numerator, over one common positive
denominator.  A key holds, from the low bits up: the id of its noise
product (``_NOISE_BITS`` wide; every noise product is interned to one id
for the whole process), one exponent field per slow, fast and parameter
variable in that order, and the grade (``Trunc.grade_of``) in the top field.
So the key of a product of monomials is the sum of their keys with the noise
id of the merged product in the low bits, and a term's grade is
``key >> _Layout.gshift``.  A field counted in the grade is wide enough for
the total-grade cap, which bounds it.  A fast field under
``count_fast=False`` is ``_FREE_BITS`` wide with one guard bit above it: a
product whose exponent does not fit sets the guard bit and raises
``OverflowError`` naming the monomial; it never carries into the next field.
Equal (dims, truncation) pairs share one ``_Layout``.

Invariant: the denominator and the numerators have no common factor, no
numerator is zero, and every key is a monomial the series' ``Trunc`` keeps;
equal series under one truncation therefore have equal packed forms.
``Series.__init__`` establishes it for terms that come from outside the
algebra (the parsers, system files, tests and ``build_like`` callers) by
dropping zeros and unkept monomials.  The arithmetic (``+``, ``-``, ``*``,
``scale``, ``substitute`` and the variable derivatives) takes
operands that hold it and builds results that keep it: cancelled keys are
dropped as they cancel, product monomials stay under the caps by the
``__mul__`` bucket ladder, and ``Series._packed`` divides out the common
factor.

``Series.terms`` is a derived, read-only view of the packed form in the
``(mono, expr) -> Fraction`` shape, built on first read and kept; its order
is the packed dict's insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


@lru_cache(maxsize=1 << 16)
def noise_sort_key(expr: Expr) -> tuple:
    return tuple(noise.atom_sort_key(a) for a in expr)


def term_sort_key(key: Key):
    """The term order: graded lexicographic on (grade, slow exponents, fast
    exponents, parameter exponents, noise part)."""
    mono, expr = key
    return (grade(mono), mono[0], mono[1], mono[2], noise_sort_key(expr))


def name_index(names) -> Dict[str, Tuple[int, int]]:
    """Each name of a (slow, fast, parameter) name triple mapped to its
    (part, index); the names must be distinct."""
    return {name: (part, k) for part, group in enumerate(names)
            for k, name in enumerate(group)}


def factors_of(mono: Mono) -> Tuple[int, ...]:
    """A monomial as its factors, in slow, fast, parameter order: each
    variable's position in the exponent vector, repeated by its exponent."""
    return tuple(v for v, e in enumerate(e for part in mono for e in part)
                 for _ in range(e))


def prefixes(factor_tuples: Iterable[Tuple[int, ...]]) -> List[Tuple[int, ...]]:
    """Each prefix of two or more factors of each factor tuple, a tuple of
    two or more factors being its own prefix, each once, shorter before
    longer."""
    return sorted({f[:j] for f in factor_tuples for j in range(2, len(f) + 1)}, key=len)


def prefix_images(factor_tuples: Iterable[Tuple[int, ...]], bases: Sequence["Series"],
                  one: "Series") -> Dict[Tuple[int, ...], "Series"]:
    """The image of every factor tuple and of each of its prefixes when
    variable ``v`` maps to ``bases[v]``, keyed by the tuple: ``()`` maps to
    ``one``, and a longer tuple's image is the image of its prefix one factor
    shorter times the base of its last factor."""
    images = {(): one}
    images.update(((v,), b) for v, b in enumerate(bases))
    for f in prefixes(factor_tuples):
        images[f] = images[f[:-1]] * bases[f[-1]]
    return images


# -- packed keys ---------------------------------------------------------------

_NOISE_BITS = 24
_NOISE_MASK = (1 << _NOISE_BITS) - 1
_FREE_BITS = 16          # width of a fast field the grade does not bound

# Noise products interned for the whole process: id -> product, product -> id.
_EXPRS: List[Expr] = [ONE]
_NOISE_IDS: Dict[Expr, int] = {ONE: 0}


def _noise_id(expr: Expr) -> int:
    i = _NOISE_IDS.get(expr)
    if i is None:
        i = len(_EXPRS)
        if i > _NOISE_MASK:
            raise OverflowError("more distinct noise products than packed keys hold")
        _NOISE_IDS[expr] = i
        _EXPRS.append(expr)
    return i


class _MergeRow(dict):
    """The ids of ``merge(a, b)`` for one noise id ``a``, by ``b``, each
    merged on first use."""

    __slots__ = ("expr",)

    def __missing__(self, b: int) -> int:
        m = self[b] = _noise_id(noise.merge(self.expr, _EXPRS[b]))
        return m


_MERGED: Dict[int, _MergeRow] = {}


@lru_cache(maxsize=1 << 16)
def _noise_diff(expr: Expr) -> NoiseSum:
    """d/dt of one noise product; callers only read the sum."""
    return noise.diff({expr: Fraction(1)})


def _merge_row(a: int) -> _MergeRow:
    row = _MERGED.get(a)
    if row is None:
        row = _MERGED[a] = _MergeRow()
        row.expr = _EXPRS[a]
    return row


class _Layout:
    """Bit fields of the packed keys of every series with one (dims, trunc)."""

    def __init__(self, dims: Dims, trunc: Trunc):
        self.dims = dims
        width = max(1, trunc.total.bit_length())
        # (offset, mask, counted in the grade) per variable
        self.fields: List[Tuple[int, int, bool]] = []
        off, guard = _NOISE_BITS, 0
        for part, size in enumerate(dims.sizes):
            counted = part != 1 or trunc.count_fast
            w = width if counted else _FREE_BITS
            for _ in range(size):
                self.fields.append((off, (1 << w) - 1, counted))
                off += w
                if not counted:
                    guard |= 1 << off
                    off += 1
        self.gshift, self.guard = off, guard
        # Capped parameters: (offset, mask, cap, at, width) each, the
        # last two placing it in the packed ``used``/``spare`` of caps_of.
        first_param = dims.m + dims.n
        self.capped: List[Tuple[int, int, int, int, int]] = []
        self.capped_mask = self.room_bits = at = 0
        for k in range(len(dims.params)):
            cap = trunc.cap_for(k)
            if cap is not None:
                off, mask, _counted = self.fields[first_param + k]
                w = max(1, cap.bit_length())
                self.capped.append((off, mask, cap, at, w))
                self.capped_mask |= mask << off
                self.room_bits |= 1 << (at + w)
                at += w + 1
        self._caps: Dict[int, Tuple[Tuple[int, ...], int, int]] = {}
        self._keys: Dict[Mono, int] = {}
        self._monos: Dict[int, Mono] = {}

    def key(self, mono: Mono) -> int:
        """The packed monomial, noise bits zero."""
        k = self._keys.get(mono)
        if k is None:
            if tuple(map(len, mono)) != self.dims.sizes:
                raise ValueError("monomial exponent lengths do not match dims")
            k = g = 0
            for e, (off, mask, counted) in zip((e for part in mono for e in part),
                                               self.fields):
                if not 0 <= e <= mask:
                    raise OverflowError(f"exponent {e} of monomial {mono} does not "
                                        f"fit a {mask.bit_length()}-bit field")
                k |= e << off
                g += e if counted else 0
            k |= g << self.gshift
            self._keys[mono] = k
        return k

    def mono(self, key: int) -> Mono:
        """The monomial of a packed key with its noise bits zero."""
        m = self._monos.get(key)
        if m is None:
            exps = [(key >> off) & mask for off, mask, _ in self.fields]
            m, at = [], 0
            for size in self.dims.sizes:
                m.append(tuple(exps[at:at + size]))
                at += size
            m = self._monos[key] = tuple(m)
        return m

    def caps_of(self, key: int) -> Tuple[Tuple[int, ...], int, int]:
        """The capped parameter exponents of a packed key, as a tuple and
        as ``used`` and ``spare``: the exponents, and the caps minus the
        exponents with each field's top bit (``room_bits``) set, packed into
        fields one bit wider than each cap.  A right term fits under the
        caps beside a left term unless ``spare - used`` clears a top bit.
        Memoised by ``key & capped_mask``."""
        got = self._caps.get(key & self.capped_mask)
        if got is None:
            exps = tuple((key >> off) & mask for off, mask, *_ in self.capped)
            used = spare = 0
            for e, (_off, _mask, cap, at, w) in zip(exps, self.capped):
                used |= e << at
                spare |= ((1 << w) + cap - e) << at
            got = self._caps[key & self.capped_mask] = (exps, used, spare)
        return got

    def check_fits(self, num: Dict[int, int]) -> None:
        """Raise if a product carried a fast exponent into a guard bit."""
        if reduce(or_, num, 0) & self.guard:
            bad = next(k for k in num if k & self.guard)
            exps = [(bad >> off) & (mask if counted else 2 * mask + 1)
                    for off, mask, counted in self.fields]
            raise OverflowError(f"a fast exponent of {exps} (slow, fast, parameter) "
                                f"does not fit the {_FREE_BITS}-bit fields of "
                                "ungraded fast variables")


# Never evicts: Series._check compares layouts by identity.
@lru_cache(maxsize=None)
def _layout(dims: Dims, trunc: Trunc) -> _Layout:
    return _Layout(dims, trunc)


class Series:
    """Finite rational-coefficient series keyed by (monomial, noise product)."""

    __slots__ = ("dims", "trunc", "_lay", "_num", "_den", "_view", "_ladder")

    def __init__(self, dims: Dims, trunc: Trunc, terms: Optional[Dict[Key, Fraction]] = None):
        lay = _layout(dims, trunc)
        kept = []
        if terms:
            keeps, key = trunc.keeps, lay.key
            for (mono, expr), c in terms.items():
                if c and keeps(mono):
                    kept.append((key(mono) | _noise_id(expr), Fraction(c)))
        den = lcm(*[c.denominator for _k, c in kept])
        self._set(dims, trunc, lay,
                  {k: c.numerator * (den // c.denominator) for k, c in kept}, den)

    def _set(self, dims: Dims, trunc: Trunc, lay: _Layout,
             num: Dict[int, int], den: int) -> None:
        self.dims, self.trunc, self._lay = dims, trunc, lay
        self._num, self._den = num, den
        self._view = self._ladder = None

    def _packed(self, num: Dict[int, int], den: int) -> "Series":
        """A series with this one's dims and truncation from packed terms
        that hold the module invariant but for a common factor of ``den``
        (positive) and the numerators, which is divided out."""
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
        s = object.__new__(Series)
        s._set(self.dims, self.trunc, self._lay, num, den)
        return s

    def __reduce__(self):
        return (Series, (self.dims, self.trunc, dict(self.terms)))

    @property
    def terms(self) -> "MappingProxyType[Key, Fraction]":
        """The terms as ``(mono, expr) -> Fraction``, read-only."""
        view = self._view
        if view is None:
            mono, den = self._lay.mono, self._den
            view = self._view = MappingProxyType({
                (mono(k & ~_NOISE_MASK), _EXPRS[k & _NOISE_MASK]): Fraction(v, den)
                for k, v in self._num.items()})
        return view

    def noise_products(self) -> List[Expr]:
        """Each distinct noise product of the terms, in term order, read off
        the packed keys."""
        return [_EXPRS[i] for i in dict.fromkeys(k & _NOISE_MASK for k in self._num)]

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
        if self._lay is not other._lay:
            if self.dims != other.dims:
                raise ValueError("series dimension mismatch")
            raise ValueError("series truncation mismatch")

    def _combine(self, other: "Series", sign: int) -> "Series":
        """``self + sign * other`` over the least common denominator."""
        self._check(other)
        g = gcd(self._den, other._den)
        to_a, to_b = other._den // g, self._den // g
        out = {k: v * to_a for k, v in self._num.items()}
        noise.add_into(out, other._num.items(), sign * to_b)
        return self._packed(out, self._den * to_a)

    def __add__(self, other: "Series") -> "Series":
        return self._combine(other, 1)

    def __neg__(self) -> "Series":
        return self._packed({k: -v for k, v in self._num.items()}, self._den)

    def __sub__(self, other: "Series") -> "Series":
        return self._combine(other, -1)

    def scale(self, c) -> "Series":
        c = Fraction(c)
        p = c.numerator
        num = {k: v * p for k, v in self._num.items()} if p else {}
        return self._packed(num, self._den * c.denominator)

    def _bucket_ladder(self):
        """This series as the right operand of ``__mul__``: its terms bucketed
        by grade and capped parameter exponents, in ascending order, each
        term as (key without noise id, noise id, numerator)."""
        ladder = self._ladder
        if ladder is None:
            gshift, caps_of = self._lay.gshift, self._lay.caps_of
            buckets: Dict[Tuple[int, Tuple[int, ...]], List[Tuple[int, int, int]]] = {}
            for k, v in self._num.items():
                nb = k & _NOISE_MASK
                buckets.setdefault((k >> gshift, caps_of(k)[:2]), []).append((k - nb, nb, v))
            ladder = self._ladder = [(g, used, bucket)
                                     for (g, (_exps, used)), bucket in sorted(buckets.items())]
        return ladder

    def __mul__(self, other: "Series") -> "Series":
        """Truncated product.  Grades add, so the right operand is bucketed
        by grade and each left term stops at the first bucket that would
        overflow the total cap.  The buckets also split by the exponents of
        the capped parameters, so a left term passes or skips a whole
        bucket on the parameter caps, by one subtraction of packed fields
        (``_Layout.caps_of``) that always passes when no cap is set.  The
        walk also has a lowest product grade, below which a left term skips
        buckets: 0 here, ``k`` in ``mul_grade``."""
        return self._product(other, 0, self.trunc.total)

    def mul_grade(self, other: "Series", k: int) -> "Series":
        """The grade-``k`` terms of ``self * other`` (none past the total
        cap): each left term of grade g reads only the right operand's
        buckets of grade k - g."""
        return self._product(other, k, min(k, self.trunc.total))

    def _product(self, other: "Series", lowest: int, highest: int) -> "Series":
        """The terms of ``self * other`` of grade ``lowest`` to ``highest``,
        by the ladder walk ``__mul__`` describes."""
        self._check(other)
        lay = self._lay
        ladder = other._bucket_ladder()
        gshift = lay.gshift
        caps, cmask, room_bits = lay._caps, lay.capped_mask, lay.room_bits
        merged = _MERGED
        out: Dict[int, int] = {}
        get = out.get
        for ka, ca in self._num.items():
            na, ga = ka & _NOISE_MASK, ka >> gshift
            ha, room, low = ka - na, highest - ga, lowest - ga
            row = merged.get(na)
            if row is None:
                row = _merge_row(na)
            spare = (caps.get(ka & cmask) or lay.caps_of(ka))[2]
            for g, used, bucket in ladder:
                if g > room:
                    break
                if g < low or (spare - used) & room_bits != room_bits:
                    continue
                for hb, nb, cb in bucket:
                    # Inline rather than noise.add_into: this is the hot
                    # loop of reversion and certification.  A product of
                    # nonzero numerators is nonzero; only a sum can cancel.
                    k = ha + hb | row[nb]
                    c = get(k)
                    if c is None:
                        out[k] = ca * cb
                    else:
                        c += ca * cb
                        if c:
                            out[k] = c
                        else:
                            del out[k]
        if lay.guard:
            lay.check_fits(out)
        return self._packed(out, self._den * other._den)

    def with_trunc(self, trunc: Trunc) -> "Series":
        return Series(self.dims, trunc, self.terms)

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def term_count(self) -> int:
        """The number of terms, read off the packed dict."""
        return len(self._num)

    def lowest_grade(self) -> Optional[int]:
        gshift = self._lay.gshift
        return min((k >> gshift for k in self._num), default=None)

    def terms_of_grade(self, g: int) -> List[Tuple[Key, Fraction]]:
        """The grade-``g`` terms in term order, read off the packed keys."""
        lay, den = self._lay, self._den
        gshift, mono = lay.gshift, lay.mono
        out = [((mono(k & ~_NOISE_MASK), _EXPRS[k & _NOISE_MASK]), Fraction(v, den))
               for k, v in self._num.items() if k >> gshift == g]
        out.sort(key=lambda kc: term_sort_key(kc[0]))
        return out

    def sorted_terms(self) -> List[Tuple[Key, Fraction]]:
        return sorted(self.terms.items(), key=lambda kc: term_sort_key(kc[0]))

    def coefficient(self, mono: Mono, expr: Expr = ONE) -> Fraction:
        return self.terms.get((mono, expr), Fraction(0))

    def map_noise(self, fn: Callable[[Expr], NoiseSum]) -> "Series":
        """Replace each term's noise product by the noise sum ``fn`` gives,
        calling ``fn`` once per distinct noise product."""
        images: Dict[int, List[Tuple[int, Fraction]]] = {}
        for k in self._num:
            nid = k & _NOISE_MASK
            if nid not in images:
                images[nid] = [(_noise_id(e), Fraction(c)) for e, c in fn(_EXPRS[nid]).items()]
        den = lcm(*[c.denominator for image in images.values() for _i, c in image])
        out: Dict[int, int] = {}
        for k, v in self._num.items():
            nid = k & _NOISE_MASK
            noise.add_into(out, ((k - nid | i, c.numerator * (den // c.denominator))
                                 for i, c in images[nid]), v)
        return self._packed(out, self._den * den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series) or self.dims != other.dims:
            return False
        if self._lay is other._lay:
            return self._den == other._den and self._num == other._num
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.dims, tuple(self.sorted_terms())))

    def __repr__(self):
        n = len(self._num)
        return f"<Series {n} term{'s' if n != 1 else ''} order {self.trunc.total}>"

    # -- composition and calculus -------------------------------------------

    def substitute(self, slow: Optional[Sequence["Series"]] = None,
                   fast: Optional[Sequence["Series"]] = None,
                   par: Optional[Sequence["Series"]] = None) -> "Series":
        """Full composition: replace variables by series (identity when None).

        Noise factors pass through untouched; only monomial slots compose.
        The terms are grouped by monomial, each monomial's image is built
        once by ``prefix_images``, and each monomial's noise sum multiplies
        its image once.  The pieces add up over a common denominator that
        grows to the least common multiple of theirs.
        """
        dims, trunc = self.dims, self.trunc
        bases = [b for part, (given, size) in enumerate(zip((slow, fast, par), dims.sizes))
                 for b in (given if given is not None else
                           [Series.var(dims, trunc, part, k) for k in range(size)])]
        groups = self.by_monomial()
        images = prefix_images([f for f, _c in groups], bases, Series.const(dims, trunc, 1))
        return Series.zero(dims, trunc).plus(c * images[f] for f, c in groups)

    def by_monomial(self) -> List[Tuple[Tuple[int, ...], "Series"]]:
        """The terms grouped by monomial, in order of first appearance: each
        monomial as its factors (``factors_of``) with its noise coefficient,
        a series of constant-monomial terms."""
        groups: Dict[int, Dict[int, int]] = {}
        for key, c in self._num.items():
            nid = key & _NOISE_MASK
            groups.setdefault(key - nid, {})[nid] = c
        mono = self._lay.mono
        return [(factors_of(mono(h)), self._packed(num, self._den))
                for h, num in groups.items()]

    def plus(self, pieces: Iterable["Series"]) -> "Series":
        """This series plus every series of ``pieces``, added up in one dict
        over a common denominator that grows to the least common multiple
        of theirs."""
        total, den = dict(self._num), self._den
        for piece in pieces:
            self._check(piece)
            if den % piece._den:
                grow = piece._den // gcd(den, piece._den)
                total = {k: v * grow for k, v in total.items()}
                den *= grow
            noise.add_into(total, piece._num.items(), den // piece._den)
        return self._packed(total, den)

    def diff(self, part: int, k: int) -> "Series":
        """Derivative in variable ``k`` of monomial part ``part``."""
        lay = self._lay
        off, mask, counted = lay.fields[sum(self.dims.sizes[:part]) + k]
        unit = (1 << off) + (1 << lay.gshift if counted else 0)
        out: Dict[int, int] = {}
        for key, v in self._num.items():
            e = (key >> off) & mask
            if e:
                out[key - unit] = v * e
        return self._packed(out, self._den)

    def diff_noise(self) -> "Series":
        """The explicit time derivative acting on noise atoms alone."""
        return self.map_noise(_noise_diff)

    def time_derivative(self, xdot: Sequence["Series"], ydot: Sequence["Series"]) -> "Series":
        """d/dt along an evolution: dt-part on noise plus the chain rule."""
        total = self.diff_noise()
        for part, rates in enumerate((xdot, ydot)):
            for k in range(self.dims.sizes[part]):
                d = self.diff(part, k)
                if not d.is_zero():
                    total = total + d * rates[k]
        return total
