"""Canonical text rendering of series and noise expressions, with a parser
that round-trips bit-exactly.

Noise syntax:   phi[0],  Z[-1]{ phi[0] },  Z[+1]{ Z[-1]{ phi[0] } }
Series syntax:  terms joined by " + "/" - ", factors joined by "*", integer
or p/q coefficients, powers with "^".  Term order is graded lexicographic on
(grade, slow exponents, fast exponents, parameter exponents, noise key), so
identical values always print identically.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Optional, Tuple

from . import noise
from .noise import Expr, ONE
from .series import Dims, Series, Trunc


class ParseError(ValueError):
    """Malformed series or noise text."""


def render_rate(mu: Fraction) -> str:
    sign = "+" if mu > 0 else "-"
    mag = abs(mu)
    body = str(mag.numerator) if mag.denominator == 1 else f"{mag.numerator}/{mag.denominator}"
    return sign + body


def render_noise(expr: Expr) -> str:
    if expr == ONE:
        return "1"
    parts = []
    i = 0
    atoms = list(expr)
    while i < len(atoms):
        a = atoms[i]
        count = 1
        while i + count < len(atoms) and atoms[i + count] == a:
            count += 1
        base = _render_atom(a)
        parts.append(base if count == 1 else f"{base}^{count}")
        i += count
    return "*".join(parts)


def _render_atom(a) -> str:
    if noise.is_bare(a):
        return f"phi[{a[1]}]"
    return f"Z[{render_rate(a[1])}]{{ {render_noise(a[2])} }}"


def render_series(s: Series, spec_or_names) -> str:
    names = _names(spec_or_names, s.dims)
    items = s.sorted_terms()
    if not items:
        return "0"
    out = []
    for (mono, expr), c in items:
        factors: List[str] = []
        coeff = c
        for k, e in enumerate(mono[2]):
            if e:
                factors.append(_pow(names[2][k], e))
        for i, e in enumerate(mono[0]):
            if e:
                factors.append(_pow(names[0][i], e))
        for j, e in enumerate(mono[1]):
            if e:
                factors.append(_pow(names[1][j], e))
        if expr != ONE:
            factors.append(render_noise(expr))
        mag = abs(coeff)
        if not factors:
            body = _frac(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_frac(mag)] + factors)
        if not out:
            out.append(body if coeff > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(out)


def new_names(spec) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The names of the normal-form variables X, Y of a system's x, y: each
    name upper-cased, or suffixed ``_new`` when that name is taken."""
    taken = set(spec.slow_names) | set(spec.fast_names) | set(spec.param_names)
    def lift(name: str) -> str:
        up = name.upper()
        return up if up not in taken else name + "_new"
    return (tuple(lift(n) for n in spec.slow_names),
            tuple(lift(n) for n in spec.fast_names))


def _pow(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _names(spec_or_names, dims: Dims):
    if isinstance(spec_or_names, tuple) and len(spec_or_names) == 3:
        return spec_or_names
    slow = getattr(spec_or_names, "slow_names", None)
    if slow is not None:
        return (tuple(spec_or_names.slow_names),
                tuple(spec_or_names.fast_names),
                tuple(spec_or_names.param_names))
    raise TypeError("need a system or a (slow, fast, param) name triple")


# ---------------------------------------------------------------------------
# parsing

_TOKEN = re.compile(r"""
    (?P<num>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<lbrack>\[) | (?P<rbrack>\])
  | (?P<lbrace>\{) | (?P<rbrace>\})
  | (?P<lparen>\() | (?P<rparen>\))
  | (?P<op>[-+*/^])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at column {pos + 1}: {text[pos]!r}")
        pos = m.end()
        kind = m.lastgroup
        if kind != "ws":
            out.append((kind, m.group()))
    out.append(("end", ""))
    return out


class _Parser:
    """Recursive-descent parser for polynomial/noise expressions.

    Grammar: expr := term (('+'|'-') term)*;  term := factor (('*'|'/') factor)*;
    factor := atom ('^' int)?;  atom := number | name | name '[' idx ']'
    ('{' expr '}')? | '(' expr ')' | '-' factor.
    """

    def __init__(self, text: str, dims: Dims, names):
        self.tokens = _tokenize(text)
        self.k = 0
        self.dims = dims
        self.slow, self.fast, self.par = names
        self.text = text

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind=None, value=None):
        tk, tv = self.tokens[self.k]
        if (kind and tk != kind) or (value and tv != value):
            raise ParseError(f"unexpected {tv!r} at token {self.k} in {self.text!r}")
        self.k += 1
        return tv

    def parse(self, trunc: Trunc) -> Series:
        self.trunc = trunc
        s = self.expr()
        self.take("end")
        return s

    def expr(self) -> Series:
        sign = 1
        while self.peek() == ("op", "-") or self.peek() == ("op", "+"):
            if self.take("op") == "-":
                sign = -sign
        s = self.term().scale(sign)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take("op")
            t = self.term()
            s = s + (t if op == "+" else -t)
        return s

    def term(self) -> Series:
        s = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "/"):
            op = self.take("op")
            f = self.factor()
            if op == "*":
                s = s * f
            else:
                # Division only by pure rational factors.
                c = _as_constant(f)
                if c is None or c == 0:
                    raise ParseError("division only by non-zero rationals")
                s = s.scale(Fraction(1) / c)
        return s

    def factor(self) -> Series:
        if self.peek() == ("op", "-"):
            self.take("op")
            return -self.factor()
        s = self.atom()
        while self.peek() == ("op", "^"):
            self.take("op")
            e = int(self.take("num"))
            s = s.pow(e)
        return s

    def atom(self) -> Series:
        kind, val = self.peek()
        if kind == "num":
            self.take("num")
            if "/" in val:
                p, q = val.split("/")
                return Series.const(self.dims, self.trunc, Fraction(int(p), int(q)))
            return Series.const(self.dims, self.trunc, Fraction(int(val)))
        if kind == "lparen":
            self.take("lparen")
            s = self.expr()
            self.take("rparen")
            return s
        if kind == "name":
            name = self.take("name")
            if name == "phi" and self.peek()[0] == "lbrack":
                self.take("lbrack")
                k = int(self.take("num"))
                self.take("rbrack")
                return Series.noise_sum(self.dims, self.trunc, noise.nsum_bare(k))
            if name == "Z" and self.peek()[0] == "lbrack":
                self.take("lbrack")
                mu = self._rate()
                self.take("rbrack")
                self.take("lbrace")
                inner = self.expr()
                self.take("rbrace")
                return inner.map_noise(lambda e: noise.conv(mu, {e: Fraction(1)}))
            if name in self.slow:
                return Series.slow_var(self.dims, self.trunc, self.slow.index(name))
            if name in self.fast:
                return Series.fast_var(self.dims, self.trunc, self.fast.index(name))
            if name in self.par:
                return Series.param(self.dims, self.trunc, name)
            raise ParseError(f"unknown symbol {name!r} in {self.text!r}")
        raise ParseError(f"unexpected {val!r} in {self.text!r}")

    def _rate(self) -> Fraction:
        sign = 1
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            if self.take("op") == "-":
                sign = -sign
        val = self.take("num")
        if "/" in val:
            p, q = val.split("/")
            return Fraction(sign * int(p), int(q))
        return Fraction(sign * int(val))


def _as_constant(s: Series) -> Optional[Fraction]:
    if not s.terms:
        return Fraction(0)
    if len(s.terms) == 1:
        (mono, expr), c = next(iter(s.terms.items()))
        from .series import grade as _grade
        if _grade(mono) == 0 and expr == ONE:
            return c
    return None


def parse_series(text: str, dims: Dims, trunc: Trunc, names) -> Series:
    """Parse a rendered series back into a value (inverse of render_series)."""
    return _Parser(text, dims, names).parse(trunc)


def parse_series_for(text: str, spec) -> Series:
    names = (tuple(spec.slow_names), tuple(spec.fast_names), tuple(spec.param_names))
    return parse_series(text, spec.dims, spec.trunc, names)
