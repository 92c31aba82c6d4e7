"""Canonical text rendering of series and noise expressions, with a parser
that round-trips bit-exactly.

Noise syntax:   phi[0],  Z[-1]{ phi[0] },  Z[+1]{ Z[-1]{ phi[0] } }
Series syntax:  terms joined by " + "/" - ", factors joined by "*", integer
or p/q coefficients, powers with "^".  Term order is graded lexicographic on
(grade, slow exponents, fast exponents, parameter exponents, noise key)
(``series.term_sort_key``), so identical values always print identically.

Noise text comes from ``render_noise`` and the term order's noise part
from ``series.noise_sort_key``, each cached per process like the other pure
functions of an interned noise product, so a product a report repeats is
rendered and keyed once.  Series text comes from one ``SeriesWriter``,
which writes the factor text of each monomial once per name triple;
``emit_report`` writes a whole report through one, and that memo lives and
dies with the writer.

Text is read back by its mirror, a ``SeriesReader`` per name triple.  It
splits a line at the writer's " + " and " - " joins and each term into its
magnitude, its monomial text and its noise text, and reads each distinct
monomial and noise text once, by the recursive descent ``_Parser``;
``parse_report`` reads a whole report's lines in one triple through one
reader.  A line the split cannot read whole goes through the descent as it
stands, so values and errors are the descent's.  The reader's one memo,
too, lives and dies with it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import add
from typing import Dict, List, Optional, Tuple, Union

from . import noise
from .noise import Expr, ONE
from .series import Dims, Mono, Series, Trunc, name_index


class ParseError(ValueError):
    """Malformed series or noise text."""


def render_rate(mu: Fraction) -> str:
    return ("+" if mu > 0 else "-") + _frac(abs(mu))


@lru_cache(maxsize=1 << 16)
def render_noise(expr: Expr) -> str:
    # a run of equal atoms prints as one power
    return "*".join(_pow(_atom(a), len(list(run))) for a, run in groupby(expr)) or "1"


def _atom(a) -> str:
    if noise.is_bare(a):
        return f"phi[{a[1]}]"
    return f"Z[{render_rate(a[1])}]{{ {render_noise(a[2])} }}"


def render_series(s: Series, names) -> str:
    """``s`` in the (slow, fast, parameter) name triple ``names``; each
    term's factors print parameters first, then slow, then fast."""
    return SeriesWriter().series(s, names)


def term_text(key: Tuple[Mono, Expr], c, names) -> str:
    """The one term ``key`` with coefficient ``c`` as series text in the
    name triple ``names``, as a series holding it alone would print: the
    term of an error message, in or outside any truncation window."""
    return SeriesWriter().terms([(key, Fraction(c))], _names(names))


class SeriesWriter:
    """The one renderer of series text, with the factor text of each
    monomial per name triple as its memo, which lives as long as the
    writer.  ``emit_report`` writes a report through one writer, so a
    monomial repeated across its lines is written once; ``render_series``
    uses a fresh one per call."""

    def __init__(self):
        self._factors: Dict[tuple, Dict[Mono, str]] = {}

    def series(self, s: Series, names) -> str:
        return self.terms(s.sorted_terms(), _names(names))

    def terms(self, items, names) -> str:
        """Sorted ``((mono, expr), coefficient)`` items as series text in
        the name triple ``names``."""
        if not items:
            return "0"
        factors = self._factors.get(names)
        if factors is None:
            factors = self._factors[names] = {}
        out = []
        for (mono, expr), c in items:
            text = factors.get(mono)
            if text is None:
                text = factors[mono] = "*".join(
                    _pow(names[part][k], e)
                    for part in (2, 0, 1) for k, e in enumerate(mono[part]) if e)
            if expr:
                text = f"{text}*{render_noise(expr)}" if text else render_noise(expr)
            p, q = c.numerator, c.denominator
            mag = abs(p)
            if not text:
                body = str(mag) if q == 1 else f"{mag}/{q}"
            elif mag == q:
                body = text
            else:
                body = f"{mag}*{text}" if q == 1 else f"{mag}/{q}*{text}"
            if not out:
                out.append(body if p > 0 else f"-{body}")
            else:
                out.append(f"+ {body}" if p > 0 else f"- {body}")
        return " ".join(out)


def new_names(spec) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The names of the normal-form variables X, Y of a system's x, y: each
    name upper-cased, or suffixed ``_new`` when that name is taken."""
    taken = {*spec.slow_names, *spec.fast_names, *spec.param_names}
    def lift(name: str) -> str:
        up = name.upper()
        return up if up not in taken else name + "_new"
    return tuple(tuple(map(lift, group)) for group in (spec.slow_names, spec.fast_names))


def _pow(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _frac(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _names(names):
    if isinstance(names, tuple) and len(names) == 3:
        return names
    raise TypeError("need a (slow, fast, param) name triple")


# ---------------------------------------------------------------------------
# parsing
#
# The parser's values are plain term dicts {(flat exponents, noise product):
# coefficient}, the slow, fast and parameter exponents in one tuple and each
# coefficient an int until a division or a convolution weight makes it a
# Fraction.  parse_series packs the finished dict into one Series.

Terms = Dict[Tuple[Tuple[int, ...], Expr], Union[int, Fraction]]
_SIGNS, _MUL_DIV = (("op", "+"), ("op", "-")), (("op", "*"), ("op", "/"))

# One lexeme per number, name or other non-blank character; its first
# character gives its kind.  A number is an integer, so p/q is p, '/', q and
# a division.  A number may start with a non-ASCII decimal digit, which
# ``\d`` matches; any other character _KIND lacks is refused.
_LEXEME = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\S")
_KIND = {**dict.fromkeys("0123456789", "num"),
         **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name"),
         "[": "lbrack", "]": "rbrack", "{": "lbrace", "}": "rbrace",
         "(": "lparen", ")": "rparen", **dict.fromkeys("+-*/^", "op")}


def _tokenize(text: str) -> List[Tuple[str, str]]:
    kind = _KIND.get
    out = [(kind(lex[0]) or _odd_kind(lex, text), lex) for lex in _LEXEME.findall(text)]
    out.append(("end", ""))
    return out


def _odd_kind(lex: str, text: str) -> str:
    """The kind of a lexeme whose first character _KIND lacks: a number,
    or a ParseError.  A refused character is a lexeme of its own, so the
    first one met is the first in ``text``."""
    if lex[0].isdecimal():
        return "num"
    raise ParseError(f"bad character at column {text.index(lex) + 1}: {lex!r}")


def rational(text: str) -> Fraction:
    """``text`` as an integer or p/q, each part read by ``int``, with a
    non-zero q: the one rule for a rational that a system file, a report
    header or ``--mu-min`` states.  ValueError for anything else."""
    p, slash, q = text.partition("/")
    try:
        return Fraction(int(p), int(q) if slash else 1)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {text!r}") from None


def threshold(text: str) -> Fraction:
    """``text`` as a ``rational`` that is not negative: the one rule for a
    near-resonance threshold ``mu_min`` that a system file, a report header
    or ``--mu-min`` states."""
    mu = rational(text)
    if mu < 0:
        raise ValueError(f"negative threshold {text!r}")
    return mu


def _product(a: Terms, b: Terms) -> Terms:
    """Exponents add and noise products merge, pair by pair; every factor
    of a report line is one term, which takes the first branch.  A unit
    coefficient (the int 1 of a name, ``phi[k]`` or power) multiplies
    nothing."""
    if len(a) == 1 == len(b):
        ((ea, na), ca), = a.items()
        ((eb, nb), cb), = b.items()
        if type(cb) is int and cb == 1:
            c = ca
        elif type(ca) is int and ca == 1:
            c = cb
        else:
            c = ca * cb
        return {(tuple(map(add, ea, eb)), noise.merge(na, nb)): c}
    out: Terms = {}
    for (ea, na), ca in a.items():
        noise.add_into(out, (((tuple(map(add, ea, eb)), noise.merge(na, nb)), ca * cb)
                             for (eb, nb), cb in b.items()))
    return out


class TermParser:
    """Recursive descent over term dicts, shared by report lines and the
    ``.snf`` equations; a subclass supplies ``name``, the atom a name token
    starts, and ``inverse``, the term dict of ``1/f`` for a divisor ``f``.

    Grammar: expr := ('+'|'-')* term (('+'|'-') term)*;
    term := factor (('*'|'/') factor)*;  factor := '-' factor | atom ('^' int)?;
    atom := int | '(' expr ')' | name ...

    Numbers are integers and ``p/q`` is a division, so conventional
    precedence gives x^2/4 = x^2 / 4, x/4/5 = (x / 4) / 5 and 3/2^2 = 3/4.
    """

    def __init__(self, text: str, width: int):
        self.tokens = _tokenize(text)
        self.k = 0
        self.one = ((0,) * width, ONE)
        self.text = text

    def peek(self):
        return self.tokens[self.k]

    def take(self, kind):
        tk, tv = self.tokens[self.k]
        if tk != kind:
            raise ParseError(f"unexpected {tv!r} at token {self.k} in {self.text!r}")
        self.k += 1
        return tv

    def parse(self) -> Terms:
        s = self.expr()
        self.take("end")
        return s

    def expr(self) -> Terms:
        sign = 1
        while self.peek() in _SIGNS:
            if self.take("op") == "-":
                sign = -sign
        s = self.term()
        if sign < 0:
            s = {key: -c for key, c in s.items()}
        while self.peek() in _SIGNS:
            op = self.take("op")
            noise.add_into(s, self.term().items(), -1 if op == "-" else None)
        return s

    def term(self) -> Terms:
        s = self.factor()
        while self.peek() in _MUL_DIV:
            op = self.take("op")
            f = self.factor()
            s = _product(s, f if op == "*" else self.inverse(f))
        return s

    def factor(self) -> Terms:
        if self.peek() == ("op", "-"):
            self.take("op")
            return {key: -c for key, c in self.factor().items()}
        s = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op")
            base, s = s, {self.one: 1}
            for _ in range(self._int()):
                s = _product(s, base)
            if self.peek() == ("op", "^"):
                # x^2^3 reads as x^8 to some and (x^2)^3 to others
                raise ParseError(f"chained '^' needs parentheses in {self.text!r}")
        return s

    def atom(self) -> Terms:
        kind, val = self.peek()
        if kind == "num":
            c = self._int()
            return {self.one: c} if c else {}
        if kind == "lparen":
            self.take("lparen")
            s = self.expr()
            self.take("rparen")
            return s
        if kind != "name":
            raise ParseError(f"unexpected {val!r} in {self.text!r}")
        return self.name(self.take("name"))

    def _int(self) -> int:
        """An integer token: a number, an exponent or a noise index."""
        return int(self.take("num"))


class _Parser(TermParser):
    """Report lines in the names of ``reader``: a name atom is a declared
    name, phi[idx] or Z[rate]{ expr }; division only by non-zero rationals.
    A name other than a parameter is refused under a kernel."""

    def __init__(self, text: str, reader: "SeriesReader"):
        super().__init__(text, reader.width)
        self.conv_depth = 0
        self.symbols = reader.symbols

    def inverse(self, f: Terms) -> Terms:
        c = f.get(self.one, 0) if len(f) == 1 else 0
        if not c:
            raise ParseError(f"division only by non-zero rationals in {self.text!r}")
        return {self.one: Fraction(1) / c}

    def name(self, name: str) -> Terms:
        if name == "phi" and self.peek()[0] == "lbrack":
            self.take("lbrack")
            k = self._int()
            self.take("rbrack")
            return {(self.one[0], (noise.phi_atom(k),)): 1}
        if name == "Z" and self.peek()[0] == "lbrack":
            self.take("lbrack")
            mu = self._rate()
            self.take("rbrack")
            return self.conv(mu)
        if name in self.symbols:
            part, unit = self.symbols[name]
            if part != 2 and self.conv_depth:
                # Only noise and constant parameters lie under a kernel.
                raise ParseError(f"variable {name!r} inside a convolution "
                                 f"in {self.text!r}")
            return {(unit, ONE): 1}
        raise ParseError(f"unknown symbol {name!r} in {self.text!r}")

    def conv(self, mu) -> Terms:
        """``{ expr }`` after ``Z[mu]``: Z[mu] of each term of ``expr``."""
        self.take("lbrace")
        self.conv_depth += 1
        inner = self.expr()
        self.conv_depth -= 1
        self.take("rbrace")
        out: Terms = {}
        for (exps, expr), c in inner.items():
            image = noise.conv(mu, {expr: 1})
            noise.add_into(out, (((exps, e), w) for e, w in image.items()), c)
        return out

    def _rate(self) -> Union[int, Fraction]:
        """A convolution rate, ('+'|'-')* int ('/' int)?: the one place the
        descent reads p/q as a rational, not as a division."""
        sign = 1
        while self.peek() in _SIGNS:
            if self.take("op") == "-":
                sign = -sign
        mu = self._int()
        if self.peek() == ("op", "/"):
            self.take("op")
            q = self._int()
            if not q:
                raise ParseError(f"zero denominator in {mu}/{q} in {self.text!r}")
            mu = Fraction(mu, q)
        if not mu:
            raise ParseError(f"convolution rate must be non-zero in {self.text!r}")
        return sign * mu


# A term as SeriesWriter writes it: a magnitude p or p/q, then '*' and its
# factors or nothing; the line's terms are joined by " + " and " - ".
_JOIN = re.compile(r" ([+-]) ")
_MAGNITUDE = re.compile(r"([0-9]+(?:/[0-9]+)?)(?:\*(?!$)|$)")
_NOISE_START = re.compile(r"phi\[|Z\[")


class SeriesReader:
    """Series text in one name triple, read as ``SeriesWriter`` writes it:
    a line splits at its " + " and " - " joins, each term into its
    magnitude, its monomial text (the factors before the first ``phi[`` or
    ``Z[``) and its noise text (the rest).  Each distinct monomial text and
    noise text is read once per reader, by ``_Parser`` as one term, into the
    reader's one memo, ``pieces``; each later occurrence is looked up.

    A line the split cannot read whole, as terms with distinct keys whose
    pieces each parse as one term, goes through ``_Parser`` as it stands: a
    sum in parentheses or braces, a repeated term, a zero magnitude, or a
    piece that does not parse so.  Every value and every ``ParseError`` is
    the descent's, and a refused piece is never stored.  ``parse_report``
    keeps one reader per name triple for one call; ``parse_series`` uses a
    fresh one by default."""

    def __init__(self, dims: Dims, names):
        width, first = sum(dims.sizes), (0, dims.m, dims.m + dims.n)
        self.width, self.cuts = width, first[1:]
        # each name's part and flat unit exponents
        self.symbols = {name: (part, tuple(int(i == first[part] + k) for i in range(width)))
                        for name, (part, k) in name_index(names).items()}
        self.zero = (0,) * width
        # each factor text read: (flat exponents, noise product, coefficient)
        # when it is one term, else its term dict
        self.pieces: Dict[str, Union[tuple, Terms]] = {"": (self.zero, ONE, 1)}

    def read(self, text: str) -> Dict[Tuple[Mono, Expr], Union[int, Fraction]]:
        """The terms of ``text``, keyed by (monomial, noise product)."""
        flat = self._split(text)
        if flat is None:
            flat = _Parser(text, self).parse()
        cut, cut2 = self.cuts
        return {((exps[:cut], exps[cut:cut2], exps[cut2:]), expr): c
                for (exps, expr), c in flat.items()}

    def _split(self, text: str) -> Optional[Terms]:
        """The terms of ``text`` read term by term, or None when the split
        cannot read it whole."""
        parts = _JOIN.split(text)
        head = parts[0]
        negative = head[:1] == "-"
        if negative:
            parts[0] = head[1:]
        piece, zero = self._piece, self.zero
        out: Terms = {}
        for i in range(0, len(parts), 2):
            if i:
                negative = parts[i - 1] == "-"
            term = parts[i]
            if not term:
                return None
            m = _MAGNITUDE.match(term)
            if m is None:
                c, rest = 1, term
            else:
                p, _, q = m[1].partition("/")
                if not int(p) or (q and not int(q)):
                    return None
                c = Fraction(int(p), int(q)) if q else int(p)
                rest = term[m.end():]
            n = _NOISE_START.search(rest)
            if n is None:
                a, b = piece(rest), piece("")
            elif not n.start():
                a, b = piece(""), piece(rest)
            elif n.start() > 1 and rest[n.start() - 1] == "*":
                a, b = piece(rest[:n.start() - 1]), piece(rest[n.start():])
            else:
                return None
            if a is None or b is None:
                return None
            if negative:
                c = -c
            if type(a) is tuple and type(b) is tuple:
                (ea, na, ca), (eb, nb, cb) = a, b
                key = (ea if eb is zero else tuple(map(add, ea, eb)), noise.merge(na, nb))
                if key in out:
                    return None
                out[key] = c if ca == 1 == cb else c * ca * cb
                continue
            terms = _product(_product({(zero, ONE): c}, _as_terms(a)), _as_terms(b))
            if any(key in out for key in terms):
                return None
            out.update(terms)
        return out

    def _piece(self, text: str):
        """The memo entry of one factor text, read by ``_Parser`` as one
        term at its first occurrence; None when it does not parse so."""
        entry = self.pieces.get(text)
        if entry is None:
            parser = _Parser(text, self)
            try:
                terms = parser.term()
                parser.take("end")
            except ParseError:
                return None
            entry = self.pieces[text] = _as_entry(terms, self.zero)
        return entry


def _as_entry(terms: Terms, zero):
    """One term as (exponents, noise product, coefficient), with the shared
    zero exponents and an int unit coefficient; other term dicts as they
    are."""
    if len(terms) != 1:
        return terms
    ((exps, expr), c), = terms.items()
    return (zero if exps == zero else exps, expr, 1 if c == 1 else c)


def _as_terms(entry) -> Terms:
    return {entry[:2]: entry[2]} if type(entry) is tuple else entry


def parse_series(text: str, dims: Dims, trunc: Trunc, names, *,
                 _reader: Optional[SeriesReader] = None) -> Series:
    """Parse a rendered series back into a value (inverse of render_series),
    packed once at the truncation ``trunc``.  A term ``trunc`` does not keep
    is refused, not dropped.  ``_reader`` is the ``SeriesReader`` of
    ``dims`` and ``names`` that ``parse_report`` shares across a report's
    lines in one name triple; by default each call has its own."""
    reader = _reader if _reader is not None else SeriesReader(dims, names)
    terms = reader.read(text)
    s = Series(dims, trunc, terms)
    if s.term_count() < len(terms):
        # packing dropped a term: a zero or, refused here, an unkept one
        for key, c in terms.items():
            if not trunc.keeps(key[0]):
                raise ParseError(f"term {term_text(key, c, names)} is outside the "
                                 f"truncation window in {text!r}")
    return s


def parse_series_for(text: str, spec) -> Series:
    return parse_series(text, spec.dims, spec.trunc,
                        (spec.slow_names, spec.fast_names, spec.param_names))
