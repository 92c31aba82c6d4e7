"""Calculus of white-noise symbols and exponentially weighted convolutions.

The primitive objects are commutative products of atoms, where an atom is
either a bare noise symbol ``phi[k]`` (formal derivative of a Wiener process)
or a convolution ``Z[mu]{ child }`` of another product against the bounded
exponential kernel ``exp(mu*(t - tau))``:

    Z[mu] c (t) = integral over the past of c   for mu < 0,
                  integral over the future of c for mu > 0.

Working identities (all exact for the kernel above):

    Z[mu] 1       = 1/|mu|
    d/dt Z[mu] c  = -sgn(mu) c + mu Z[mu] c
    Z[mu] Z[nu]   = (1/|mu-nu|) (Z[mu] + Z[nu])        for mu*nu < 0
    Z[mu] Z[nu]   = (-sgn(mu)/(mu-nu)) (Z[mu] - Z[nu]) for mu*nu > 0, mu != nu

Values are manipulated as rational linear combinations of canonical products
("noise sums", ``dict`` from product key to ``Fraction``).  Canonicalisation
collapses convolutions of the empty product and composes nested single
convolutions of distinct rates; repeated-rate nesting (``Z[-1]{ Z[-1]{...} }``)
is kept structural, matching the calculus, which excludes that composition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Rat = Fraction

# Atom encodings: ("phi", k) or ("Z", mu, child) with child a sorted atom tuple.
Atom = tuple
Expr = Tuple[Atom, ...]
NoiseSum = Dict[Expr, Fraction]

ONE: Expr = ()


class NoiseError(Exception):
    """Base class for noise-calculus failures."""


class NotDifferentiable(NoiseError):
    """White noise has no time derivative in this calculus."""


class RepeatedRate(NoiseError):
    """Composition Z[mu] Z[mu] is outside the composition identity."""


class MalformedResidual(NoiseError):
    """A forcing shape the normalisation cannot legally produce or reduce."""


def _sort_key(atom: Atom):
    if atom[0] == "phi":
        return (0, atom[1])
    return (1, atom[1], tuple(_sort_key(a) for a in atom[2]))


def phi_atom(k: int) -> Atom:
    return ("phi", int(k))


class _Rate(Fraction):
    """A convolution rate: a ``Fraction`` that computes its hash once.

    Every series term key holds its atoms' rates, so each dict lookup in the
    series algebra hashes them; ``Fraction.__hash__`` is pure Python.  One
    instance exists per value, so copies and pickles come back as that
    instance.  A rate equals, and hashes like, the plain ``Fraction`` of the
    same value, and prints and reprs like it.
    """

    __slots__ = ("_hash",)
    _pool: Dict[Fraction, "_Rate"] = {}

    def __new__(cls, numerator=0, denominator=None):
        if type(numerator) is cls and denominator is None:
            return numerator
        value = Fraction(numerator, denominator)
        rate = cls._pool.get(value)
        if rate is None:
            rate = super().__new__(cls, value.numerator, value.denominator)
            rate._hash = hash(value)
            cls._pool[value] = rate
        return rate

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"


def z_atom(mu: Fraction, child: Expr) -> Atom:
    # Structural constructor: assumes child is already canonical and non-empty.
    if mu == 0:
        raise NoiseError("convolution rate must be non-zero")
    return ("Z", _Rate(mu), tuple(child))


def product(*atoms: Atom) -> Expr:
    return tuple(sorted(atoms, key=_sort_key))


def merge(a: Expr, b: Expr) -> Expr:
    """The canonical product of two canonical products."""
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b, key=_sort_key))


def is_bare(atom: Atom) -> bool:
    return atom[0] == "phi"


def is_conv(atom: Atom) -> bool:
    return atom[0] == "Z"


def bare_count(expr: Expr) -> int:
    """Number of top-level bare factors (nested ones do not count)."""
    return sum(1 for a in expr if is_bare(a))


def phi_occurrences(expr: Expr) -> int:
    """Total noise-symbol occurrences at every nesting depth."""
    total = 0
    for a in expr:
        if is_bare(a):
            total += 1
        else:
            total += phi_occurrences(a[2])
    return total


def symbols_of(expr: Expr) -> frozenset:
    syms = set()
    for a in expr:
        if is_bare(a):
            syms.add(a[1])
        else:
            syms |= symbols_of(a[2])
    return frozenset(syms)


def anticipates(expr: Expr) -> bool:
    """True when any convolution at any depth has a positive rate."""
    for a in expr:
        if is_conv(a):
            if a[1] > 0 or anticipates(a[2]):
                return True
    return False


# ---------------------------------------------------------------------------
# noise sums

def add_into(out: dict, pairs, scale=None) -> dict:
    """Add ``(key, coefficient)`` pairs into the coefficient dict ``out``,
    each times ``scale`` when given, and drop every key that cancels.

    Every exact-rational sum in the package accumulates here (noise sums and
    series terms alike), except the inline loop of ``Series.__mul__``.
    """
    get = out.get
    for key, c in pairs:
        if scale is not None:
            c = c * scale
        old = get(key)
        if old is not None:
            c = old + c
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def nsum_bare(k: int) -> NoiseSum:
    return {(phi_atom(k),): Fraction(1)}


def n_add(a: NoiseSum, b: NoiseSum) -> NoiseSum:
    return add_into(dict(a), b.items())


def n_scale(a: NoiseSum, c) -> NoiseSum:
    c = Fraction(c)
    if not c:
        return {}
    return {e: v * c for e, v in a.items()}


def n_mul(a: NoiseSum, b: NoiseSum) -> NoiseSum:
    out: NoiseSum = {}
    for ea, ca in a.items():
        add_into(out, ((merge(ea, eb), cb) for eb, cb in b.items()), ca)
    return out


def compose(mu: Fraction, nu: Fraction) -> List[Tuple[Fraction, Fraction]]:
    """Rewrite the operator composition Z[mu] Z[nu] as sum of single rates.

    Returns ``[(coeff, rate), ...]`` such that Z[mu]Z[nu] = sum coeff*Z[rate].
    """
    mu, nu = Fraction(mu), Fraction(nu)
    if mu == 0 or nu == 0:
        raise NoiseError("convolution rates must be non-zero")
    if mu == nu:
        raise RepeatedRate(f"Z[{mu}]Z[{nu}] has no single-rate decomposition")
    if mu * nu < 0:
        c = Fraction(1) / abs(mu - nu)
        return [(c, mu), (c, nu)]
    c = Fraction(-1 if mu > 0 else 1) / (mu - nu)
    return [(c, mu), (-c, nu)]


def conv(mu, s: NoiseSum) -> NoiseSum:
    """Apply Z[mu] to a noise sum, canonicalising as it goes."""
    mu = Fraction(mu)
    if mu == 0:
        raise NoiseError("convolution rate must be non-zero")
    out: NoiseSum = {}
    for expr, c in s.items():
        add_into(out, _conv_expr(mu, expr).items(), c)
    return out


def _conv_expr(mu: Fraction, expr: Expr) -> NoiseSum:
    if expr == ONE:
        return {ONE: Fraction(1) / abs(mu)}
    if len(expr) == 1 and is_conv(expr[0]) and expr[0][1] != mu:
        nu, child = expr[0][1], expr[0][2]
        out: NoiseSum = {}
        for coeff, rate in compose(mu, nu):
            add_into(out, _conv_expr(rate, child).items(), coeff)
        return out
    return {(z_atom(mu, expr),): Fraction(1)}


def diff_atom(atom: Atom) -> NoiseSum:
    """d/dt of a single atom: -sgn(mu) child + mu * atom (exact)."""
    if is_bare(atom):
        raise NotDifferentiable(f"phi[{atom[1]}] has no pointwise derivative")
    mu, child = atom[1], atom[2]
    sgn = 1 if mu > 0 else -1
    return n_add({child: Fraction(-sgn)}, {(atom,): Fraction(mu)})


def diff(s: NoiseSum) -> NoiseSum:
    """d/dt of a noise sum by the product rule over atoms."""
    out: NoiseSum = {}
    for expr, c in s.items():
        for atom, rest in _peel(expr):
            add_into(out, ((merge(e2, rest), c2) for e2, c2 in diff_atom(atom).items()),
                     c * expr.count(atom))
    return out


def _peel(expr: Expr):
    """Each distinct atom of a product with the product of the others."""
    for atom in dict.fromkeys(expr):
        rest = list(expr)
        rest.remove(atom)
        yield atom, tuple(rest)


# ---------------------------------------------------------------------------
# expectations

def _side(atom: Atom) -> Optional[int]:
    """-1 pure past, +1 pure future, None mixed/instantaneous."""
    if is_bare(atom):
        return None
    mu, child = atom[1], atom[2]
    s = -1 if mu < 0 else 1
    for a in child:
        cs = -1 if is_bare(a) else _side(a)
        # A bare symbol inside the integral inherits the integral's side.
        if is_bare(a):
            continue
        if cs is None or cs != s:
            return None
    return s


def expectation(expr: Expr) -> Optional[Fraction]:
    """Expectation of a canonical product, or None when outside the tables.

    Rules: E[1]=1, E[phi]=0, E[Z mu c] = E[c]/|mu|, E[(Z mu phi)^2]=1/(2|mu|),
    E[phi * Z(mu<0) phi]=1/2, products over independent noise symbols
    factorise, odd total symbol count vanishes, and factors measurable with
    respect to disjoint past/future noise segments factorise.  Anything else
    is reported as unevaluable rather than guessed.
    """
    if expr == ONE:
        return Fraction(1)
    if phi_occurrences(expr) % 2 == 1:
        return Fraction(0)
    # Factorise over disjoint noise symbols.
    comps: List[List[Atom]] = []
    for a in expr:
        syms = symbols_of((a,))
        hit = [c for c in comps if symbols_of(tuple(c)) & syms]
        for c in hit:
            comps.remove(c)
        comps.append(sum(hit, []) + [a])
    if len(comps) > 1:
        total = Fraction(1)
        for c in comps:
            e = expectation(product(*c))
            if e is None:
                return None
            total *= e
        return total
    return _expect_component(expr)


def _expect_component(expr: Expr) -> Optional[Fraction]:
    if expr == ONE:
        return Fraction(1)
    if len(expr) == 1:
        a = expr[0]
        if is_bare(a):
            return Fraction(0)
        inner = expectation(a[2])
        if inner is None:
            return None
        return inner / abs(a[1])
    # Disjoint past/future groups are independent.
    sides = [_side(a) for a in expr]
    if all(s is not None for s in sides) and len(set(sides)) == 2:
        past = product(*[a for a, s in zip(expr, sides) if s < 0])
        fut = product(*[a for a, s in zip(expr, sides) if s > 0])
        ep, ef = expectation(past), expectation(fut)
        if ep is None or ef is None:
            return None
        return ep * ef
    if len(expr) == 2:
        a, b = expr
        if a == b and is_conv(a) and len(a[2]) == 1 and is_bare(a[2][0]):
            return Fraction(1, 2) / abs(a[1])
        if is_bare(a) and is_conv(b) and b[1] < 0 and b[2] == (a,):
            return Fraction(1, 2)
        if is_bare(b) and is_conv(a) and a[1] < 0 and a[2] == (b,):
            return Fraction(1, 2)
    return None


# ---------------------------------------------------------------------------
# integration by parts

def ibp_normalize(s: NoiseSum) -> Tuple[NoiseSum, NoiseSum]:
    """Split a resonant forcing c into (evolution, transform) with
    c = evolution + d/dt(transform), evolution containing only constants,
    a single bare factor, or bare-times-convolutions products.

    The rewrites, applied recursively, are the single-convolution split

        Z[nu] C = C/|nu| + d/dt( Z[nu] C / nu ),

    the product split for P a product of convolutions with rate sum s != 0,

        P = (1/s) [ d/dt P + sum_i sgn(mu_i) C_i P/Z[mu_i]C_i ],

    and, when the rates sum to zero, doubling the most negative factor:
    with P = Z[mu]C_A * R,  beta = Z[mu]Z[mu]C_A * R,

        P = d/dt beta + sum_{i in R} sgn(nu_i) C_i Z[mu]Z[mu]C_A R/Z[nu_i]C_i.
    """
    return _ibp_sum(s, 0)


_IBP_DEPTH_LIMIT = 64


def _ibp_sum(s: NoiseSum, depth: int) -> Tuple[NoiseSum, NoiseSum]:
    evo: NoiseSum = {}
    xform: NoiseSum = {}
    for expr, c in s.items():
        e1, x1 = _ibp_expr(expr, depth)
        add_into(evo, e1.items(), c)
        add_into(xform, x1.items(), c)
    return evo, xform


def _ibp_expr(expr: Expr, depth: int) -> Tuple[NoiseSum, NoiseSum]:
    nb = bare_count(expr)
    if nb >= 2:
        raise MalformedResidual(f"two bare factors in forcing: {expr}")
    if expr == ONE or nb == 1:
        # Constants, bare noise, and bare-times-convolution products are the
        # irreducible evolution shapes.
        return {expr: Fraction(1)}, {}
    if depth > _IBP_DEPTH_LIMIT:
        from .render import render_noise
        raise MalformedResidual(
            f"integration by parts did not terminate within {_IBP_DEPTH_LIMIT} "
            f"levels at {render_noise(expr)}")
    if len(expr) == 1:
        mu, child = expr[0][1], expr[0][2]
        evo, xform = _ibp_sum({child: Fraction(1) / abs(mu)}, depth + 1)
        add_into(xform, ((expr, Fraction(1) / mu),))
        return evo, xform
    total = sum(a[1] for a in expr)
    if total == 0:
        # Double the most negative factor: beta = Z[mu]Z[mu]C_A * R.
        chosen = min(expr, key=lambda a: (a[1], _sort_key(a)))
        rest = list(expr)
        rest.remove(chosen)
        mu, child = chosen[1], chosen[2]
        doubled = z_atom(mu, (z_atom(mu, child),))
        xform = {merge((doubled,), tuple(rest)): Fraction(1)}
        return _ibp_peel(tuple(rest), (doubled,), Fraction(1), xform, depth)
    return _ibp_peel(expr, (), Fraction(1) / total, {expr: Fraction(1) / total}, depth)


def _ibp_peel(atoms: Expr, extra: Expr, weight: Fraction, xform: NoiseSum,
              depth: int) -> Tuple[NoiseSum, NoiseSum]:
    """Normalise ``weight * sum_i sgn(mu_i) C_i P/Z[mu_i]C_i`` (i over
    ``atoms``, P the product of ``atoms`` and ``extra``) one level deeper:
    its evolution part, and ``xform`` with its transform part added."""
    evo: NoiseSum = {}
    for atom, others in _peel(atoms):
        sgn = 1 if atom[1] > 0 else -1
        e2, x2 = _ibp_expr(merge(atom[2], extra + others), depth + 1)
        c = weight * sgn * atoms.count(atom)
        add_into(evo, e2.items(), c)
        add_into(xform, x2.items(), c)
    return evo, xform
