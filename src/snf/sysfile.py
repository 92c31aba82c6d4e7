"""Line-oriented text format describing a slow-fast stochastic system.

Example::

    # toy system
    slow x
    fast y
    param sigma
    noise 1
    A 0
    B -1
    order 5
    cap sigma 2
    eq x: -x*y
    eq y: -y + x^2 - 2*y^2 + sigma*phi1

One declaration per line, ``#`` comments, rational literals ``p/q``.  Only
``A`` rows and ``B`` rates may be declared again; every other declaration
is made once (``cap`` and ``eq`` once per name).  The linear parts declared
in ``A``/``B`` are stripped from the equations (the ``-y`` above);
everything else in an equation is collected into the nonlinear/noisy
right-hand side.

An equation is read by the report parser's recursive descent
(``render.TermParser``: ``+ - * /``, parentheses, integers, so that
``p/q`` is a division, and one integer exponent per ``^``) with name atoms of its own: declared names, the noise
symbols ``phi1 .. phiK`` and ``sqrt(<rescale>)``.  A declared name of the
form ``phiN`` is refused on its line: the equations would read it as noise.
A divisor is a non-zero number or, under ``rescale``, one noise-free term
in that parameter.

``rescale <param>`` declares a singular-perturbation system written in slow
time: the loader multiplies every right-hand side by the parameter (the fast
time substitution t -> tau/param) and converts the noise intensity by the
half-power of the parameter.  ``1/<param>`` and ``1/sqrt(<param>)``
coefficients are only admitted in that mode, and must cancel by the time the
system is graded.  ``noise_scale <param>`` multiplies every noise symbol by
a declared magnitude parameter.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import noise
from .noise import ONE
from .render import ParseError, Terms, TermParser, rational, threshold
from .series import Series, Trunc
from .systems import SystemSpec, SystemDefinitionError


class SysFileError(ValueError):
    """Parse failure, with a line number in the message."""


@dataclass
class SysFile:
    slow: List[str] = field(default_factory=list)
    fast: List[str] = field(default_factory=list)
    params: List[str] = field(default_factory=list)
    n_noise: int = 1
    A_rows: List[List[Fraction]] = field(default_factory=list)
    B: List[Fraction] = field(default_factory=list)
    # the line of each A row and of each B rate
    A_lines: List[int] = field(default_factory=list)
    B_lines: List[int] = field(default_factory=list)
    order: int = 3
    caps: Dict[str, int] = field(default_factory=dict)
    count_fast: bool = True
    policy: str = "anticipate"
    mu_min: Fraction = Fraction(0)
    rescale: Optional[str] = None
    noise_scale: Optional[str] = None
    equations: Dict[str, Tuple[int, str]] = field(default_factory=dict)  # (line, text)
    # each declaration made once ('order', 'cap <p>', 'eq <var>', ...) -> its line
    lines: Dict[str, int] = field(default_factory=dict)
    label: str = ""


def _rat(text: str, ln: int, read) -> Fraction:
    try:
        return read(text)
    except ValueError as exc:
        raise SysFileError(f"line {ln}: {exc}")


def _int(text: str, ln: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise SysFileError(f"line {ln}: bad integer {text!r}")


def _at_least(least: int, text: str, ln: int, what: str) -> int:
    v = _int(text, ln)
    if v < least:
        raise SysFileError(f"line {ln}: {what} must be at least {least}, got {v}")
    return v


# Declarations a file makes at most once; 'cap <p>' and 'eq <var>' once per name.
_SINGLE = {"noise", "order", "grade_fast", "policy", "mu_min", "rescale", "noise_scale"}
# the noise symbols phi1 .. phiK of the equations; no declared name has this form
_NOISE_NAME = re.compile(r"phi([0-9]+)")
_ON_OFF = {"on": True, "true": True, "1": True, "yes": True,
           "off": False, "false": False, "0": False, "no": False}


def parse_sysfile(text: str, label: str = "") -> SysFile:
    sf = SysFile(label=label)
    names = {"slow": sf.slow, "fast": sf.fast, "param": sf.params}
    declared: Dict[str, Tuple[str, int]] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        decl = (head + " " + re.split(r"[\s:]", rest, maxsplit=1)[0] if head in ("cap", "eq")
                else head if head in _SINGLE else None)
        if decl is not None:
            if decl in sf.lines:
                raise SysFileError(f"line {ln}: {decl!r} is already declared on line "
                                   f"{sf.lines[decl]}")
            sf.lines[decl] = ln
        if head in names:
            for name in rest.split():
                if _NOISE_NAME.fullmatch(name):
                    raise SysFileError(f"line {ln}: {head} {name!r} would read as "
                                       "a noise symbol in the equations")
                if name in declared:
                    kind, first = declared[name]
                    raise SysFileError(f"line {ln}: {name!r} is already declared "
                                       f"{kind} on line {first}")
                declared[name] = (head, ln)
                names[head].append(name)
        elif head == "noise":
            sf.n_noise = _at_least(1, rest, ln, "noise")
        elif head == "A":
            sf.A_rows.append([_rat(v, ln, rational) for v in rest.split()])
            sf.A_lines.append(ln)
        elif head == "B":
            sf.B.extend(_rat(v, ln, rational) for v in rest.split())
            sf.B_lines += [ln] * (len(sf.B) - len(sf.B_lines))
        elif head == "order":
            sf.order = _at_least(1, rest, ln, "order")
        elif head == "cap":
            parts = rest.split()
            if len(parts) != 2:
                raise SysFileError(f"line {ln}: expected 'cap <param> <max power>'")
            sf.caps[parts[0]] = _at_least(0, parts[1], ln, f"cap on {parts[0]}")
        elif head == "grade_fast":
            if rest.lower() not in _ON_OFF:
                raise SysFileError(f"line {ln}: grade_fast must be on or off, got {rest!r}")
            sf.count_fast = _ON_OFF[rest.lower()]
        elif head == "policy":
            if rest not in ("anticipate", "no-anticipate"):
                raise SysFileError(f"line {ln}: policy must be anticipate|no-anticipate")
            sf.policy = rest
        elif head == "mu_min":
            sf.mu_min = _rat(rest, ln, threshold)
        elif head == "rescale":
            sf.rescale = rest
        elif head == "noise_scale":
            sf.noise_scale = rest
        elif head == "eq":
            m = re.match(r"(\w+)\s*:\s*(.*)$", rest)
            if not m:
                raise SysFileError(f"line {ln}: expected 'eq <var>: <expression>'")
            sf.equations[m.group(1)] = (ln, m.group(2))
        else:
            raise SysFileError(f"line {ln}: unknown declaration {head!r}")
    return sf


# -- equations -------------------------------------------------------------


class _EquationParser(TermParser):
    """One equation's right-hand side: a name atom is a declared name, a
    noise symbol phiN (1-based) or sqrt(<rescale>).  Exponents run flat over
    the slow, fast and parameter names, then one slot counts half powers of
    the rescale parameter.  A divisor is one noise-free term in that
    parameter."""

    def __init__(self, text: str, sf: SysFile):
        names = sf.slow + sf.fast + sf.params
        super().__init__(text, len(names) + 1)
        unit = lambda i: tuple(int(j == i) for j in range(len(names) + 1))
        self.units = {name: unit(i) for i, name in enumerate(names)}
        self.half = unit(len(names))
        self.sf = sf

    def name(self, name: str) -> Terms:
        if name == "sqrt" and self.peek()[0] == "lparen":
            self.take("lparen")
            arg = self.take("name")
            self.take("rparen")
            if arg != self.sf.rescale:
                raise ParseError("sqrt only of the rescale parameter")
            return {(self.half, ONE): 1}
        m = _NOISE_NAME.fullmatch(name)
        if m:
            k = int(m.group(1)) - 1
            if not 0 <= k < self.sf.n_noise:
                raise ParseError(f"noise symbol {name} out of range")
            return {(self.one[0], (noise.phi_atom(k),)): 1}
        if name in self.units:
            return {(self.units[name], ONE): 1}
        raise ParseError(f"unknown symbol {name!r}")

    def inverse(self, f: Terms) -> Terms:
        if len(f) != 1:
            raise ParseError("can only divide by a single factor" if f
                             else f"division by zero in {self.text!r}")
        ((exps, expr), c), = f.items()
        if expr != ONE:
            raise ParseError("cannot divide by noise")
        named = [name for name, e in zip(self.units, exps) if e]
        if named and self.sf.rescale is None:
            raise ParseError(f"1/{named} needs a rescale declaration")
        if any(name != self.sf.rescale for name in named):
            raise ParseError("division only by the rescale parameter")
        return {(tuple(-e for e in exps), ONE): Fraction(1) / c}


def _shape_error(message: str, lines: List[int], bad: int) -> str:
    """``message`` naming the line of entry ``bad``, or the last line when
    entries are missing (none when no line declares any)."""
    return f"line {lines[min(bad, len(lines) - 1)]}: {message}" if lines else message


def build_system(sf: SysFile) -> SystemSpec:
    if not sf.slow or not sf.fast:
        raise SysFileError("need at least one slow and one fast variable")
    n = len(sf.fast)
    if len(sf.B) != n:
        raise SysFileError(_shape_error("B must list one rate per fast variable",
                                        sf.B_lines, n))
    for name in sf.caps:
        if name not in sf.params:
            raise SysFileError(f"line {sf.lines['cap ' + name]}: cap on undeclared "
                               f"parameter {name!r}")
    for decl in ("rescale", "noise_scale"):
        name = getattr(sf, decl)
        if name is not None and name not in sf.params:
            raise SysFileError(f"line {sf.lines[decl]}: {decl} names undeclared "
                               f"parameter {name!r}")
    caps = tuple(sf.caps.get(p) for p in sf.params)
    trunc = Trunc(sf.order, caps, sf.count_fast)
    m = len(sf.slow)
    if not sf.A_rows:
        sf.A_rows = [[Fraction(0)] * m for _ in range(m)]
    elif len(sf.A_rows) != m or any(len(r) != m for r in sf.A_rows):
        bad = next((i for i, r in enumerate(sf.A_rows) if len(r) != m), m)
        raise SysFileError(_shape_error("A must be an m x m block", sf.A_lines, bad))
    spec = SystemSpec(tuple(sf.slow), tuple(sf.fast), tuple(sf.params),
                      tuple(tuple(row) for row in sf.A_rows), tuple(sf.B), [], [],
                      sf.n_noise, trunc, sf.label)
    dims = spec.dims

    res_idx = sf.params.index(sf.rescale) if sf.rescale else None
    scale_idx = sf.params.index(sf.noise_scale) if sf.noise_scale else None
    mn = m + n

    def to_series(terms: Terms, ln: int) -> Series:
        pairs = []
        for (exps, expr), c in terms.items():
            par_e = list(exps[mn:-1])
            if sf.rescale is not None:
                # t -> tau/param: every rate gains one factor of the
                # parameter, noise increments gain a half power each.
                half = exps[-1] - len(expr)
                if half % 2:
                    raise SysFileError(f"line {ln}: term keeps a half power of "
                                       f"{sf.rescale} after rescaling")
                par_e[res_idx] += 1 + half // 2
                if par_e[res_idx] < 0:
                    raise SysFileError(f"line {ln}: negative power of {sf.rescale} "
                                       "after rescaling")
            if scale_idx is not None:
                par_e[scale_idx] += len(expr)
            pairs.append((((exps[:m], exps[m:mn], tuple(par_e)), expr), c))
        return Series(dims, trunc, noise.add_into({}, pairs))

    def equation(var: str, which: str) -> Series:
        if var not in sf.equations:
            raise SysFileError(f"missing equation for {which} variable {var}")
        ln, text = sf.equations[var]
        try:
            terms = _EquationParser(text, sf).parse()
        except ParseError as exc:
            raise SysFileError(f"line {ln}: {exc}") from exc
        return to_series(terms, ln)

    for var, (ln, _text) in sf.equations.items():
        if var not in sf.slow and var not in sf.fast:
            raise SysFileError(f"line {ln}: equation for {var!r}, which is not a "
                               "slow or fast variable")
    # each equation body less its declared linear part
    spec.f = [equation(var, "slow") - lin for var, lin in zip(sf.slow, spec.linear_xdot())]
    spec.g = [equation(var, "fast") - lin for var, lin in zip(sf.fast, spec.linear_ydot())]
    try:
        spec.validate()
    except SystemDefinitionError as exc:
        if exc.rhs is None:
            raise SysFileError(str(exc)) from exc
        which, idx = exc.rhs
        var = (sf.slow if which == "slow" else sf.fast)[idx]
        raise SysFileError(f"line {sf.equations[var][0]}: {exc}") from exc
    return spec


def system_as_written(sf: SysFile) -> SystemSpec:
    """The system with every equation term the file writes: no parameter
    caps and no total-grade bound, for simulating the full model rather
    than its truncation window."""
    return build_system(replace(sf, order=sys.maxsize, caps={}))


def load_system(text: str, label: str = "") -> Tuple[SystemSpec, SysFile]:
    """The system of a ``.snf`` file's text; ``label`` names it in reports."""
    sf = parse_sysfile(text, label=label)
    return build_system(sf), sf
