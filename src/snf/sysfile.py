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
is made once (``cap`` and ``eq`` once per name).  Noise symbols are
``phi1 .. phiK``.  The linear parts declared in ``A``/``B`` are
stripped from the equations (the ``-y`` above); everything else in an
equation is collected into the nonlinear/noisy right-hand side.

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

from .series import Dims, Series, Trunc, name_index
from .systems import SystemSpec, SystemDefinitionError
from . import noise


class SysFileError(ValueError):
    """Parse failure, with a line number in the message."""


@dataclass
class RawTerm:
    coeff: Fraction
    var_pows: Dict[str, int]
    noise_pows: Dict[int, int]
    half_eps: int = 0           # exponent of param^(1/2) units for rescale


@dataclass
class SysFile:
    slow: List[str] = field(default_factory=list)
    fast: List[str] = field(default_factory=list)
    params: List[str] = field(default_factory=list)
    n_noise: int = 1
    A_rows: List[List[Fraction]] = field(default_factory=list)
    B: List[Fraction] = field(default_factory=list)
    order: int = 3
    caps: Dict[str, int] = field(default_factory=dict)
    count_fast: bool = True
    policy: str = "anticipate"
    mu_min: Fraction = Fraction(0)
    rescale: Optional[str] = None
    noise_scale: Optional[str] = None
    equations: Dict[str, Tuple[int, str]] = field(default_factory=dict)  # (line, text)
    label: str = ""


_NUM = r"\d+(?:/\d+)?"


def _rat(text: str, ln: int) -> Fraction:
    try:
        if "/" in text:
            p, q = text.split("/")
            return Fraction(int(p), int(q))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise SysFileError(f"line {ln}: bad rational {text!r}")


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
_ON_OFF = {"on": True, "true": True, "1": True, "yes": True,
           "off": False, "false": False, "0": False, "no": False}


def parse_sysfile(text: str, label: str = "") -> SysFile:
    sf = SysFile(label=label)
    names = {"slow": sf.slow, "fast": sf.fast, "param": sf.params}
    declared: Dict[str, Tuple[str, int]] = {}
    single: Dict[str, int] = {}     # 'order', 'cap <p>', 'eq <var>', ... -> line
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        decl = (head + " " + re.split(r"[\s:]", rest, maxsplit=1)[0] if head in ("cap", "eq")
                else head if head in _SINGLE else None)
        if decl is not None:
            if decl in single:
                raise SysFileError(f"line {ln}: {decl!r} is already declared on line "
                                   f"{single[decl]}")
            single[decl] = ln
        if head in names:
            for name in rest.split():
                if name in declared:
                    kind, first = declared[name]
                    raise SysFileError(f"line {ln}: {name!r} is already declared "
                                       f"{kind} on line {first}")
                declared[name] = (head, ln)
                names[head].append(name)
        elif head == "noise":
            sf.n_noise = _at_least(1, rest, ln, "noise")
        elif head == "A":
            sf.A_rows.append([_rat(v, ln) for v in rest.split()])
        elif head == "B":
            sf.B.extend(_rat(v, ln) for v in rest.split())
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
            sf.mu_min = _rat(rest, ln)
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


# -- expression parsing to raw terms ----------------------------------------

_TOK = re.compile(rf"""
    (?P<num>{_NUM})
  | (?P<sqrt>sqrt)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _expr_terms(text: str, ln: int, sf: SysFile) -> List[RawTerm]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOK.match(text, pos)
        if not m:
            raise SysFileError(f"line {ln}: bad character {text[pos]!r} at column {pos + 1}")
        pos = m.end()
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group()))
    tokens.append(("end", ""))

    state = {"k": 0}

    def peek():
        return tokens[state["k"]]

    def take(kind=None, value=None):
        tk, tv = tokens[state["k"]]
        if (kind and tk != kind) or (value and tv != value):
            raise SysFileError(f"line {ln}: unexpected {tv!r} in {text!r}")
        state["k"] += 1
        return tv

    def add_pows(a: Dict, b: Dict) -> Dict:
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) + v
        return out

    def mul_terms(a: List[RawTerm], b: List[RawTerm]) -> List[RawTerm]:
        return [RawTerm(ta.coeff * tb.coeff, add_pows(ta.var_pows, tb.var_pows),
                        add_pows(ta.noise_pows, tb.noise_pows), ta.half_eps + tb.half_eps)
                for ta in a for tb in b]

    def invert(ts: List[RawTerm]) -> List[RawTerm]:
        if len(ts) != 1:
            raise SysFileError(f"line {ln}: can only divide by a single factor")
        t = ts[0]
        if t.noise_pows:
            raise SysFileError(f"line {ln}: cannot divide by noise")
        if t.var_pows and sf.rescale is None:
            raise SysFileError(f"line {ln}: 1/{list(t.var_pows)} needs a rescale declaration")
        if any(k != sf.rescale for k in t.var_pows):
            raise SysFileError(f"line {ln}: division only by the rescale parameter")
        if not t.coeff:
            raise SysFileError(f"line {ln}: division by zero in {text!r}")
        return [RawTerm(Fraction(1) / t.coeff,
                        {k: -v for k, v in t.var_pows.items()}, {},
                        -t.half_eps)]

    def expr() -> List[RawTerm]:
        sign = Fraction(1)
        while peek()[0] == "op" and peek()[1] in "+-":
            if take("op") == "-":
                sign = -sign
        out = [RawTerm(t.coeff * sign, t.var_pows, t.noise_pows, t.half_eps)
               for t in term()]
        while peek()[0] == "op" and peek()[1] in "+-":
            op = take("op")
            nxt = term()
            if op == "-":
                nxt = [RawTerm(-t.coeff, t.var_pows, t.noise_pows, t.half_eps) for t in nxt]
            out.extend(nxt)
        return out

    def term() -> List[RawTerm]:
        out = factor()
        while peek()[0] == "op" and peek()[1] in "*/":
            op = take("op")
            nxt = factor()
            out = mul_terms(out, invert(nxt) if op == "/" else nxt)
        return out

    def factor() -> List[RawTerm]:
        if peek() == ("op", "-"):
            take("op")
            return [RawTerm(-t.coeff, t.var_pows, t.noise_pows, t.half_eps)
                    for t in factor()]
        base = atom()
        while peek() == ("op", "^"):
            take("op")
            e = _int(take("num"), ln)
            out = [RawTerm(Fraction(1), {}, {})]
            for _ in range(e):
                out = mul_terms(out, base)
            return out
        return base

    def atom() -> List[RawTerm]:
        kind, val = peek()
        if kind == "num":
            take("num")
            return [RawTerm(_rat(val, ln), {}, {})]
        if kind == "op" and val == "(":
            take("op")
            s = expr()
            take("op", ")")
            return [t for t in s]
        if kind == "sqrt":
            take("sqrt")
            take("op", "(")
            name = take("name")
            take("op", ")")
            if name != sf.rescale:
                raise SysFileError(f"line {ln}: sqrt only of the rescale parameter")
            return [RawTerm(Fraction(1), {}, {}, half_eps=1)]
        if kind == "name":
            take("name")
            m = re.fullmatch(r"phi(\d+)", val)
            if m:
                k = int(m.group(1)) - 1
                if not 0 <= k < sf.n_noise:
                    raise SysFileError(f"line {ln}: noise symbol {val} out of range")
                return [RawTerm(Fraction(1), {}, {k: 1})]
            if val in sf.slow or val in sf.fast or val in sf.params:
                return [RawTerm(Fraction(1), {val: 1}, {})]
            raise SysFileError(f"line {ln}: unknown symbol {val!r}")
        raise SysFileError(f"line {ln}: unexpected {val!r}")

    out = expr()
    take("end")
    return out


def build_system(sf: SysFile) -> SystemSpec:
    if not sf.slow or not sf.fast:
        raise SysFileError("need at least one slow and one fast variable")
    if len(sf.B) != len(sf.fast):
        raise SysFileError("B must list one rate per fast variable")
    dims = Dims(len(sf.slow), len(sf.fast), tuple(sf.params), sf.n_noise)
    for name in sf.caps:
        if name not in sf.params:
            raise SysFileError(f"cap on undeclared parameter {name!r}")
    caps = tuple(sf.caps.get(p) for p in sf.params)
    trunc = Trunc(sf.order, caps, sf.count_fast)
    m = len(sf.slow)
    if not sf.A_rows:
        sf.A_rows = [[Fraction(0)] * m for _ in range(m)]
    if len(sf.A_rows) != m or any(len(r) != m for r in sf.A_rows):
        raise SysFileError("A must be an m x m block")
    A = tuple(tuple(row) for row in sf.A_rows)
    B = tuple(sf.B)

    res_idx = sf.params.index(sf.rescale) if sf.rescale else None
    scale_idx = sf.params.index(sf.noise_scale) if sf.noise_scale else None

    where = name_index((sf.slow, sf.fast, sf.params))

    def to_series(terms: List[RawTerm], which: str, var: str) -> Series:
        pairs = []
        for t in terms:
            exps = [[0] * size for size in dims.sizes]
            for name, e in t.var_pows.items():
                part, k = where[name]
                exps[part][k] += e
            par_e = exps[2]
            half = t.half_eps
            if sf.rescale is not None:
                # t -> tau/param: every rate gains one factor of the
                # parameter, noise increments gain a half power each.
                par_e[res_idx] += 1
                half -= sum(t.noise_pows.values())
            if half % 2:
                raise SysFileError(
                    f"eq {var}: term keeps a half power of {sf.rescale} after rescaling")
            if sf.rescale is not None:
                par_e[res_idx] += half // 2
                if par_e[res_idx] < 0:
                    raise SysFileError(
                        f"eq {var}: negative power of {sf.rescale} after rescaling")
            if scale_idx is not None:
                par_e[scale_idx] += sum(t.noise_pows.values())
            atoms = []
            for k, e in t.noise_pows.items():
                atoms.extend([noise.phi_atom(k)] * e)
            key = (tuple(map(tuple, exps)), noise.product(*atoms))
            pairs.append((key, t.coeff))
        s = Series(dims, trunc, noise.add_into({}, pairs))
        # Strip the declared linear part from the equation body.
        if which == "slow":
            i = sf.slow.index(var)
            for j in range(m):
                if A[i][j]:
                    s = s - Series.slow_var(dims, trunc, j).scale(A[i][j])
        else:
            j = sf.fast.index(var)
            s = s - Series.fast_var(dims, trunc, j).scale(B[j])
        return s

    def equation(var: str, which: str) -> Series:
        if var not in sf.equations:
            raise SysFileError(f"missing equation for {which} variable {var}")
        ln, text = sf.equations[var]
        return to_series(_expr_terms(text, ln, sf), which, var)

    for var, (ln, _text) in sf.equations.items():
        if var not in sf.slow and var not in sf.fast:
            raise SysFileError(f"line {ln}: equation for {var!r}, which is not a "
                               "slow or fast variable")
    f = [equation(var, "slow") for var in sf.slow]
    g = [equation(var, "fast") for var in sf.fast]
    spec = SystemSpec(tuple(sf.slow), tuple(sf.fast), tuple(sf.params),
                      A, B, f, g, sf.n_noise, trunc, sf.label)
    try:
        spec.validate()
    except SystemDefinitionError as exc:
        raise SysFileError(str(exc)) from exc
    return spec


def system_as_written(sf: SysFile) -> SystemSpec:
    """The system with every equation term the file writes: no parameter
    caps and no total-grade bound, for simulating the full model rather
    than its truncation window."""
    return build_system(replace(sf, order=sys.maxsize, caps={}))


def load_system(path_or_text, label: str = "") -> Tuple[SystemSpec, SysFile]:
    import os
    text = path_or_text
    if isinstance(path_or_text, str) and "\n" not in path_or_text and os.path.exists(path_or_text):
        label = label or os.path.basename(path_or_text)
        with open(path_or_text) as fh:
            text = fh.read()
    sf = parse_sysfile(text, label=label)
    return build_system(sf), sf
