"""Deterministic text reports for derived normal forms, with a parser that
reconstructs the series values bit-exactly (used by `verify`)."""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import noise
from .analysis import expected_series, ssm_parametrisation, revert
from .render import ParseError, new_names as _new_names, parse_series, render_series
from .series import Series
from .systems import NormalForm, Policy, SystemSpec


class ReportError(ValueError):
    """A malformed report: the message names the line or the missing
    component."""


# the header lines emit_report writes, in its order
_HEADER_KEYS = ("system", "policy", "mu_min", "order", "param_caps", "grade_fast",
                "certified")
# the sections emit_report writes, in its order; a report needs every one
_SECTIONS = ("transform", "evolution", "ssm", "expected_ssm", "reversion")


def truncation_header(spec: SystemSpec) -> List[Tuple[str, str]]:
    """The header fields that state the truncation a report was derived at."""
    caps = ", ".join(f"{p}<={c}" for p, c in zip(spec.param_names, spec.trunc.param_caps)
                     if c is not None) or "none"
    return [("order", str(spec.trunc.total)), ("param_caps", caps),
            ("grade_fast", "on" if spec.trunc.count_fast else "off")]


def header_policy(header: Dict[str, str]) -> Policy:
    """The policy a report header claims; ValueError when it names none."""
    label, mu_min = header.get("policy"), header.get("mu_min")
    if label not in ("anticipate", "no-anticipate"):
        raise ValueError(f"report header policy {label!r} is not anticipate|no-anticipate")
    try:
        return Policy(anticipation=(label == "anticipate"), mu_min=Fraction(mu_min))
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"report header mu_min {mu_min!r} is not a rational")


def emit_report(nf: NormalForm) -> str:
    spec = nf.spec
    slow_new, fast_new = _new_names(spec)
    names_new = (slow_new, fast_new, spec.param_names)
    names_orig = (spec.slow_names, spec.fast_names, spec.param_names)
    lines = [
        "normal-form report",
        f"system: {spec.label or 'unnamed'}",
        f"policy: {nf.policy.label()}",
        f"mu_min: {nf.policy.mu_min}",
        *(f"{key}: {value}" for key, value in truncation_header(spec)),
        "certified: " + ("yes" if nf.certified
                         else f"NO ({'; '.join(nf.certification_failures())})"),
    ]
    lines.append("transform:")
    for i, name in enumerate(spec.slow_names):
        lines.append(f"  {name} = {render_series(nf.transform_x()[i], names_new)}")
    for j, name in enumerate(spec.fast_names):
        lines.append(f"  {name} = {render_series(nf.transform_y()[j], names_new)}")
    lines.append("evolution:")
    for i, name in enumerate(slow_new):
        lines.append(f"  d{name}/dt = {render_series(nf.xdot()[i], names_new)}")
    for j, name in enumerate(fast_new):
        lines.append(f"  d{name}/dt = {render_series(nf.ydot()[j], names_new)}")
    chart = ssm_parametrisation(nf)
    lines.append("ssm:")
    for i, name in enumerate(spec.slow_names):
        lines.append(f"  {name} = {render_series(chart.x_of_X[i], names_new)}")
    for j, name in enumerate(spec.fast_names):
        lines.append(f"  {name} = {render_series(chart.y_of_X[j], names_new)}")
    lines.append("expected_ssm:")
    for name, series in zip(spec.slow_names + spec.fast_names,
                            chart.x_of_X + chart.y_of_X):
        e = expected_series(series)
        tail = " (+ unevaluable terms)" if e.unevaluable else ""
        lines.append(f"  E[{name}] = {render_series(e.value, names_new)}{tail}")
        if e.unevaluable:
            rest = Series(series.dims, series.trunc, dict(e.unevaluable))
            lines.append(f"  # unevaluable in E[{name}]: "
                         f"E[{render_series(rest, names_new)}]")
    rv = revert(nf)
    lines.append("reversion:")
    for i, name in enumerate(slow_new):
        lines.append(f"  {name} = {render_series(rv.X_of_xy[i], names_orig)}")
    for j, name in enumerate(fast_new):
        lines.append(f"  {name} = {render_series(rv.Y_of_xy[j], names_orig)}")
    return "\n".join(lines) + "\n"


@dataclass
class ParsedReport:
    header: Dict[str, str]
    transform: Dict[str, Series]
    evolution: Dict[str, Series]
    sections: Dict[str, Dict[str, Series]]


def parse_report(text: str, spec: SystemSpec) -> ParsedReport:
    slow_new, fast_new = _new_names(spec)
    names_new = (slow_new, fast_new, spec.param_names)
    names_orig = (spec.slow_names, spec.fast_names, spec.param_names)
    # Read unbounded, so a term the truncation would drop is refused, not lost.
    unbounded = replace(spec.trunc, total=sys.maxsize, param_caps=())
    header: Dict[str, str] = {}
    sections: Dict[str, Dict[str, Series]] = {}
    header_line: Dict[str, int] = {}
    seen: Dict[Tuple[str, str], int] = {}    # (section, lhs) -> its line
    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.strip() == "normal-form report" \
                or raw.lstrip().startswith("#"):
            continue
        if not raw.startswith("  "):
            key, _, val = raw.partition(":")
            if raw.rstrip().endswith(":") and not val.strip():
                current = key.strip()
                if current not in _SECTIONS:
                    raise ReportError(f"report line {lineno}: unknown section {current!r}")
                sections.setdefault(current, {})
            else:
                key = key.strip()
                if key not in _HEADER_KEYS:
                    raise ReportError(f"report line {lineno}: unknown header key {key!r}")
                first = header_line.setdefault(key, lineno)
                if first != lineno:
                    raise ReportError(f"report line {lineno}: header '{key}: ...' "
                                      f"repeats line {first}")
                header[key] = val.strip()
            continue
        if current is None:
            raise ReportError(f"report line {lineno}: series line outside any "
                              f"section: {raw.strip()!r}")
        lhs, _, rhs = raw.strip().partition("=")
        lhs = lhs.strip()
        first = seen.setdefault((current, lhs), lineno)
        if first != lineno:
            raise ReportError(f"report line {lineno}: '{lhs} = ...' repeats line "
                              f"{first} in section {current}")
        rhs = rhs.split("(+ unevaluable")[0].strip()
        names = names_orig if current == "reversion" else names_new
        try:
            series = parse_series(rhs, spec.dims, unbounded, names)
        except ParseError as exc:
            raise ReportError(f"report line {lineno}: {exc}") from exc
        for (mono, expr), c in series.terms.items():
            if not spec.trunc.keeps(mono):
                term = render_series(series.build_like({(mono, expr): c}), names)
                raise ReportError(f"report line {lineno}: term {term} is outside "
                                  f"the truncation window in {rhs!r}")
            k = max(noise.symbols_of(expr), default=-1)
            if k >= spec.n_noise:
                raise ReportError(f"report line {lineno}: noise index {k} is out of "
                                  f"range for {spec.n_noise} noise(s) in {rhs!r}")
        sections[current][lhs] = series.with_trunc(spec.trunc)
    for name in _SECTIONS:
        if name not in sections:
            raise ReportError(f"report has no '{name}:' section")
    return ParsedReport(header, sections["transform"], sections["evolution"], sections)


def rebuild_normal_form(rep: ParsedReport, spec: SystemSpec,
                        policy: Policy) -> NormalForm:
    """Reconstruct a NormalForm from a parsed report for re-certification."""
    slow_new, fast_new = _new_names(spec)
    dims, trunc = spec.dims, spec.trunc

    def line(section: str, lhs: str) -> Series:
        series = getattr(rep, section).get(lhs)
        if series is None:
            raise ReportError(f"report has no {section} line '{lhs} = ...'")
        return series

    xi = [line("transform", n) - Series.slow_var(dims, trunc, i)
          for i, n in enumerate(spec.slow_names)]
    eta = [line("transform", n) - Series.fast_var(dims, trunc, j)
           for j, n in enumerate(spec.fast_names)]
    lin_x, lin_y = spec.linear_xdot(), spec.linear_ydot()
    F = [line("evolution", f"d{n}/dt") - lin_x[i] for i, n in enumerate(slow_new)]
    G = [line("evolution", f"d{n}/dt") - lin_y[j] for j, n in enumerate(fast_new)]
    return NormalForm(spec=spec, policy=policy, xi=xi, eta=eta, F=F, G=G)
