"""Deterministic text reports for derived normal forms, with a parser that
reconstructs the series values bit-exactly, and ``verify_report``, the
re-certification ``snf verify`` runs.  Writer, parser and verifier read one
section table, ``_layout``."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import engine, noise
from .analysis import chart_expectation, ssm_parametrisation, revert
from .render import (ParseError, SeriesReader, SeriesWriter, new_names as _new_names,
                     parse_series, threshold)
from .series import Series
from .systems import NormalForm, Policy, SystemSpec


class ReportError(ValueError):
    """A malformed report: the message names the line or the missing
    component."""


# the header lines emit_report writes, in its order
_HEADER_KEYS = ("system", "policy", "mu_min", "order", "param_caps", "grade_fast",
                "certified")


def _layout(spec: SystemSpec) -> Tuple[Tuple[str, Tuple[str, ...], tuple], ...]:
    """The sections emit_report writes, in its order, each with the
    left-hand sides of its lines in order and the (slow, fast, parameter)
    names its series are written in.  A report needs every section, and each
    section exactly its lines."""
    slow_new, fast_new = _new_names(spec)
    orig, new = spec.slow_names + spec.fast_names, slow_new + fast_new
    names_new = (slow_new, fast_new, spec.param_names)
    return (("transform", orig, names_new),
            ("evolution", tuple(f"d{n}/dt" for n in new), names_new),
            ("ssm", orig, names_new),
            ("expected_ssm", tuple(f"E[{n}]" for n in orig), names_new),
            ("reversion", new, (spec.slow_names, spec.fast_names, spec.param_names)))


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
        return Policy(anticipation=(label == "anticipate"), mu_min=threshold(mu_min or ""))
    except ValueError as exc:
        raise ValueError(f"report header mu_min: {exc}")


def emit_report(nf: NormalForm) -> str:
    spec, failures = nf.spec, nf.certification_failures()
    lines = [
        "normal-form report",
        f"system: {spec.label or 'unnamed'}",
        f"policy: {nf.policy.label()}",
        f"mu_min: {nf.policy.mu_min}",
        *(f"{key}: {value}" for key, value in truncation_header(spec)),
        "certified: " + (f"NO ({'; '.join(failures)})" if failures else "yes"),
    ]
    chart = ssm_parametrisation(nf)
    ssm = chart.x_of_X + chart.y_of_X
    expected = [chart_expectation(s, x)
                for s, x in zip(ssm, spec.slow_names + spec.fast_names)]
    rv = revert(nf)
    values = {"transform": nf.transform_x() + nf.transform_y(),
              "evolution": nf.xdot() + nf.ydot(), "ssm": ssm,
              "expected_ssm": expected, "reversion": rv.X_of_xy + rv.Y_of_xy}
    writer = SeriesWriter()
    for section, lhss, names in _layout(spec):
        lines.append(f"{section}:")
        lines += [f"  {lhs} = {writer.series(value, names)}"
                  for lhs, value in zip(lhss, values[section])]
    return "\n".join(lines) + "\n"


@dataclass
class ParsedReport:
    header: Dict[str, str]
    sections: Dict[str, Dict[str, Series]]


def parse_report(text: str, spec: SystemSpec) -> ParsedReport:
    layout = {section: (lhss, names) for section, lhss, names in _layout(spec)}
    header: Dict[str, str] = {}
    sections: Dict[str, Dict[str, Series]] = {}
    header_line: Dict[str, int] = {}
    seen: Dict[Tuple[str, str], int] = {}    # (section, lhs) -> its line
    readers: Dict[tuple, SeriesReader] = {}  # names -> its reader

    def read(lineno: int, rhs: str, names) -> Series:
        reader = readers.get(names)
        if reader is None:
            reader = readers[names] = SeriesReader(spec.dims, names)
        try:
            series = parse_series(rhs, spec.dims, spec.trunc, names, _reader=reader)
        except ParseError as exc:
            raise ReportError(f"report line {lineno}: {exc}") from exc
        for expr in series.noise_products():
            k = max(noise.symbols_of(expr), default=-1)
            if k >= spec.n_noise:
                raise ReportError(f"report line {lineno}: noise index {k} is out of "
                                  f"range for {spec.n_noise} noise(s) in {rhs!r}")
        return series

    current: Optional[str] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line == "normal-form report" or line.startswith("#"):
            continue
        if not raw.startswith("  "):
            key, _, val = raw.partition(":")
            if raw.rstrip().endswith(":") and not val.strip():
                current = key.strip()
                if current not in layout:
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
                              f"section: {line!r}")
        lhs, _, rhs = line.partition("=")
        lhs = lhs.strip()
        lhss, names = layout[current]
        if lhs not in lhss:
            raise ReportError(f"report line {lineno}: '{lhs} = ...' is not a line "
                              f"of section {current}")
        first = seen.setdefault((current, lhs), lineno)
        if first != lineno:
            raise ReportError(f"report line {lineno}: '{lhs} = ...' repeats line "
                              f"{first} in section {current}")
        sections[current][lhs] = read(lineno, rhs.strip(), names)
    for section, (lhss, _names) in layout.items():
        if section not in sections:
            raise ReportError(f"report has no '{section}:' section")
        for lhs in lhss:
            if lhs not in sections[section]:
                raise ReportError(f"report has no {section} line '{lhs} = ...'")
    return ParsedReport(header, sections)


def _identities(spec: SystemSpec) -> List[Series]:
    """x, then y, as series: the identity part of the transform lines, and
    the composition of the transform with its reversion."""
    return [Series.var(spec.dims, spec.trunc, part, k)
            for part, size in enumerate((spec.m, spec.n)) for k in range(size)]


def rebuild_normal_form(rep: ParsedReport, spec: SystemSpec,
                        policy: Policy) -> NormalForm:
    """Reconstruct a NormalForm from a parsed report for re-certification."""
    m = spec.m
    (_, transform, _), (_, evolution, _) = _layout(spec)[:2]
    xi_eta = [rep.sections["transform"][lhs] - v
              for lhs, v in zip(transform, _identities(spec))]
    F_G = [rep.sections["evolution"][lhs] - v
           for lhs, v in zip(evolution, spec.linear_xdot() + spec.linear_ydot())]
    return NormalForm(spec=spec, policy=policy, xi=xi_eta[:m], eta=xi_eta[m:],
                      F=F_G[:m], G=F_G[m:])


def verify_report(text: str, spec: SystemSpec) -> List[str]:
    """Why a saved report fails re-certification against ``spec``, as
    ``snf verify`` judges it; empty when it passes.  The header must state
    the system's truncation and a policy, the normal form rebuilt under
    that policy must pass the structural checks and clear the residual, and
    then every derived section must follow from it (``_section_failures``)."""
    rep = parse_report(text, spec)
    failures = [f"report header {key}: {rep.header.get(key, '(missing)')!r}, "
                f"system {want!r}"
                for key, want in truncation_header(spec) if rep.header.get(key) != want]
    try:
        policy = header_policy(rep.header)
    except ValueError as exc:
        failures.append(str(exc))
    if failures:
        return failures
    nf = rebuild_normal_form(rep, spec, policy)
    nf.residual_grade = engine.verify_order(spec, nf)
    return nf.certification_failures() or _section_failures(rep, nf)


def _section_failures(rep: ParsedReport, nf: NormalForm) -> List[str]:
    """Each line of a derived section that the rebuilt form contradicts:
    ``ssm`` must be its slow-manifold chart, each ``expected_ssm`` line the
    expectation of the report's own ``ssm`` line (AnalysisError when that
    line holds a product with no stationary expectation), and the
    ``reversion`` must invert the transform within the truncation window,
    one ``substitute`` per transform line."""
    spec, sections = nf.spec, rep.sections
    lhss = {section: lhss for section, lhss, _names in _layout(spec)}
    chart = ssm_parametrisation(nf)
    failures = [f"ssm line '{lhs} = ...' is not the slow-manifold chart of the transform"
                for lhs, want in zip(lhss["ssm"], chart.x_of_X + chart.y_of_X)
                if sections["ssm"][lhs] != want]
    failures += [f"expected_ssm line '{e} = ...' is not the expectation of "
                 f"ssm line '{x} = ...'"
                 for e, x in zip(lhss["expected_ssm"], lhss["ssm"])
                 if sections["expected_ssm"][e] != chart_expectation(sections["ssm"][x], x)]
    inverse = [sections["reversion"][lhs] for lhs in lhss["reversion"]]
    failures += [f"reversion lines do not invert transform line '{lhs} = ...'"
                 for lhs, ident in zip(lhss["transform"], _identities(spec))
                 if sections["transform"][lhs].substitute(
                     slow=inverse[:spec.m], fast=inverse[spec.m:]) != ident]
    return failures
