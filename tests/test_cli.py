"""Report round-trip and the command-line pipeline (exit codes, artifacts)."""

import hashlib
import os
import re
from collections import Counter
from dataclasses import replace
import subprocess
import sys

import pytest

from conftest import bundled_text, make_system
from snf import render, report
from snf.analysis import AnalysisError, expected_series, revert, ssm_parametrisation
from snf.cli import EXIT_CERT, main
from snf.engine import construct, verify_order
from snf.render import ParseError, SeriesReader, parse_series, parse_series_for
from snf.report import (ReportError, emit_report, parse_report, rebuild_normal_form,
                        verify_report)
from snf.series import Series
from snf.systems import ALLOW, FORBID


@pytest.fixture(scope="module")
def toy_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("sys") / "toy.snf"
    p.write_text(bundled_text("toy.snf"))
    return str(p)


def test_report_roundtrip_exact():
    # every section parses back to exactly what emit_report wrote, and the
    # report re-certifies
    for name in ("linear.snf", "papavasiliou.snf", "toy.snf"):
        for policy in (ALLOW, FORBID):
            for order in (2, 3, 4):
                nf = construct(make_system(name, total=order), policy)
                spec, text = nf.spec, emit_report(nf)
                orig = spec.slow_names + spec.fast_names
                new = sum(report._new_names(spec), ())
                chart, rv = ssm_parametrisation(nf), revert(nf)
                ssm = chart.x_of_X + chart.y_of_X
                wrote = {
                    "transform": dict(zip(orig, nf.transform_x() + nf.transform_y())),
                    "evolution": dict(zip((f"d{n}/dt" for n in new), nf.xdot() + nf.ydot())),
                    "ssm": dict(zip(orig, ssm)),
                    "expected_ssm": {f"E[{n}]": expected_series(s).value
                                     for n, s in zip(orig, ssm)},
                    "reversion": dict(zip(new, rv.X_of_xy + rv.Y_of_xy)),
                }
                where = f"{name}@{order} {policy.label()}"
                assert parse_report(text, spec).sections == wrote, where
                assert verify_report(text, spec) == [], where


def test_report_byte_identical_across_runs():
    a = emit_report(construct(make_system("toy.snf", total=3), ALLOW))
    b = emit_report(construct(make_system("toy.snf", total=3), ALLOW))
    assert a == b


# sha256 of each emitted report: a change to the series algebra must keep
# the report bytes.
GOLDEN_DIGESTS = [
    ("toy.snf", 5, "b286ad5716d4776a7f96a54be2df04bb380f25da48bf4855b54f7cfb8f60b09d"),
    ("toy.snf", 6, "6df054f3a35b6770e4da8b85686814569f0e2b74bd6bc1530da2f4ce72243e7d"),
    ("toy.snf", 7, "1c443f29c213b83f1b160ab709919945182c3e97d020f8a2601f9960f97d6c64"),
    ("papavasiliou.snf", 3, "a938aa7fac03b7372ea83fa36efb5a4e6e5d92cad8ea84cf135832f56a9f0263"),
    ("papavasiliou.snf", 5, "83c2207559e77bb9a939e54c7a56afc0738ea04e9469f99d3966632737daf454"),
    ("linear.snf", 3, "33038a4a35583f7512a68f606cf73aac52303fe92e2c9952cb51569c365c978a"),
    ("papavasiliou.snf", 6, "91df8763800ed3e683dfbcd563841c2bb49b70903eb54dedc409e13a0e44bc5e"),
    ("toy.snf", 9, "22f90adf8af1800822c1f7f30a3209b880f542cc98b797d3f1cd08bac5a4e9f5"),
]


@pytest.mark.parametrize("name,order,digest", GOLDEN_DIGESTS)
def test_report_matches_golden_digest(name, order, digest):
    text = emit_report(construct(make_system(name, total=order), ALLOW))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_parse_report_runs_no_series_algebra(toy5, monkeypatch):
    # each line parses into plain term dicts and is packed once; a product,
    # sum or accumulation of Series per factor or term would show here
    text = emit_report(toy5)
    calls = []
    for name in ("_product", "_combine", "plus"):
        def counted(*args, _name=name, _fn=getattr(Series, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(Series, name, counted)
    parse_report(text, toy5.spec)
    assert calls == []


def _report_lines(text, spec):
    """{(section, lhs): (line number, right-hand side, names)} of a report."""
    names = {section: names for section, _lhss, names in report._layout(spec)}
    out, section = {}, None
    for lineno, raw in enumerate(text.splitlines(), 1):
        if raw.startswith("  "):
            lhs, _, rhs = raw.strip().partition(" = ")
            out[(section, lhs)] = (lineno, rhs, names[section])
        elif raw.endswith(":"):
            section = raw[:-1]
    return out


def _each_line_alone(text, spec):
    return {key: parse_series(rhs, spec.dims, spec.trunc, names)
            for key, (_ln, rhs, names) in _report_lines(text, spec).items()}


def test_report_lines_with_repeated_spans_parse_as_each_line_alone(toy5):
    # parse_report reads each distinct noise text, here a repeated
    # Z[mu]{ ... }, once; every line still packs what parse_series packs
    # from that line alone
    spec, text = toy5.spec, emit_report(toy5)
    span = "Z[-1]{ phi[0] }"
    assert sum(span in rhs for _ln, rhs, _n in _report_lines(text, spec).values()) > 1
    sections = parse_report(text, spec).sections
    for (section, lhs), want in _each_line_alone(text, spec).items():
        got = sections[section][lhs]
        assert got == want and (got._num, got._den) == (want._num, want._den), lhs


def _pieces(rhs):
    """The monomial and noise texts of the terms of one written line."""
    out = []
    for term in re.split(r" [+-] ", rhs.removeprefix("-")):
        body = re.sub(r"^\d+(/\d+)?(\*|$)", "", term)
        at = re.search(r"phi\[|Z\[", body)
        out += [body] if at is None else [body[:at.start()].removesuffix("*"),
                                          body[at.start():]]
    return [piece for piece in out if piece]


@pytest.mark.parametrize("system", ["toy5", "pk3", "toy3_noanticipate"])
def test_each_distinct_piece_reaches_the_descent_once_per_name_triple(
        system, request, monkeypatch):
    # parse_report reads each distinct monomial text and noise text of a
    # name triple through _Parser once, and no line whole
    nf = request.getfixturevalue(system)
    spec, text = nf.spec, emit_report(nf)
    parsed = []

    class Counted(render._Parser):
        def __init__(self, piece, reader):
            parsed.append((tuple(reader.symbols), piece))
            super().__init__(piece, reader)

    monkeypatch.setattr(render, "_Parser", Counted)
    parse_report(text, spec)
    want = {(tuple(n for group in names for n in group), piece)
            for _ln, rhs, names in _report_lines(text, spec).values()
            for piece in _pieces(rhs)}
    assert Counter(parsed).most_common(1)[0][1] == 1
    assert set(parsed) == want


def test_reports_parsed_one_after_another_each_give_their_own(toy5, pk3, toy3_noanticipate):
    # the readers' memos live for one parse_report call: a report parsed
    # after another (other dims, other truncation or the same names) reads
    # alone
    for nf in (toy5, pk3, toy3_noanticipate, toy5):
        spec, text = nf.spec, emit_report(nf)
        sections = parse_report(text, spec).sections
        assert {(section, lhs): s for section, lines in sections.items()
                for lhs, s in lines.items()} == _each_line_alone(text, spec)


def test_a_variable_inside_a_convolution_is_refused_at_every_occurrence(toy5):
    # a refused piece is never stored, so a line that repeats it is refused
    # with the same message as the first
    spec = toy5.spec
    names = (("X",), ("Y",), spec.param_names)
    text = "phi[0]*Z[-1]{ X*phi[0] } + sigma*Z[-1]{ X*phi[0] }"
    message = f"variable 'X' inside a convolution in {text!r}"
    reader = SeriesReader(spec.dims, names)
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            parse_series(text, spec.dims, spec.trunc, names, _reader=reader)
        assert str(exc.value) == message
    assert not [piece for piece in reader.pieces if "Z[" in piece]
    # in a report, once the lines before it have filled the memo
    report_text = emit_report(toy5)
    (ln, rhs, _n), = [v for (section, lhs), v in _report_lines(report_text, spec).items()
                      if (section, lhs) == ("ssm", "y")]
    bad = f"{rhs} + Z[-1]{{ X*phi[0] }}"
    report_text = report_text.replace(f"  y = {rhs}\n", f"  y = {bad}\n")
    with pytest.raises(ReportError) as exc:
        parse_report(report_text, spec)
    assert str(exc.value) == (f"report line {ln}: variable 'X' inside a convolution "
                              f"in {bad!r}")


def test_emit_report_refuses_a_chart_term_without_an_expectation(toy3):
    # no derived form has one: a hand-built transform term x*phi[0]^2 puts
    # the square of white noise on the slow-manifold chart
    nf = replace(toy3, xi=[toy3.xi[0] + parse_series_for("x*phi[0]^2", toy3.spec)])
    with pytest.raises(AnalysisError, match=r"^no stationary expectation of "
                       r"phi\[0\]\^2 in chart line 'x = \.\.\.'$"):
        emit_report(nf)


def test_rebuilt_normal_form_recertifies(toy3):
    rep = parse_report(emit_report(toy3), toy3.spec)
    nf2 = rebuild_normal_form(rep, toy3.spec, toy3.policy)
    assert verify_order(toy3.spec, nf2) is None


def test_rebuilt_normal_form_emits_the_report_it_was_read_from(toy3):
    # certified is read off the form, so the rebuilt one says yes too
    text = emit_report(toy3)
    nf2 = rebuild_normal_form(parse_report(text, toy3.spec), toy3.spec, toy3.policy)
    assert emit_report(nf2) == text


def test_cli_derive_and_verify(toy_path, tmp_path):
    out = str(tmp_path / "report.txt")
    assert main(["derive", toy_path, "--order", "3", "--out", out]) == 0
    assert os.path.exists(out)
    assert main(["verify", toy_path, "--order", "3", out]) == 0


def test_cli_verify_detects_corruption(toy_path, tmp_path):
    out = str(tmp_path / "report.txt")
    main(["derive", toy_path, "--order", "3", "--out", out])
    text = open(out).read()
    bad = text.replace("2*sigma^2*X*phi[0]", "3*sigma^2*X*phi[0]")
    assert bad != text
    bad_path = str(tmp_path / "bad.txt")
    open(bad_path, "w").write(bad)
    assert main(["verify", toy_path, "--order", "3", bad_path]) == 3


def test_cli_papavasiliou_order4_derives_and_verifies(tmp_path):
    p = tmp_path / "pk.snf"
    p.write_text(bundled_text("papavasiliou.snf"))
    out = str(tmp_path / "report.txt")
    assert main(["derive", str(p), "--order", "4", "--out", out]) == 0
    assert "certified: yes\n" in open(out).read()
    assert main(["verify", str(p), "--order", "4", out]) == 0


def test_cli_papavasiliou_order5_no_anticipate_derives_and_verifies(tmp_path):
    # under grade_fast off the construction needs 12 sweeps at order 5
    p = tmp_path / "pk.snf"
    p.write_text(bundled_text("papavasiliou.snf"))
    out = str(tmp_path / "report.txt")
    assert main(["derive", str(p), "--order", "5", "--policy", "no-anticipate",
                 "--out", out]) == 0
    assert main(["verify", str(p), "--order", "5", out]) == 0


def test_cli_analysis_error_exit_code(toy_path, tmp_path, monkeypatch, capsys):
    def no_fixed_point(nf):
        raise AnalysisError("reversion did not reach a fixed point at grade 2")
    monkeypatch.setattr(report, "revert", no_fixed_point)
    out = str(tmp_path / "report.txt")
    assert main(["derive", toy_path, "--order", "3", "--out", out]) == EXIT_CERT
    assert capsys.readouterr().err == (
        "error: reversion did not reach a fixed point at grade 2\n")


def test_cli_parse_error_exit_code(tmp_path):
    p = tmp_path / "broken.snf"
    p.write_text("slow x\nfast y\nB -1\neq x: -x*q\neq y: x^2\n")
    assert main(["derive", str(p)]) == 2


def test_cli_simulate_table(toy_path, capsys):
    rc = main(["simulate", toy_path, "--order", "3", "--model", "reduced",
               "--param", "sigma=0.05", "--T", "1.0", "--dt", "0.01",
               "--replicates", "8", "--times", "0.5,1.0",
               "--x0", "0.3", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [l for l in out.strip().splitlines() if l]
    # the order-3 slow model's filters are linear in the noise: no warm-up
    assert lines[0] == "# warm-up: 0 time units (0 steps) before t = 0"
    assert lines[1].startswith("time\t")
    assert len(lines) == 4


def test_cli_simulate_rejects_zero_horizon(toy_path, capsys):
    rc = main(["simulate", toy_path, "--T", "0", "--param", "sigma=0.1"])
    assert rc == 2


def test_cli_simulate_longtime_model(capsys, tmp_path):
    p = tmp_path / "pk.snf"
    p.write_text(bundled_text("papavasiliou.snf"))
    rc = main(["simulate", str(p), "--model", "longtime",
               "--param", "eps=0.05", "--param", "sigma=1",
               "--T", "2.0", "--dt", "0.01", "--replicates", "8",
               "--x0", "0.1", "--seed", "2"])
    assert rc == 0
    assert "mean" in capsys.readouterr().out


def test_cli_compare_toy(toy_path, capsys):
    rc = main(["compare", toy_path, "--order", "3", "--param", "sigma=0.05",
               "--T", "5", "--dt", "0.002", "--times", "2,5",
               "--replicates", "96", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc in (0, 4)
    # the chart's filters of products start at their means: 5 time units
    assert out.splitlines()[0] == "# warm-up: 5 time units (2500 steps) before t = 0"
    assert "PASS" in out or "FAIL" in out


def test_cli_compare_tolerance_failure_exit_code(toy_path, capsys):
    rc = main(["compare", toy_path, "--order", "3", "--param", "sigma=0.05",
               "--T", "2", "--dt", "0.002", "--times", "2",
               "--replicates", "64", "--seed", "3", "--tol-se", "0.001"])
    capsys.readouterr()
    assert rc == 4


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "snf", "derive", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "usage: snf derive" in proc.stdout


def test_cli_import_leaves_out_the_monte_carlo_stack():
    # derive and verify simulate nothing; scipy.signal alone imports in ~1 s
    code = ("import sys, snf.cli; print([m for m in "
            "('snf.mc', 'snf.paths', 'scipy.signal', 'numpy') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _fresh(code: str) -> str:
    """The last line ``code`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_monte_carlo_modules_leave_out_scipy_signal():
    # only a path sample's first run_filter call imports it
    assert _fresh("import sys, snf.mc, snf.paths, snf.hopf, snf.bands; "
                  "print('scipy.signal' in sys.modules)") == "False"


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "reduced"],
    ["compare", "--param", "sigma=0.05", "--times", "0.1"],
])
def test_ensemble_commands_leave_out_scipy_signal(toy_path, argv):
    run = [argv[0], toy_path, *argv[1:], "--order", "3", "--T", "0.1",
           "--dt", "0.01", "--replicates", "8"]
    assert _fresh(f"import sys, snf.cli; rc = snf.cli.main({run!r}); "
                  f"print(rc, 'scipy.signal' in sys.modules)") == "0 False"


def test_run_filter_imports_lfilter_at_its_first_call():
    code = """
import sys
import numpy as np
from snf.mc import run_filter
x = np.random.default_rng(5).standard_normal((3, 400))
before = 'scipy.signal' in sys.modules
y = run_filter(0.97, x, y0=np.array([0.5, -1.0, 2.0]))
from scipy.signal import lfilter
want = lfilter([1.0], [1.0, -0.97], x, axis=-1,
               zi=(0.97 * np.array([0.5, -1.0, 2.0]))[:, None])[0]
print(before, 'scipy.signal' in sys.modules, y.tobytes() == want.tobytes())
"""
    assert _fresh(code) == "False True True"


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "snf.cli", "hopf",
                           "--T", "200", "--replicates", "1"],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 4)
    assert "mathieu growth" in proc.stdout
