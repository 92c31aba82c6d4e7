"""`snf verify` refuses reports that decouple nothing or misstate their
header, `simulate` and `compare` refuse uncertified forms, and malformed
input exits 2 with a message instead of a traceback."""

import pytest

from conftest import bundled_text, make_system
from snf import noise
from snf.cli import EXIT_CERT, EXIT_OK, EXIT_PARSE, EXIT_TOL, main
from snf.engine import construct
from snf.mc import CompiledSDE, compile_full_system, run_ensemble
from snf.sysfile import load_system, system_as_written
from snf.systems import Policy


@pytest.fixture(scope="module")
def toy_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("sys") / "toy.snf"
    p.write_text(bundled_text("toy.snf"))
    return str(p)


@pytest.fixture(scope="module")
def toy3_report(toy_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("rep") / "report.txt"
    assert main(["derive", toy_path, "--order", "3", "--out", str(out)]) == EXIT_OK
    return out.read_text()


def _verify(toy_path, tmp_path, text, order=3):
    p = tmp_path / "report.txt"
    p.write_text(text)
    return main(["verify", toy_path, "--order", str(order), str(p)])


IDENTITY_REPORT = """normal-form report
system: toy.snf
policy: anticipate
mu_min: 0
order: 3
param_caps: sigma<=2
grade_fast: on
certified: yes
transform:
  x = X
  y = Y
evolution:
  dX/dt = -X*Y
  dY/dt = -Y + X^2 - 2*Y^2 + sigma*phi[0]
ssm:
  x = X
  y = 0
expected_ssm:
  E[x] = X
  E[y] = 0
reversion:
  X = x
  Y = y
"""


def test_verify_accepts_the_derived_report(toy_path, tmp_path, toy3_report, capsys):
    assert _verify(toy_path, tmp_path, toy3_report) == EXIT_OK
    assert capsys.readouterr().out == "certified: residual clears the truncation window\n"


def test_verify_rejects_the_identity_transform(toy_path, tmp_path, capsys):
    # The residual of the identity with the original equations is zero, but
    # the fast evolution still carries X^2 and sigma*phi: nothing decoupled.
    assert _verify(toy_path, tmp_path, IDENTITY_REPORT) == EXIT_CERT
    out = capsys.readouterr().out
    assert "residual" not in out
    assert "certification FAILED: fast evolution 0 has a fast-variable-free term" in out


def test_verify_rejects_a_header_order_above_the_system(toy_path, tmp_path,
                                                       toy3_report, capsys):
    bad = toy3_report.replace("order: 3\n", "order: 9\n")
    assert bad != toy3_report
    assert _verify(toy_path, tmp_path, bad) == EXIT_CERT
    assert "report header order: '9', system '3'" in capsys.readouterr().out


@pytest.mark.parametrize("old,new,what", [
    ("param_caps: sigma<=2\n", "param_caps: none\n", "param_caps"),
    ("grade_fast: on\n", "grade_fast: off\n", "grade_fast"),
    ("policy: anticipate\n", "policy: sometimes\n", "policy"),
    ("mu_min: 0\n", "mu_min: 1/0\n", "mu_min"),
    # a decimal is not a rational, as in a system file and --mu-min
    ("mu_min: 0\n", "mu_min: 0.5\n", "mu_min"),
    ("mu_min: 0\n", "", "mu_min"),
    # a threshold is not negative, as in a system file and --mu-min
    ("mu_min: 0\n", "mu_min: -1\n", "mu_min"),
])
def test_verify_rejects_other_header_faults(toy_path, tmp_path, toy3_report,
                                            capsys, old, new, what):
    bad = toy3_report.replace(old, new)
    assert bad != toy3_report
    assert _verify(toy_path, tmp_path, bad) == EXIT_CERT
    assert f"header {what}" in capsys.readouterr().out


def test_verify_rejects_anticipation_under_a_no_anticipate_header(
        toy_path, tmp_path, toy3_report, capsys):
    assert "Z[+1]" in toy3_report
    bad = toy3_report.replace("policy: anticipate\n", "policy: no-anticipate\n")
    assert _verify(toy_path, tmp_path, bad) == EXIT_CERT
    assert "anticipation produced under the no-anticipate policy" in capsys.readouterr().out


@pytest.mark.parametrize("option,value", [("--policy", "no-anticipate"),
                                          ("--mu-min", "abc")])
def test_verify_refuses_the_policy_options(toy_path, tmp_path, toy3_report,
                                           capsys, option, value):
    # the policy is the report header's; an option that would be ignored is
    # refused by argparse, naming it
    p = tmp_path / "report.txt"
    p.write_text(toy3_report)
    with pytest.raises(SystemExit) as exc:
        main(["verify", toy_path, str(p), "--order", "3", option, value])
    assert exc.value.code == EXIT_PARSE
    assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


def test_verify_reads_mu_min_from_the_header(toy_path, tmp_path, toy3_report,
                                             monkeypatch):
    import snf.report as report
    seen = []
    real = report.rebuild_normal_form
    monkeypatch.setattr(report, "rebuild_normal_form",
                        lambda rep, spec, policy: seen.append(policy) or real(rep, spec, policy))
    text = toy3_report.replace("mu_min: 0\n", "mu_min: 1/8\n")
    assert _verify(toy_path, tmp_path, text) == EXIT_OK
    assert seen[0].anticipation and str(seen[0].mu_min) == "1/8"


# -- malformed input --------------------------------------------------------

SYSTEM = """slow x
fast y
param s
noise 1
A 0
B -1
order 3
eq x: -s*x*y
eq y: -y + x^2 + s*phi1
"""


@pytest.mark.parametrize("old,new", [
    ("order 3", "order abc"),
    ("noise 1", "noise two"),
    ("order 3", "cap s"),
    ("B -1", "B 1/0"),
    ("order 3", "mu_min 1/0"),
    ("eq x: -s*x*y", "eq x: -s*x*y/0"),
    ("eq y: -y + x^2 + s*phi1", "eq y: -y + x^(1/2) + s*phi1"),
    # a name declared twice, within one part or across two
    ("fast y", "fast y y"),
    ("param s", "param s x"),
    ("noise 1", "slow s"),
    # out-of-range values
    ("order 3", "order 0"),
    ("noise 1", "noise 0"),
    ("order 3", "cap s -1"),
    ("order 3", "grade_fast of"),
    ("eq y: -y + x^2 + s*phi1", "eq y: -y + x^2 + s*phi1\neq s: 5*x^2"),
    # a declaration made twice; the error names the second line
    ("eq y: -y + x^2 + s*phi1", "eq y: -y + x^2 + s*phi1\neq x: 5*x^2"),
    ("order 3", "order 3\norder 4"),
    ("order 3", "noise 2"),
    ("order 3", "cap s 2\ncap s 3"),
    ("order 3", "grade_fast off\ngrade_fast on"),
    ("order 3", "policy anticipate\npolicy no-anticipate"),
    ("order 3", "mu_min 0\nmu_min 1/8"),
    ("order 3", "rescale s\nrescale s"),
    ("order 3", "noise_scale s\nnoise_scale s"),
    # equations the reader refuses
    ("eq x: -s*x*y", "eq x: -s*x*y/(x + y)"),
    ("eq x: -s*x*y", "eq x: -s*x*y/phi1"),
    ("eq x: -s*x*y", "eq x: -x*y/s"),
    ("eq x: -s*x*y", "eq x: -sqrt(s)*x*y"),
    ("eq y: -y + x^2 + s*phi1", "eq y: -y + x^2 + s*phi2"),
    ("eq y: -y + x^2 + s*phi1", "eq y: -y + x^2^1 + s*phi1"),
    # terms the rescale t -> tau/s cannot bring to whole powers of s
    ("eq y: -y + x^2 + s*phi1", "rescale s\neq y: -y/s + x^2/s + s*phi1"),
    ("eq y: -y + x^2 + s*phi1", "rescale s\neq y: -y/s + x^2/s^2 + phi1/sqrt(s)"),
    # a parameter nobody declared
    ("order 3", "rescale q"),
    ("order 3", "noise_scale q"),
    ("order 3", "cap q 2"),
    # a linear part of the wrong shape
    ("A 0", "A 0 1"),
    ("B -1", "B -1 -2"),
    # a right-hand side SystemSpec.validate refuses: the error names its eq line
    ("eq y: -y + x^2 + s*phi1", "eq y: -y + x^2 + s*phi1 + 1"),
    ("eq y: -y + x^2 + s*phi1", "eq y: -2*y + x^2 + s*phi1"),
])
def test_malformed_system_file_exits_2_with_its_line(tmp_path, capsys, old, new):
    text = SYSTEM.replace(old, new)
    assert text != SYSTEM
    # the last line of ``new`` is the one at fault
    line = text.splitlines().index(new.splitlines()[0]) + len(new.splitlines())
    p = tmp_path / "bad.snf"
    p.write_text(text)
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("old,new,message", [
    ("order 3", "rescale q", "line 7: rescale names undeclared parameter 'q'"),
    ("order 3", "noise_scale q", "line 7: noise_scale names undeclared parameter 'q'"),
    ("eq x: -s*x*y", "eq x: -s*x*y + 1/2",
     "line 8: slow rhs 0: constant term shifts the equilibrium"),
    ("eq y: -y + x^2 + s*phi1", "eq y: -2*y + x^2 + s*phi1",
     "line 9: fast rhs 0: bare linear fast term belongs in B"),
    ("order 3", "cap q 2", "line 7: cap on undeclared parameter 'q'"),
    ("A 0", "A 0 1", "line 5: A must be an m x m block"),
    ("B -1", "B -1 -2", "line 6: B must list one rate per fast variable"),
    # rates or rows missing: the last B or A line
    ("fast y", "fast y z", "line 6: B must list one rate per fast variable"),
    ("slow x\nfast y\nparam s\nnoise 1\nA 0\n", "slow x w\nfast y\nparam s\nnoise 1\nA 0 1\n",
     "line 5: A must be an m x m block"),
    # a declared name the equations would read as a noise symbol: s*phi1
    # was the noise phi[0], and the parameter phi1 went unused
    ("param s", "param s phi1", "line 3: param 'phi1' would read as a noise symbol "
                                "in the equations"),
    ("fast y", "fast y phi2", "line 2: fast 'phi2' would read as a noise symbol "
                              "in the equations"),
    ("slow x", "slow x phi10", "line 1: slow 'phi10' would read as a noise symbol "
                               "in the equations"),
    # near-resonance tests abs(mu) < mu_min, so a negative threshold meant 0
    ("order 3", "mu_min -1", "line 7: negative threshold '-1'"),
])
def test_system_file_refusal_texts(tmp_path, capsys, old, new, message):
    p = tmp_path / "bad.snf"
    p.write_text(SYSTEM.replace(old, new))
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


GRADE_FAST_OFF = """slow x
fast y
param e
noise 1
A 0
B -1
order 3
grade_fast off
eq x: {slow}
eq y: -y + x^2 + e*phi1
"""


@pytest.mark.parametrize("slow,message", [
    # grade 1 in the truncation's grading: derive ran out its 12 sweeps
    # (exit 3, a 60-term residual dump)
    ("x*y", "fast-variable coupling x*y (grade 1 under grade_fast off)"),
    ("x*y^2 - e*x", "fast-variable coupling x*y^2 (grade 1 under grade_fast off)"),
    ("y^2", "fast-variable coupling y^2 (grade 0 under grade_fast off)"),
    ("y", "bare fast-variable coupling"),
])
def test_a_slow_coupling_linear_under_grade_fast_off_exits_2(tmp_path, capsys,
                                                             slow, message):
    p = tmp_path / "bad.snf"
    p.write_text(GRADE_FAST_OFF.format(slow=slow))
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: line 9: slow rhs 0: {message} has no slow time scale; "
        "weight it by a small parameter\n")


def test_a_coupling_weighted_by_a_parameter_passes_under_grade_fast_off(
        tmp_path, capsys):
    p = tmp_path / "ok.snf"
    p.write_text(GRADE_FAST_OFF.format(slow="e*x*y + x^2*y"))
    assert main(["derive", str(p)]) == EXIT_OK


GRADE_FAST_OFF_FAST = """slow x
fast y
param e
noise 1
A 0
B -1
order 3
grade_fast off
eq x: e*x*y
eq y: -y + {fast} + x^2 + e*phi1
"""


@pytest.mark.parametrize("fast,term", [
    # grade 0 in the truncation's grading: derive ran past 30 s
    ("y^2", "y^2"),
    ("2*y^3", "y^3"),
])
def test_a_fast_term_of_grade_0_under_grade_fast_off_exits_2(tmp_path, capsys,
                                                             fast, term):
    p = tmp_path / "bad.snf"
    p.write_text(GRADE_FAST_OFF_FAST.format(fast=fast))
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: line 10: fast rhs 0: fast-variable term {term} (grade 0 under "
        "grade_fast off) is not small; weight it by a small parameter\n")


@pytest.mark.parametrize("fast", ["x*y", "e*y^2"])
def test_a_fast_term_of_grade_1_passes_under_grade_fast_off(tmp_path, capsys, fast):
    p = tmp_path / "ok.snf"
    p.write_text(GRADE_FAST_OFF_FAST.format(fast=fast))
    out = tmp_path / "r.txt"
    assert main(["derive", str(p), "--out", str(out)]) == EXIT_OK
    assert main(["verify", str(p), str(out)]) == EXIT_OK


def test_cap_on_an_undeclared_parameter_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.snf"
    p.write_text(SYSTEM + "cap q 2\n")
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert "undeclared parameter 'q'" in capsys.readouterr().err


# -- files the command line names ----------------------------------------------

def test_a_missing_system_file_exits_2(tmp_path, capsys):
    # it was read as system text: "unknown declaration '<path>'"
    missing = tmp_path / "missing.snf"
    assert main(["derive", str(missing)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


def test_a_directory_as_the_system_file_exits_2(tmp_path, capsys):
    assert main(["derive", str(tmp_path)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"


def test_a_system_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    # it ended in a UnicodeDecodeError traceback (exit 1)
    p = tmp_path / "bad.snf"
    p.write_bytes(b"slow x\xff\n")
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert capsys.readouterr().err == (f"error: {p}: not UTF-8 text "
                                       "(invalid start byte at byte 6)\n")


def test_a_report_that_is_not_utf8_exits_2(toy_path, tmp_path, toy3_report, capsys):
    p = tmp_path / "report.txt"
    p.write_bytes(toy3_report.encode() + b"# \xc3\n")
    assert main(["verify", toy_path, "--order", "3", str(p)]) == EXIT_PARSE
    assert capsys.readouterr().err == (f"error: {p}: not UTF-8 text (invalid "
                                       f"continuation byte at byte {len(toy3_report) + 2})\n")


def test_a_missing_report_exits_2(toy_path, tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["verify", toy_path, str(missing)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


@pytest.mark.parametrize("argv", [
    ["derive", "--order", "2"],
    ["simulate", "--T", "0.01", "--dt", "0.01", "--replicates", "2"],
])
def test_an_out_file_in_a_missing_directory_exits_2(toy_path, tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.txt"
    assert main([argv[0], toy_path, *argv[1:], "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {out}: No such file or directory\n"


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--param", "sigma=abc"], "--param sigma: bad number 'abc'"),
    (["derive", "--mu-min", "abc"], "--mu-min: bad rational 'abc'"),
    (["derive", "--mu-min", "1/0"], "--mu-min: bad rational '1/0'"),
    (["derive", "--order", "0"], "--order: must be at least 1, got 0"),
    (["simulate", "--order", "0", "--model", "reduced"], "--order: must be at least 1, got 0"),
    # non-finite numbers used to end in a traceback (exit 1), a divergence
    # count, a FAIL against a nan threshold or nan growth rates (exit 4)
    (["simulate", "--T", "inf"], "argument --T: need a finite number, got 'inf'"),
    (["simulate", "--x0", "0.1", "inf"], "argument --x0: need a finite number, got 'inf'"),
    (["simulate", "--param", "sigma=nan", "--T", "0.01"],
     "--param sigma: need a finite number, got 'nan'"),
    (["compare", "--x0v", "nan"], "argument --x0v: need a finite number, got 'nan'"),
    (["compare", "--tol-se", "nan"], "argument --tol-se: need a finite number, got 'nan'"),
    (["compare", "--dt", "nan"], "argument --dt: need a finite number, got 'nan'"),
    (["hopf", "--T", "nan"], "argument --T: need a finite number, got 'nan'"),
    (["hopf", "--T", "inf"], "argument --T: need a finite number, got 'inf'"),
    (["hopf", "--beta", "nan"], "argument --beta: need a finite number, got 'nan'"),
    (["hopf", "--sigma", "inf"], "argument --sigma: need a finite number, got 'inf'"),
    (["hopf", "--delta", "nan"], "argument --delta: need a finite number, got 'nan'"),
    # a threshold no z can meet: every gate failed (exit 4)
    (["compare", "--tol-se", "0"], "--tol-se: need a positive number of standard errors, got 0"),
    (["compare", "--tol-se=-1"], "--tol-se: need a positive number of standard errors, got -1"),
    # a decimal is not a rational, as in a system file and a report header
    (["derive", "--mu-min", "0.5"], "--mu-min: bad rational '0.5'"),
    # a threshold is not negative, as in a system file and a report header
    (["derive", "--mu-min=-1"], "--mu-min: negative threshold '-1'"),
])
def test_malformed_arguments_exit_2(toy_path, capsys, argv, message):
    if argv[0] != "hopf":
        argv = [argv[0], toy_path, "--order", "2", *argv[1:]]
    try:
        rc = main(argv)
        assert capsys.readouterr().err == f"error: {message}\n"
    except SystemExit as exc:
        # argparse refuses an option value itself, after its usage line
        rc = exc.code
        assert capsys.readouterr().err.endswith(f"snf {argv[0]}: error: {message}\n")
    assert rc == EXIT_PARSE


@pytest.mark.parametrize("cmd,extra,message", [
    ("simulate", ["--replicates", "4", "--times=-0.5,0.1"],
     "--times -0.5,0.1: sample time -0.5 outside the horizon [0, 0.1]"),
    ("simulate", ["--replicates", "4", "--times", "0.05,0.2"],
     "--times 0.05,0.2: sample time 0.2 outside the horizon [0, 0.1]"),
    ("simulate", ["--replicates", "1"],
     "--replicates: spread statistics need at least 2, got 1"),
    ("compare", ["--replicates", "1", "--times", "0.1"],
     "--replicates: spread statistics need at least 2, got 1"),
    ("compare", ["--replicates", "4", "--times=-0.5"],
     "--times -0.5: sample time -0.5 outside the horizon [0, 0.1]"),
    # off the step grid: no longer rounded to the nearest step
    ("simulate", ["--replicates", "4", "--times", "0.05,0.055"],
     "--times 0.05,0.055: sample time 0.055 is not a whole number of steps of dt = 0.01"),
    ("compare", ["--replicates", "4", "--times", "0.025"],
     "--times 0.025: sample time 0.025 is not a whole number of steps of dt = 0.01"),
    ("simulate", ["--replicates", "4", "--T", "0.105", "--times", "0.1"],
     "--T 0.105 --dt 0.01: horizon 0.105 is not a whole number of steps of dt = 0.01"),
    ("compare", ["--replicates", "4", "--T", "0.095", "--times", "0.09"],
     "--T 0.095 --dt 0.01: horizon 0.095 is not a whole number of steps of dt = 0.01"),
    # numpy's seeding used to die on these with a traceback
    ("simulate", ["--replicates", "4", "--seed", "-3"],
     "--seed: need a non-negative integer, got -3"),
    ("compare", ["--replicates", "4", "--times", "0.1", "--seed", "-3"],
     "--seed: need a non-negative integer, got -3"),
    # an empty --x0 used to start the run at zero
    ("simulate", ["--replicates", "4", "--x0"], "--x0: need 2 values, got 0"),
    ("simulate", ["--replicates", "4", "--x0", "0.1"], "--x0: need 2 values, got 1"),
])
def test_bad_ensemble_options_exit_2(toy_path, capsys, cmd, extra, message):
    rc = main([cmd, toy_path, "--order", "2", "--T", "0.1", "--dt", "0.01", *extra])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("T,times,message", [
    ("1", "0.3", "--T 1 --dt 0.3: horizon 1 is not a whole number of steps of dt = 0.3"),
    ("0.9", "0.5,0.6",
     "--times 0.5,0.6: sample time 0.5 is not a whole number of steps of dt = 0.3"),
])
def test_simulate_refuses_times_off_the_step_grid(tmp_path, capsys, T, times, message):
    # rounding used to sample t = 0.5 and t = 0.6 both at step 2 (t = 0.6),
    # and to step a horizon of 1 as three steps, to t = 0.9
    p = tmp_path / "linear.snf"
    p.write_text(bundled_text("linear.snf"))
    rc = main(["simulate", str(p), "--model", "full", "--param", "eps=0.1",
               "--T", T, "--dt", "0.3", "--replicates", "4", "--times", times])
    assert rc == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("extra,option", [
    (["--delta", "1.5"], "--delta"),
    (["--delta", "0"], "--delta"),
    (["--replicates", "0"], "--replicates"),
    (["--dt", "0"], "--dt"),
    (["--T", "-5"], "--T"),
    # the resonant strip would hold only the zero offset: c_r = 0
    (["--T", "20"], "--T"),
    # the frequency-2 band would reach above Nyquist
    (["--dt", "1.5", "--T", "400"], "--dt"),
    (["--seed", "-3"], "--seed"),
])
def test_bad_hopf_options_exit_2(capsys, extra, option):
    assert main(["hopf", *extra]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option}: ")
    if option == "--seed":
        assert err == "error: --seed: need a non-negative integer, got -3\n"


@pytest.mark.parametrize("extra,message", [
    (["--delta", "0"], "--delta: the band half-width must lie in (0, 1), got 0"),
    (["--T", "20"], "--T: need T >= 2*pi/delta = 31.42, so that the resonant "
                    "strip holds more than the zero offset; got 20"),
    # T >= 2 pi / delta, but the record of round(T / dt) = 628 steps is
    # 31.4 long: its strip used to hold only the zero offset, c_r = 0
    (["--T", "31.42"], "--T: need T >= 2*pi/delta = 31.42, so that the resonant "
                       "strip holds more than the zero offset; got 31.4"),
])
def test_hopf_refuses_what_the_band_lab_refuses(capsys, extra, message):
    assert main(["hopf", *extra]) == EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


# -- the full model is the system as written ---------------------------------

def test_full_model_keeps_terms_outside_the_truncation_window(toy_path, capsys):
    # at order 1 the window drops -x*y, which moves x from 0.3
    rc = main(["simulate", toy_path, "--model", "full", "--order", "1",
               "--param", "sigma=0", "--x0", "0.3", "0.2", "--T", "2",
               "--times", "2", "--replicates", "2"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# warm-up: 0 time units (0 steps) before t = 0"
    row = lines[2].split("\t")
    assert row[:2] == ["2", "0.2409482166"]


def test_full_model_keeps_a_term_above_the_file_order(tmp_path, capsys):
    # dx = -x^3 dt from x = 1/2: x(1) = (1/2)/sqrt(3/2)
    p = tmp_path / "cubic.snf"
    p.write_text(BLOWUP.replace("order 3", "order 2").replace("eq x: x^3", "eq x: -x^3"))
    rc = main(["simulate", str(p), "--model", "full", "--param", "s=0",
               "--x0", "0.5", "0", "--T", "1", "--times", "1", "--replicates", "2"])
    assert rc == EXIT_OK
    x_mean = float(capsys.readouterr().out.splitlines()[2].split("\t")[1])
    assert abs(x_mean - 0.5 / 1.5 ** 0.5) < 1e-6


@pytest.mark.parametrize("name", ["toy.snf", "papavasiliou.snf", "linear.snf"])
def test_bundled_systems_lose_no_term_at_their_own_order(name):
    spec, sf = load_system(bundled_text(name))
    written = system_as_written(sf)
    assert ([list(s.terms.items()) for s in written.f + written.g]
            == [list(s.terms.items()) for s in spec.f + spec.g])


# -- derive certifies only a structurally clean form -------------------------

def test_derive_with_structural_failures_is_not_certified(toy_path, tmp_path, capsys):
    # mu_min above the fast rate: the near-resonant assignment leaves X^2 and
    # sigma in the fast evolution and anticipation in the slow one, though
    # the residual clears
    out = tmp_path / "report.txt"
    rc = main(["derive", toy_path, "--order", "3", "--mu-min", "2", "--out", str(out)])
    assert rc == EXIT_CERT
    header = out.read_text().split("transform:")[0]
    assert "certified: NO (fast evolution 0 has a fast-variable-free term" in header
    assert "slow evolution 0 anticipates the noise" in header
    err = capsys.readouterr().err
    assert "certification FAILED: fast evolution 0 has a fast-variable-free term" in err
    assert "residual" not in err
    # terms are named as rendered series, not internal tuples
    assert "certification FAILED: fast evolution 0 has a fast-variable-free term X^2\n" in err
    assert ("certification FAILED: slow evolution 0 anticipates the noise: "
            "phi[0]*Z[+1]{ phi[0] }\n") in err


# -- malformed reports --------------------------------------------------------

def test_verify_of_a_report_missing_a_transform_line_exits_2(
        toy_path, tmp_path, toy3_report, capsys):
    bad = "".join(line for line in toy3_report.splitlines(keepends=True)
                  if not line.startswith("  y = "))
    assert _verify(toy_path, tmp_path, bad) == EXIT_PARSE
    assert capsys.readouterr().err == "error: report has no transform line 'y = ...'\n"


def test_verify_of_a_report_missing_an_evolution_line_exits_2(
        toy_path, tmp_path, toy3_report, capsys):
    bad = "".join(line for line in toy3_report.splitlines(keepends=True)
                  if not line.startswith("  dX/dt = "))
    assert _verify(toy_path, tmp_path, bad) == EXIT_PARSE
    assert capsys.readouterr().err == "error: report has no evolution line 'dX/dt = ...'\n"


def test_verify_of_a_report_with_an_unknown_symbol_exits_2(
        toy_path, tmp_path, toy3_report, capsys):
    lines = toy3_report.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line.startswith("  dX/dt = "))
    lines[n] = lines[n].replace("dX/dt = ", "dX/dt = q*X + ")
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: report line {n + 1}: unknown symbol 'q'")


def test_verify_of_a_report_repeating_a_line_exits_2(
        toy_path, tmp_path, toy3_report, capsys):
    # the later line would silently replace the real one
    lines = toy3_report.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line.startswith("  dX/dt = "))
    lines.insert(n, "  dX/dt = X^2 + 7*X\n")
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err == (f"error: report line {n + 2}: 'dX/dt = ...' "
                                       f"repeats line {n + 1} in section evolution\n")


def test_verify_of_a_report_with_an_unknown_section_exits_2(
        toy_path, tmp_path, toy3_report, capsys):
    lines = toy3_report.splitlines(keepends=True)
    n = lines.index("reversion:\n")
    lines[n] = "bogus:\n"
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: report line {n + 1}: unknown section 'bogus'\n"


@pytest.mark.parametrize("section", ["transform", "evolution", "ssm", "expected_ssm",
                                     "reversion"])
def test_verify_of_a_report_missing_a_section_exits_2(
        toy_path, tmp_path, toy3_report, capsys, section):
    # the section's header and every line under it deleted
    lines = toy3_report.splitlines(keepends=True)
    start = lines.index(f"{section}:\n")
    end = next((i for i in range(start + 1, len(lines))
                if not lines[i].startswith("  ")), len(lines))
    assert end - start > 1
    del lines[start:end]
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: report has no '{section}:' section\n"


def test_verify_of_a_report_cut_after_its_reversion_header_exits_2(
        toy_path, tmp_path, toy3_report, capsys):
    # an empty section must not certify
    cut = toy3_report[:toy3_report.index("reversion:\n") + len("reversion:\n")]
    assert _verify(toy_path, tmp_path, cut) == EXIT_PARSE
    assert capsys.readouterr().err == "error: report has no reversion line 'X = ...'\n"


def test_verify_of_a_report_with_an_extra_line_exits_2(toy_path, tmp_path, toy3_report,
                                                      capsys):
    lines = toy3_report.splitlines(keepends=True)
    n = lines.index("ssm:\n")
    lines.insert(n + 1, "  z = X\n")
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err == (f"error: report line {n + 2}: 'z = ...' "
                                       f"is not a line of section ssm\n")


def test_verify_of_a_report_with_terms_after_the_unevaluable_marker_exits_2(
        toy_path, tmp_path, toy3_report, capsys):
    # nothing after the marker may be dropped unread
    lines = toy3_report.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line.startswith("  dX/dt = "))
    lines[n] = lines[n].rstrip("\n") + " (+ unevaluable terms) + 7*X^2\n"
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: report line {n + 1}: unexpected '('")


@pytest.mark.parametrize("lhs", ["x = ", "dX/dt = ", "y = ", "E[x] = ", "X = "],
                         ids=["transform", "evolution", "ssm", "expected_ssm",
                              "reversion"])
def test_verify_of_a_report_with_the_unevaluable_marker_outside_expected_ssm_exits_2(
        toy_path, tmp_path, toy3_report, capsys, lhs):
    # reports no longer carry the '(+ unevaluable terms)' marker, so a report
    # written with one is refused loudly in every section; the first line
    # with ``lhs`` is in the section the id names
    lines = toy3_report.splitlines(keepends=True)
    section = {"x = ": "transform:", "dX/dt = ": "evolution:", "y = ": "ssm:",
               "E[x] = ": "expected_ssm:", "X = ": "reversion:"}[lhs]
    start = lines.index(section + "\n")
    n = next(i for i in range(start, len(lines)) if lines[i].startswith("  " + lhs))
    lines[n] = lines[n].rstrip("\n") + " (+ unevaluable terms)\n"
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: report line {n + 1}: "
                                              "unexpected '('")


def test_verify_of_an_ssm_line_without_an_expectation_exits_3(toy_path, tmp_path,
                                                              toy3_report, capsys):
    # the square of white noise has no stationary expectation
    old = "  y = sigma*Z[-1]{ phi[0] } - 2*sigma^2"
    assert toy3_report.count(old) == 1
    text = toy3_report.replace(old, "  y = X*phi[0]^2 + sigma*Z[-1]{ phi[0] } - 2*sigma^2")
    assert _verify(toy_path, tmp_path, text) == EXIT_CERT
    assert capsys.readouterr().err == ("error: no stationary expectation of phi[0]^2 "
                                       "in chart line 'y = ...'\n")


def test_verify_of_a_report_with_a_bad_character_names_its_column(
        toy_path, tmp_path, toy3_report, capsys):
    lines = toy3_report.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line.startswith("  dX/dt = "))
    lines[n] = lines[n].replace("dX/dt = ", "dX/dt = X @ Y + ")
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err == (f"error: report line {n + 1}: bad character "
                                       "at column 3: '@'\n")


@pytest.mark.parametrize("old,new,failure", [
    ("  X = x - x*y ", "  X = x + 5*x*y ",
     "reversion lines do not invert transform line 'x = ...'"),
    ("  E[x] = X - 5/4*sigma^2*X\n", "  E[x] = 7*X\n",
     "expected_ssm line 'E[x] = ...' is not the expectation of ssm line 'x = ...'"),
    ("  y = sigma*Z[-1]{ phi[0] } - 2*sigma^2", "  y = sigma*Z[-1]{ phi[0] } + 2*sigma^2",
     "ssm line 'y = ...' is not the slow-manifold chart of the transform"),
], ids=["reversion", "expected_ssm", "ssm"])
def test_verify_rejects_a_derived_section_the_form_contradicts(
        toy_path, tmp_path, toy3_report, capsys, old, new, failure):
    # each edited line parses, so only the section checks can refuse it
    assert toy3_report.count(old) == 1
    assert _verify(toy_path, tmp_path, toy3_report.replace(old, new)) == EXIT_CERT
    out = capsys.readouterr().out
    assert f"certification FAILED: {failure}\n" in out
    assert "residual" not in out


@pytest.mark.parametrize("after,extra,message", [
    # the verdict would follow the second policy line
    ("policy: anticipate\n", "policy: no-anticipate\n", "header 'policy: ...' repeats line {}"),
    ("order: 3\n", "order: 3\n", "header 'order: ...' repeats line {}"),
    ("order: 3\n", "foo: bar\n", "unknown header key 'foo'"),
])
def test_verify_of_a_report_with_a_bad_header_line_exits_2(
        toy_path, tmp_path, toy3_report, capsys, after, extra, message):
    lines = toy3_report.splitlines(keepends=True)
    n = lines.index(after)
    lines.insert(n + 1, extra)
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    assert capsys.readouterr().err == (f"error: report line {n + 2}: "
                                       f"{message.format(n + 1)}\n")


@pytest.mark.parametrize("bad,message", [
    # a fractional exponent needs parentheses, which '^' does not take
    ("X^(3/2)", "unexpected '(' at token 2"),
    # one '^' per factor: X^2^3 would read as X^8 to some, (X^2)^3 to others
    ("X^2^3", "chained '^' needs parentheses"),
    ("phi[1/2]", "unexpected '/' at token 3"),
    ("Z[-1/0]{ phi[0] }", "zero denominator in 1/0"),
    ("1/0*X", "division only by non-zero rationals"),
    ("Z[0]{ phi[0] }", "convolution rate must be non-zero"),
    # a term the truncation would drop, a noise the system lacks, and a
    # variable under a kernel are refused, not dropped or moved out
    ("X^40", "term X^40 is outside the truncation window"),
    ("sigma*X*phi[3]", "noise index 3 is out of range for 1 noise(s)"),
    ("Z[-1]{ phi[2] }", "noise index 2 is out of range for 1 noise(s)"),
    ("sigma*X*phi [3]", "noise index 3 is out of range for 1 noise(s)"),
    ("Z[-1]{ X*phi[0] } - X*Z[-1]{ phi[0] }", "variable 'X' inside a convolution"),
])
def test_verify_of_a_report_with_a_malformed_number_exits_2(
        toy_path, tmp_path, toy3_report, capsys, bad, message):
    lines = toy3_report.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if line.startswith("  dX/dt = "))
    lines[n] = lines[n].replace("dX/dt = ", f"dX/dt = {bad} + ")
    assert _verify(toy_path, tmp_path, "".join(lines)) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: report line {n + 1}: {message} in ")


# -- simulate and compare run certified forms only ---------------------------

UNCERTIFIED = ["--order", "3", "--mu-min", "2", "--T", "0.1", "--dt", "0.01",
               "--replicates", "4", "--times", "0.1"]


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "reduced"],
    ["simulate", "--model", "longtime"],
    ["compare"],
])
def test_simulate_and_compare_refuse_an_uncertified_form(toy_path, capsys, argv):
    failures = construct(make_system("toy.snf", total=3),
                         Policy(anticipation=True, mu_min=2)).certification_failures()
    assert failures
    assert main([argv[0], toy_path, *argv[1:], *UNCERTIFIED]) == EXIT_CERT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "".join(f"certification FAILED: {f}\n" for f in failures)
    assert ("certification FAILED: fast evolution 0 has a fast-variable-free term "
            "sigma*phi[0]\n") in err


def test_a_slow_model_that_cannot_be_compiled_exits_3(toy_path, capsys):
    # certified under no-anticipate, but its slow evolution keeps Y
    rc = main(["simulate", toy_path, "--order", "3", "--policy", "no-anticipate",
               "--model", "reduced", "--T", "0.1", "--dt", "0.01", "--replicates", "4"])
    assert rc == EXIT_CERT
    assert capsys.readouterr().err == "error: slow model depends on fast variables\n"


def test_a_noise_calculus_failure_exits_3(toy_path, monkeypatch, capsys):
    monkeypatch.setattr(noise, "_IBP_DEPTH_LIMIT", 0)
    assert main(["derive", toy_path, "--order", "3"]) == EXIT_CERT
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: integration by parts did not terminate within 0 levels "
                   "at Z[-1]{ phi[0] }^2\n")


# -- diverging replicates are named, never averaged ---------------------------

BLOWUP = """slow x
fast y
param s
noise 1
A 0
B -1
order 3
eq x: x^3 + s*x*y
eq y: -y + s*phi1
"""


# Any numpy RuntimeWarning fails these: the error line alone names the
# divergence.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, errors", [
    (["simulate", "--model", "full", "--x0", "2", "0"],
     ["error: 4 of 4 full replicates diverged before t = 1\n"]),
    (["simulate", "--model", "full", "--x0", "2", "0", "--times", "0.05,0.5,1"],
     ["error: 4 of 4 full replicates diverged before t = 0.5\n"]),
    (["compare", "--x0v", "2", "--times", "0.5,1"],
     ["error: 4 of 4 full replicates diverged before t = 0.5\n",
      "error: 4 of 4 reduced replicates diverged before t = 0.5\n"]),
])
def test_diverged_replicates_exit_4(tmp_path, capsys, argv, errors):
    # dx = x^3 dt leaves every path from x = 2 to infinity by t = 1/8
    p = tmp_path / "blowup.snf"
    p.write_text(BLOWUP)
    rc = main([argv[0], str(p), *argv[1:], "--T", "1", "--dt", "0.01",
               "--replicates", "4"])
    assert rc == EXIT_TOL
    out, err = capsys.readouterr()
    assert "nan" not in out
    assert err.endswith("".join(errors))


NOTE_SIGMA = "note: sigma left at the default 1.0; give each with --param name=value\n"


@pytest.mark.parametrize("param,note", [([], NOTE_SIGMA), (["--param", "sigma=1"], "")],
                         ids=["defaulted", "given"])
def test_diverged_run_names_the_parameters_left_at_their_default(
        toy_path, capsys, param, note):
    # the toy at sigma = 1 loses 10 of 64 replicates by t = 1; a sigma given
    # as 1 is the user's choice and gets no note
    rc = main(["simulate", toy_path, "--model", "full", "--T", "1",
               "--replicates", "64", "--seed", "1", *param])
    assert rc == EXIT_TOL
    assert capsys.readouterr().err == (
        note + "error: 10 of 64 full replicates diverged before t = 1\n")


def test_diverged_compare_notes_the_defaults_once(tmp_path, capsys):
    p = tmp_path / "blowup.snf"
    p.write_text(BLOWUP)
    rc = main(["compare", str(p), "--x0v", "2", "--times", "0.5,1", "--T", "1",
               "--dt", "0.01", "--replicates", "4"])
    assert rc == EXIT_TOL
    assert capsys.readouterr().err == (
        "note: s left at the default 1.0; give each with --param name=value\n"
        "error: 4 of 4 full replicates diverged before t = 0.5\n"
        "error: 4 of 4 reduced replicates diverged before t = 0.5\n")


def test_direct_ensemble_keeps_numpy_overflow_warnings():
    # Only the CLI silences them; a library caller still sees the overflow.
    spec, _sf = load_system(BLOWUP)
    sde = compile_full_system(spec, {"s": 1.0})
    with pytest.warns(RuntimeWarning):
        res = run_ensemble(sde, [2.0, 0.0], 1.0, 0.01, 4, 0, [1.0])
    assert res.diverged()[-1] == 4


def test_diverged_ensemble_stops_stepping(tmp_path, capsys, monkeypatch):
    # Every replicate is non-finite by t = 1/8, so a horizon of 20 costs no
    # more rates evaluations than a horizon of 1.
    p = tmp_path / "blowup.snf"
    p.write_text(BLOWUP)
    rates = CompiledSDE.rates
    calls = []

    def counted(self, state, z):
        calls.append(state.shape)
        return rates(self, state, z)

    monkeypatch.setattr(CompiledSDE, "rates", counted)
    count = {}
    for T in ("1", "20"):
        calls.clear()
        rc = main(["simulate", str(p), "--model", "full", "--x0", "2", "0",
                   "--T", T, "--replicates", "4"])
        assert rc == EXIT_TOL
        err = capsys.readouterr().err
        assert err.endswith(f"error: 4 of 4 full replicates diverged before t = {T}\n")
        count[T] = len(calls)
    assert 0 < count["20"] <= count["1"], count
