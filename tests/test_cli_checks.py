"""`snf verify` refuses reports that decouple nothing or misstate their
header, `simulate` and `compare` refuse uncertified forms, and malformed
input exits 2 with a message instead of a traceback."""

import pytest

from conftest import bundled_text, make_system
from snf import noise
from snf.cli import EXIT_CERT, EXIT_OK, EXIT_PARSE, EXIT_TOL, main
from snf.engine import construct
from snf.mc import CompiledSDE, compile_full_system, run_ensemble
from snf.sysfile import load_system
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


def _verify(toy_path, tmp_path, text):
    p = tmp_path / "report.txt"
    p.write_text(text)
    return main(["verify", toy_path, "--order", "3", str(p)])


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
    ("mu_min: 0\n", "", "mu_min"),
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


def test_verify_reads_mu_min_from_the_header(toy_path, tmp_path, toy3_report,
                                             monkeypatch):
    import snf.cli as cli
    seen = []
    real = cli.rebuild_normal_form
    monkeypatch.setattr(cli, "rebuild_normal_form",
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
    ("eq y: -y + x^2 + s*phi1", "eq y: -y + x^1/2 + s*phi1"),
])
def test_malformed_system_file_exits_2_with_its_line(tmp_path, capsys, old, new):
    text = SYSTEM.replace(old, new)
    assert text != SYSTEM
    line = text.splitlines().index(new) + 1
    p = tmp_path / "bad.snf"
    p.write_text(text)
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


def test_cap_on_an_undeclared_parameter_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.snf"
    p.write_text(SYSTEM + "cap q 2\n")
    assert main(["derive", str(p)]) == EXIT_PARSE
    assert "undeclared parameter 'q'" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--param", "sigma=abc"], "--param sigma: bad number 'abc'"),
    (["derive", "--mu-min", "abc"], "--mu-min: bad rational 'abc'"),
    (["derive", "--mu-min", "1/0"], "--mu-min: bad rational '1/0'"),
])
def test_malformed_arguments_exit_2(toy_path, capsys, argv, message):
    rc = main([argv[0], toy_path, "--order", "2", *argv[1:]])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


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
])
def test_bad_ensemble_options_exit_2(toy_path, capsys, cmd, extra, message):
    rc = main([cmd, toy_path, "--order", "2", "--T", "0.1", "--dt", "0.01", *extra])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"


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
