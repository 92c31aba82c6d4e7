"""Report round-trip and the command-line pipeline (exit codes, artifacts)."""

import hashlib
import os
import subprocess
import sys

import pytest

from conftest import bundled_text, make_system
from snf import report
from snf.analysis import AnalysisError
from snf.cli import EXIT_CERT, main
from snf.engine import construct, verify_order
from snf.report import emit_report, parse_report, rebuild_normal_form
from snf.systems import ALLOW


@pytest.fixture(scope="module")
def toy_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("sys") / "toy.snf"
    p.write_text(bundled_text("toy.snf"))
    return str(p)


def test_report_roundtrip_exact(toy3):
    rep_text = emit_report(toy3)
    rep = parse_report(rep_text, toy3.spec)
    slow_new = ("X",)
    assert rep.transform["x"] == toy3.transform_x()[0]
    assert rep.transform["y"] == toy3.transform_y()[0]
    assert rep.evolution["dX/dt"] == toy3.xdot()[0]
    assert rep.evolution["dY/dt"] == toy3.ydot()[0]
    assert rep.sections["ssm"]["x"].terms  # analyses present


def test_report_byte_identical_across_runs():
    a = emit_report(construct(make_system("toy.snf", total=3), ALLOW))
    b = emit_report(construct(make_system("toy.snf", total=3), ALLOW))
    assert a == b


# sha256 of each emitted report: a change to the series algebra must keep
# the report bytes.
GOLDEN_DIGESTS = [
    ("toy.snf", 5, "3c11ca0d4df875a466c4d019fdffaecfb967d029808e612426d31e3533328248"),
    ("toy.snf", 6, "d20154a59fc95d1305d5fccaf606d28bb72b20b7b9246d7d1edfe702aa0d7d9f"),
    ("toy.snf", 7, "47e2fe53b4bcefb34516baf6f40755b3398f13482420cd19ce32ffe8e9425151"),
    ("papavasiliou.snf", 3, "a938aa7fac03b7372ea83fa36efb5a4e6e5d92cad8ea84cf135832f56a9f0263"),
    ("linear.snf", 3, "33038a4a35583f7512a68f606cf73aac52303fe92e2c9952cb51569c365c978a"),
]


@pytest.mark.parametrize("name,order,digest", GOLDEN_DIGESTS)
def test_report_matches_golden_digest(name, order, digest):
    text = emit_report(construct(make_system(name, total=order), ALLOW))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_rebuilt_normal_form_recertifies(toy3):
    rep = parse_report(emit_report(toy3), toy3.spec)
    nf2 = rebuild_normal_form(rep, toy3.spec, toy3.policy)
    assert verify_order(toy3.spec, nf2) is None


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
    assert lines[0].startswith("time\t")
    assert len(lines) == 3


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


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "snf.cli", "hopf",
                           "--T", "200", "--replicates", "1"],
                          capture_output=True, text=True)
    assert proc.returncode in (0, 4)
    assert "mathieu growth" in proc.stdout
