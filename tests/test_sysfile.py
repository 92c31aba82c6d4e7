"""System-file parsing: declarations, equations, rescaling, and rejection."""

from fractions import Fraction

import pytest

from conftest import bundled_text
from snf.render import parse_series_for
from snf.sysfile import SysFileError, load_system

F = Fraction


def test_toy_file():
    spec, sf = load_system(bundled_text("toy.snf"), label="toy")
    assert spec.slow_names == ("x",) and spec.fast_names == ("y",)
    assert spec.B_diag == (F(-1),)
    assert spec.trunc.total == 5 and spec.trunc.param_caps == (2,)
    assert spec.f[0] == parse_series_for("-x*y", spec)
    assert spec.g[0] == parse_series_for("x^2 - 2*y^2 + sigma*phi[0]", spec)


def test_a_power_then_a_division_loads():
    # x^2/4 is x^2 divided by 4, as x^2 / 4 and 1/4*x^2 are
    toy = bundled_text("toy.snf")
    spec, _sf = load_system(toy.replace("+ x^2 -", "+ x^2/4 -"))
    assert spec.g[0] == parse_series_for("1/4*x^2 - 2*y^2 + sigma*phi[0]", spec)
    spaced, _sf = load_system(toy.replace("+ x^2 -", "+ x^2 / 4 -"))
    assert spaced.g[0] == spec.g[0]


def test_linear_file_allows_bare_noise_forcing():
    spec, _sf = load_system(bundled_text("linear.snf"))
    assert spec.g[0] == parse_series_for("phi[0]", spec)


def test_rescale_produces_fast_time_system():
    spec, sf = load_system(bundled_text("papavasiliou.snf"))
    assert sf.rescale == "eps" and sf.noise_scale == "sigma"
    assert not spec.trunc.count_fast
    # dx/dt = -eps (y + y^2); dy/dt = -y + x + sigma phi
    assert spec.f[0] == parse_series_for("-eps*(y + y^2)", spec)
    assert spec.g[0] == parse_series_for("x + sigma*phi[0]", spec)


def test_rejects_positive_fast_rate():
    text = bundled_text("toy.snf").replace("B -1", "B 1")
    with pytest.raises(SysFileError, match="negative"):
        load_system(text)


def test_rejects_nontriangular_A():
    text = """
slow x u
fast y
param s
A 0 0
A 1 0
B -1
eq x: -x*y
eq u: u*y*0
eq y: x^2 + s*phi1
"""
    with pytest.raises(SysFileError, match="triangular"):
        load_system(text)


def test_rejects_constant_forcing():
    text = bundled_text("toy.snf").replace("eq y: -y", "eq y: 1/2 - y")
    with pytest.raises(SysFileError, match="constant"):
        load_system(text)


def test_rejects_linear_term_belonging_to_B():
    text = bundled_text("toy.snf").replace("eq y: -y + x^2", "eq y: -2*y + x^2")
    with pytest.raises(SysFileError, match="belongs in B"):
        load_system(text)


def test_rejects_bare_fast_coupling_in_slow_equation():
    text = bundled_text("toy.snf").replace("eq x: -x*y", "eq x: y - x*y")
    with pytest.raises(SysFileError, match="small parameter"):
        load_system(text)


def test_unknown_symbol_reports_line():
    text = bundled_text("toy.snf").replace("-x*y", "-x*q")
    with pytest.raises(SysFileError, match="unknown symbol 'q'"):
        load_system(text)


def test_bad_rational_reports_line():
    with pytest.raises(SysFileError, match="line"):
        load_system("slow x\nfast y\nparam s\nB -1/0x\neq x: -x*y\neq y: x^2")


def test_missing_equation():
    with pytest.raises(SysFileError, match="missing equation"):
        load_system("slow x\nfast y\nparam s\nB -1\neq x: -s*x*y")


def test_division_requires_rescale():
    text = "slow x\nfast y\nparam e\nB -1\neq x: -(1/e)*x*y\neq y: x^2"
    with pytest.raises(SysFileError, match="rescale"):
        load_system(text)


def test_unknown_declaration():
    with pytest.raises(SysFileError, match="unknown declaration"):
        load_system("slots x\n")


def test_policy_and_mu_min_declarations():
    text = bundled_text("toy.snf") + "\npolicy no-anticipate\nmu_min 1/8\n"
    _spec, sf = load_system(text)
    assert sf.policy == "no-anticipate"
    assert sf.mu_min == F(1, 8)


def test_equation_error_reports_its_line():
    # toy.snf's "eq y" is on line 13; a bad symbol there must say so
    text = bundled_text("toy.snf").replace("sigma*phi1", "bogus")
    lines = text.splitlines()
    ln = next(k for k, line in enumerate(lines, start=1) if line.startswith("eq y"))
    assert ln == 13
    with pytest.raises(SysFileError, match=f"line {ln}: unknown symbol 'bogus'"):
        load_system(text)


def test_with_trunc_leaves_the_original_system():
    from snf.series import Trunc
    spec, _sf = load_system(bundled_text("toy.snf"))
    low = spec.with_trunc(Trunc(1, spec.trunc.param_caps, spec.trunc.count_fast))
    assert low.trunc.total == 1 and spec.trunc.total == 5
    assert all(s.trunc is low.trunc for s in low.f + low.g)
    # only the grade-1 forcing sigma*phi survives; the original keeps all
    assert low.f[0].is_zero()
    assert low.g[0] == parse_series_for("sigma*phi[0]", low)
    assert spec.g[0] == parse_series_for("x^2 - 2*y^2 + sigma*phi[0]", spec)
