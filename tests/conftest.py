"""Shared fixtures: bundled systems at configurable truncation, and the
acceptance-criterion reporting hook."""

import importlib.resources as ir
import os
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

from snf.series import Trunc
from snf.sysfile import load_system

# pytest puts src/ on sys.path (pyproject.toml); the tests that start
# `python -m snf` in a subprocess need it on PYTHONPATH as well.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

CRITERIA = []


def record_criterion(num, label, passed, detail=""):
    CRITERIA.append((num, label, passed, detail))
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} - {label}"
          + (f": {detail}" if detail else ""))


def _criterion_key(entry):
    num = str(entry[0])
    digits = "".join(ch for ch in num if ch.isdigit())
    return (int(digits) if digits else 99, num)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERIA:
        terminalreporter.section("acceptance criteria")
        for num, label, ok, detail in sorted(CRITERIA, key=_criterion_key):
            terminalreporter.write_line(
                f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {label}"
                + (f": {detail}" if detail else ""))


def bundled_text(name: str) -> str:
    return (ir.files("snf") / "_systems" / name).read_text()


def make_system(name: str, total=None, caps=None):
    spec, sf = load_system(bundled_text(name), label=name)
    if total is not None or caps is not None:
        t = spec.trunc
        spec = spec.with_trunc(Trunc(total if total is not None else t.total,
                                     caps if caps is not None else t.param_caps,
                                     t.count_fast))
    return spec


@pytest.fixture(scope="session")
def toy3():
    from snf.engine import construct
    from snf.systems import ALLOW
    return construct(make_system("toy.snf", total=3, caps=(None,)), ALLOW)


@pytest.fixture(scope="session")
def toy5():
    from snf.engine import construct
    from snf.systems import ALLOW
    return construct(make_system("toy.snf", total=5, caps=(2,)), ALLOW)


@pytest.fixture(scope="session")
def toy3_noanticipate():
    from snf.engine import construct
    from snf.systems import FORBID
    return construct(make_system("toy.snf", total=3, caps=(2,)), FORBID)


@pytest.fixture(scope="session")
def pk3():
    from snf.engine import construct
    from snf.systems import ALLOW
    return construct(make_system("papavasiliou.snf"), ALLOW)


@pytest.fixture(scope="session")
def linear3():
    from snf.engine import construct
    from snf.systems import ALLOW
    return construct(make_system("linear.snf"), ALLOW)
