"""The benchmark's workloads still run, pass their checks and reach the snf
functions its tracing wraps (no timing is asserted)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

ENGINE_SPANS = ("engine.construct", "engine.sweep", "engine.compute_residual",
                "engine.verify_order")
SPANS = {
    "certify": ENGINE_SPANS,
    "report": ENGINE_SPANS + ("analysis.revert", "report.emit", "report.parse_report"),
    "ensemble": ("mc.run_ensemble", "mc.rates", "mc.warmup", "mc.filter_step"),
    "pathwise": ("hopf.simulate_dvdp", "hopf.simulate_amplitude", "hopf.mathieu",
                 "bands.band_component", "bands.quad_resonant", "paths.generate",
                 "paths.sample", "paths.integrate"),
}


@pytest.mark.parametrize("workload", sorted(SPANS))
def test_benchmark_smoke_round(workload):
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
         "--workload", workload],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    prefix = f"# smoke {workload}: spans "
    spans = next(line for line in lines if line.startswith(prefix))
    touched = set(spans[len(prefix):].split(", "))
    for name in SPANS[workload]:
        assert name in touched, (name, spans)
