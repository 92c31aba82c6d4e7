#!/usr/bin/env python3
"""Benchmark of snf: four workloads over its derivation and Monte Carlo layers.

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload report --seed 0 --seconds 10 --trace 0

``--workload all`` runs the four workloads one process each.  ``--smoke``
runs one reduced-size traced round of a workload with the correctness checks
and no timing.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric under its name with its unit, the time of every timed
call, the digests of emitted reports and the seeded Monte Carlo statistics.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("report", "certify", "ensemble", "pathwise")
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB", "round_s": "s",
    "part1_s": "s", "part2_s": "s", "part3_s": "s",
}
SPAN_TIMES = {       # per-layer metric -> span whose inclusive time it is
    "noise.conv_s": "noise.conv",
    "noise.ibp_normalize_s": "noise.ibp_normalize",
    "homological.solve_s": "homological.solve",
    "engine.compute_residual_s": "engine.compute_residual",
    "engine.construct_s": "engine.construct",
    "engine.verify_order_s": "engine.verify_order",
    "series.mul_s": "series.mul",
    "series.substitute_s": "series.substitute",
    "series.time_derivative_s": "series.time_derivative",
    "analysis.revert_s": "analysis.revert",
    "analysis.ssm_s": "analysis.ssm",
    "analysis.expected_s": "analysis.expected",
    "render.render_series_s": "render.render_series",
    "render.parse_series_s": "render.parse_series",
    "report.parse_report_s": "report.parse_report",
    "mc.warmup_s": "mc.warmup",
    "mc.filter_step_s": "mc.filter_step",
    "mc.rates_s": "mc.rates",
    "paths.generate_s": "paths.generate",
    "paths.sample_s": "paths.sample",
    "paths.integrate_s": "paths.integrate",
    "bands.band_component_s": "bands.band_component",
    "bands.quad_resonant_s": "bands.quad_resonant",
    "hopf.simulate_dvdp_s": "hopf.simulate_dvdp",
    "hopf.simulate_amplitude_s": "hopf.simulate_amplitude",
    "hopf.mathieu_s": "hopf.mathieu",
}
SPAN_CALLS = {       # per-layer metric -> span whose calls it counts
    "noise.conv_calls": "noise.conv",
    "noise.ibp_normalize_calls": "noise.ibp_normalize",
    "homological.solve_calls": "homological.solve",
    "engine.sweeps": "engine.sweep",
    "series.mul_calls": "series.mul",
    "series.substitute_calls": "series.substitute",
    "mc.warmup_steps": "mc.warmup",
    "mc.horizon_steps": "mc.filter_step",
}
COUNTS = ("engine.nf_terms", "series.mul_pairs", "analysis.revert_sweeps",
          "analysis.revert_terms", "report.bytes")
NS_PER_REP_STEP = tuple(f"mc.{m}.ns_per_rep_step.R{R}"
                        for m in ("full", "reduced") for R in (64, 512, 4096))


def per_layer_units():
    units = {m: "s" for m in SPAN_TIMES}
    units.update({m: "count" for m in SPAN_CALLS})
    units.update({m: "count" for m in COUNTS})
    units["report.bytes"] = "bytes"
    units.update({"sysfile.load_s": "s", "mc.compile_s": "s",
                  "report.emit_self_s": "s", "mc.filters": "count",
                  "mc.useful_step_ratio": "ratio", "trace.overhead_pct": "%"})
    units.update({m: "ns" for m in NS_PER_REP_STEP})
    return units


def machine_facts() -> str:
    import numpy
    import scipy
    sha = "unknown"
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        sha = ((ROOT / ".git" / ref[5:]).read_text().strip()
               if ref.startswith("ref: ") else ref)
    except OSError:
        pass
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} git={sha}")


def set_up(clk, name: str, seed: int, smoke: bool = False, tracer=None):
    """Import snf and build the workload's inputs; returns (workload, seconds)."""
    t0 = clk.now()
    sys.path.insert(0, str(SRC))
    import workloads
    if tracer is not None:
        from tracing import instrument
        instrument(tracer)
        tracer.enabled = True
    wl = workloads.WORKLOADS[name](seed, smoke)
    return wl, clk.now() - t0


def setup_samples(name: str, seed: int, first: float) -> list:
    """Set-up times of fresh processes, so that import is part of set-up."""
    out = [first]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def one_round(clk, wl, cl, first: bool, tracer=None):
    """Run a round and its checks; returns (Parts, attempted, failed)."""
    from workloads import Parts
    gc.collect()             # every round starts from a collected heap
    parts = Parts(clk.now)
    attempted = wl.round(parts)
    failed = 0
    if tracer is not None:
        tracer.enabled = False
    if hasattr(wl, "known_fault"):
        attempted += 1
        failed += wl.known_fault()
    wl.check(cl, first)
    return parts, attempted, failed


def typical(samples, log: str) -> dict:
    """Median over the run's rounds of each operation's time."""
    return {label: statistics.median(getattr(p, log)[label] for p in samples)
            for label in samples[0].log}


def layer_metrics(tracer, setup_summary, rounds, ns, untraced_s, traced_s):
    summ = tracer.summary()
    per = lambda v: v / rounds
    out = {m: per(summ[s]["incl_s"]) for m, s in SPAN_TIMES.items()}
    out.update({m: per(summ[s]["calls"]) for m, s in SPAN_CALLS.items()})
    out.update({m: per(tracer.counts.get(m, 0)) for m in COUNTS})
    out["report.emit_self_s"] = per(summ["report.emit"]["self_s"])
    out["sysfile.load_s"] = setup_summary["sysfile.load"]["incl_s"]
    out["mc.compile_s"] = setup_summary["mc.compile"]["incl_s"]
    out["mc.filters"] = sum(tracer.banks.values())
    steps = out["mc.warmup_steps"] + out["mc.horizon_steps"]
    out["mc.useful_step_ratio"] = out["mc.horizon_steps"] / steps if steps else 0.0
    out.update({m: ns.get(m, 0.0) for m in NS_PER_REP_STEP})
    out["trace.overhead_pct"] = 100.0 * (statistics.median(traced_s)
                                         / statistics.median(untraced_s) - 1)
    return out


def run(clk, args) -> int:
    from tracing import Tracer
    tracer = Tracer(clk.now) if args.trace else None
    wl, first_setup = set_up(clk, args.workload, args.seed, tracer=tracer)
    print(f"# snf benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {machine_facts()}")
    for k, what in enumerate(wl.parts):
        print(f"# part{k + 1}_s = {what}")

    from workloads import CheckList
    cl = CheckList()
    if tracer is not None:
        setup_summary = tracer.summary()
        tracer.reset()
        # untraced and traced rounds alternate, so that both see the same
        # host; the untraced ones give the overhead and ns/rep/step
        samples, ns, traced_s, attempted, failed = [], [], [], 0, 0
        deadline = time.perf_counter() + args.seconds
        while True:
            tracer.enabled = False
            parts, a, f = one_round(clk, wl, cl, not samples, tracer)
            samples.append(parts)
            if hasattr(wl, "ns_per_rep_step"):
                ns.append(wl.ns_per_rep_step())
            tracer.enabled = True
            traced, a2, f2 = one_round(clk, wl, cl, False, tracer)
            traced_s.append(sum(traced.log.values()))
            attempted, failed = attempted + a + a2, failed + f + f2
            if time.perf_counter() >= deadline:
                break
        ns = {m: statistics.median(d[m] for d in ns) for m in ns[0]} if ns else {}
        untraced_s = [sum(p.log.values()) for p in samples]
        values = layer_metrics(tracer, setup_summary, len(traced_s), ns,
                               untraced_s, traced_s)
        units = per_layer_units()
    else:
        setups = setup_samples(args.workload, args.seed, first_setup)
        samples, attempted, failed = [], 0, 0
        deadline = time.perf_counter() + args.seconds
        while True:
            parts, a, f = one_round(clk, wl, cl, not samples)
            samples.append(parts)
            attempted, failed = attempted + a, failed + f
            if time.perf_counter() >= deadline:
                break
        part, wall_part = [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        for label, secs in typical(samples, "log").items():
            part[samples[0].part_of[label]] += secs
        for label, secs in typical(samples, "wall").items():
            wall_part[samples[0].part_of[label]] += secs
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "round_s": sum(part),
            "part1_s": part[0], "part2_s": part[1], "part3_s": part[2],
        }
        print(f"# rounds={len(samples)} setup samples="
              + ",".join(f"{s:.4f}" for s in setups))
        for name, v in wl.named(part).items():
            unit = "1/s" if name.endswith("_per_s") else "s"
            print(f"metric {args.workload}.{name} {v:.6g} {unit}")
        # the same medians in wall time, beside the corrected metrics
        print(f"wall round_s {sum(wall_part):.6g} s")
        for k, v in enumerate(wall_part):
            print(f"wall part{k + 1}_s {v:.6g} s")
        units = END_TO_END
    wall = typical(samples, "wall")
    for label, secs in typical(samples, "log").items():
        print(f"time {label} {secs:.6f} s (wall {wall[label]:.6f} s)")
    for line in wl.report_lines():
        print(line)
    for problem in cl.failures:
        print(f"CHECK FAILED: {problem}")
    for name in units:
        print(f"metric {name} {values[name]:.6g} {units[name]}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    print(json.dumps({"correct": not cl.failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; prints their lines, then one merged
    result whose metric names carry the workload as a prefix."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for metric, v in res["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(merged))
    return 0


def run_smoke(clk, args) -> int:
    """One reduced-size traced round of one workload, checks on, no timing."""
    from tracing import Tracer
    tracer = Tracer(clk.now)
    wl, _ = set_up(clk, args.workload, args.seed, smoke=True, tracer=tracer)
    from workloads import CheckList
    cl = CheckList()
    _parts, attempted, failed = one_round(clk, wl, cl, True, tracer)
    touched = sorted(n for n, rec in tracer.summary().items() if rec["calls"])
    print(f"# smoke {args.workload}: spans " + ", ".join(touched))
    for problem in cl.failures:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"correct": not cl.failures, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one reduced-size traced round, checks on, no timing")
    p.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be a non-negative integer")
    if not (SRC / "snf" / "__init__.py").is_file():
        print(f"error: no snf sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    clk = HostClock()
    clk.start()
    try:
        if args.setup_sample:
            print(f"{set_up(clk, args.workload, args.seed)[1]:.9f}")
            return 0
        return run_smoke(clk, args) if args.smoke else run(clk, args)
    finally:
        clk.stop()


if __name__ == "__main__":
    sys.exit(main())
