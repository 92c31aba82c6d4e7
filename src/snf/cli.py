"""Command-line pipeline: derive / verify / simulate / compare / hopf.

Exit codes: 0 success, 2 parse or configuration error, 3 certification,
analysis or noise-calculus failure, 4 tolerance failure or diverged
replicates.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import Dict, List, Optional

import numpy as np

from . import engine
from .analysis import AnalysisError, long_time_model, ssm_parametrisation
from .mc import (CompileError, compile_full_system, compile_observables,
                 compile_series, compile_slow_model, run_ensemble, sample_steps,
                 sampleable_part)
from .noise import ONE, NoiseError
from .report import (ReportError, emit_report, header_policy, parse_report,
                     rebuild_normal_form, truncation_header)
from .series import Trunc
from .sysfile import SysFileError, load_system
from .systems import Policy

EXIT_OK, EXIT_PARSE, EXIT_CERT, EXIT_TOL = 0, 2, 3, 4


def _policy(args) -> Policy:
    try:
        mu_min = Fraction(args.mu_min)
    except (ValueError, ZeroDivisionError):
        raise SysFileError(f"--mu-min: bad rational {args.mu_min!r}")
    return Policy(anticipation=(args.policy == "anticipate"), mu_min=mu_min)


def _load(args):
    spec, sf = load_system(args.system)
    if args.order is not None:
        spec = spec.with_trunc(Trunc(args.order, spec.trunc.param_caps,
                                     spec.trunc.count_fast))
    if not hasattr(args, "policy") or args.policy is None:
        args.policy = sf.policy
    if args.mu_min is None:
        args.mu_min = str(sf.mu_min)
    return spec, sf


def _params(pairs: List[str], spec) -> Dict[str, float]:
    out = {name: 1.0 for name in spec.param_names}
    for p in pairs or []:
        name, _, val = p.partition("=")
        if name not in spec.param_names:
            raise SysFileError(f"unknown parameter {name!r}")
        try:
            out[name] = float(val)
        except ValueError:
            raise SysFileError(f"--param {name}: bad number {val!r}")
    return out


def _run_options(args) -> List[float]:
    """Check the ensemble options of simulate and compare; the sample times."""
    if args.T <= 0 or args.dt <= 0 or args.T < args.dt:
        raise SysFileError("need a positive horizon T >= dt")
    if args.replicates < 2:
        raise SysFileError(f"--replicates: spread statistics need at least 2, "
                           f"got {args.replicates}")
    text = args.times if args.times else str(args.T)
    try:
        times = [float(v) for v in text.split(",")]
        sample_steps(times, args.T, args.dt)
    except ValueError as exc:
        raise SysFileError(f"--times {text}: {exc}")
    return times


def _quiet_overflow():
    """numpy error state for CLI ensembles: a diverging replicate is named
    by ``_diverged``, not by a flood of overflow and NaN warnings."""
    return np.errstate(over="ignore", invalid="ignore")


def _diverged(res, model: str) -> bool:
    """Name on stderr how many replicates went non-finite, and by which
    sample time; True when any did."""
    counts = res.diverged()
    if not counts[-1]:
        return False
    t = res.times[np.argmax(counts == counts[-1])]
    print(f"error: {counts[-1]} of {res.n_rep} {model} replicates diverged "
          f"before t = {t:g}", file=sys.stderr)
    return True


def _construct(spec, args):
    """The normal form, with each certification failure printed to stderr."""
    nf = engine.construct(spec, _policy(args))
    for failure in nf.certification_failures():
        print(f"certification FAILED: {failure}", file=sys.stderr)
    return nf


def cmd_derive(args) -> int:
    spec, _sf = _load(args)
    nf = _construct(spec, args)
    text = emit_report(nf)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if nf.certified else EXIT_CERT


def cmd_verify(args) -> int:
    spec, _sf = _load(args)
    with open(args.report) as fh:
        text = fh.read()
    rep = parse_report(text, spec)
    # The header must state the truncation verify checks at, and a policy.
    failures = [f"report header {key}: {rep.header.get(key, '(missing)')!r}, "
                f"system {want!r}"
                for key, want in truncation_header(spec) if rep.header.get(key) != want]
    try:
        policy = header_policy(rep.header)
    except ValueError as exc:
        failures.append(str(exc))
    if not failures:
        nf = rebuild_normal_form(rep, spec, policy)
        nf.residual_grade = engine.verify_order(spec, nf)
        failures = nf.certification_failures()
    if not failures:
        print("certified: residual clears the truncation window")
        return EXIT_OK
    for failure in failures:
        print(f"certification FAILED: {failure}")
    return EXIT_CERT


def cmd_simulate(args) -> int:
    spec, _sf = _load(args)
    params = _params(args.param, spec)
    times = _run_options(args)
    if args.model == "full":
        sde = compile_full_system(spec, params)
        x0 = args.x0 or [0.0] * (spec.m + spec.n)
    else:
        nf = _construct(spec, args)
        if not nf.certified:
            return EXIT_CERT
        if args.model == "longtime":
            lt = long_time_model(nf)
            amps = {f.index: math.sqrt(float(f.intensity)) for f in lt.fresh}
            sde = compile_slow_model(nf, params, n_noise=spec.n_noise + len(lt.fresh),
                                     noise_amp=amps, F_override=lt.F)
        else:
            sde = compile_slow_model(nf, params)
        x0 = args.x0 or [0.0] * spec.m
    if len(x0) != sde.dim:
        raise SysFileError(f"--x0 needs {sde.dim} values")
    with _quiet_overflow():
        res = run_ensemble(sde, x0, args.T, args.dt, args.replicates, args.seed, times)
    if _diverged(res, args.model):
        return EXIT_TOL
    table = res.summary_table()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return EXIT_OK


def cmd_compare(args) -> int:
    spec, _sf = _load(args)
    params = _params(args.param, spec)
    times = _run_options(args)
    nf = _construct(spec, args)
    if not nf.certified:
        return EXIT_CERT
    full = compile_full_system(spec, params)
    chart = ssm_parametrisation(nf)
    x0_slow = [args.x0v] * spec.m
    # start the full system on the deterministic manifold image of x0
    det = [s.build_like({k: c for k, c in s.terms.items() if k[1] == ONE})
           for s in chart.y_of_X]
    y0 = compile_series(det, spec.fast_names, lambda mono: tuple(mono[0]),
                        params, spec.param_names, spec.n_noise)
    drift, _diff = y0.rates(np.full((spec.m, 1), args.x0v), np.empty((0, 1)))
    x0_full = x0_slow + drift[:, 0].tolist()
    sde_r = compile_slow_model(nf, params)
    chart_x = []
    for s in chart.x_of_X:
        part, dropped = sampleable_part(s)
        chart_x.append(part)
        if dropped:
            g = min(spec.trunc.grade_of(k[0]) for k, _ in dropped)
            print(f"# note: chart terms from grade {g} need pathwise "
                  f"noise products and are omitted from the observable")
    obs = compile_observables(chart_x, sde_r, params, spec.param_names,
                              lambda mono: tuple(mono[0]))
    with _quiet_overflow():
        res_f = run_ensemble(full, x0_full, args.T, args.dt, args.replicates,
                             args.seed, times)
        res_r = run_ensemble(sde_r, x0_slow, args.T, args.dt, args.replicates,
                             args.seed + 1, times, observables=obs)
    # both checked, so that each model's count is named
    if _diverged(res_f, "full") | _diverged(res_r, "reduced"):
        return EXIT_TOL
    ok = True
    print("time\tfull_mean\tred_mean\tmean_z\tfull_var\tred_var\tvar_z")
    for i, t in enumerate(times):
        dm = res_f.mean()[i, 0] - res_r.mean()[i, 0]
        se = math.hypot(res_f.stderr_mean()[i, 0], res_r.stderr_mean()[i, 0])
        dv = res_f.var()[i, 0] - res_r.var()[i, 0]
        sev = math.hypot(res_f.stderr_var()[i, 0], res_r.stderr_var()[i, 0])
        zm, zv = abs(dm) / se, abs(dv) / sev
        ok &= zm <= args.tol_se and zv <= args.tol_se
        print(f"{t:g}\t{res_f.mean()[i,0]:.6g}\t{res_r.mean()[i,0]:.6g}\t{zm:.2f}"
              f"\t{res_f.var()[i,0]:.6g}\t{res_r.var()[i,0]:.6g}\t{zv:.2f}")
    print("PASS" if ok else "FAIL", f"(threshold {args.tol_se} s.e.)")
    return EXIT_OK if ok else EXIT_TOL


def cmd_hopf(args) -> int:
    from .bands import band_component, quad_resonant_noise
    from .hopf import mathieu_growth
    rng = np.random.default_rng(args.seed)
    n = int(round(args.T / args.dt))
    rows = []
    for rep in range(args.replicates):
        w = rng.standard_normal(n) / math.sqrt(args.dt)
        v0 = band_component(w, args.dt, 0.0, args.delta).sample_variance()
        v2 = band_component(w, args.dt, 2.0, args.delta).sample_variance()
        q = quad_resonant_noise(w, args.dt, args.delta)
        rows.append((rep, v0, v2, q.c_r, q.c_i))
    arr = np.array([r[1:] for r in rows])
    print(f"band variance: E|phi0|^2 = {arr[:, 0].mean():.4f}   "
          f"E|phi2|^2 = {arr[:, 1].mean():.4f}")
    print(f"quadratic noise scales: c_r = {arr[:, 2].mean():.4f} "
          f"+- {arr[:, 2].std()/math.sqrt(len(rows)):.4f}   "
          f"c_i = {arr[:, 3].mean():.4f} +- {arr[:, 3].std()/math.sqrt(len(rows)):.4f}")
    mg = mathieu_growth(args.beta, args.sigma)
    print(f"mathieu growth: model {mg['model']:.5f}  full {mg['full']:.5f}  "
          f"predicted {mg['predicted']:.5f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("replicate\tband0_var\tband2_var\tc_r\tc_i\n")
            for rep, v0, v2, cr, ci in rows:
                fh.write(f"{rep}\t{v0:.10g}\t{v2:.10g}\t{cr:.10g}\t{ci:.10g}\n")
    ok = abs(mg["full"] - mg["predicted"]) <= 0.1 * abs(mg["predicted"])
    return EXIT_OK if ok else EXIT_TOL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="snf", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(q, system=True):
        if system:
            q.add_argument("system", help="system description file")
        q.add_argument("--order", type=int, default=None)
        q.add_argument("--policy", choices=["anticipate", "no-anticipate"],
                       default=None)
        q.add_argument("--mu-min", dest="mu_min", default=None)

    d = sub.add_parser("derive", help="construct the normal form and report it")
    common(d)
    d.add_argument("--out")
    d.set_defaults(func=cmd_derive)

    v = sub.add_parser("verify", help="re-certify a saved report")
    common(v)
    v.add_argument("report")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("simulate", help="Monte Carlo of the full or reduced system")
    common(s)
    s.add_argument("--model", choices=["full", "reduced", "longtime"], default="full")
    s.add_argument("--param", action="append", metavar="name=value")
    s.add_argument("--T", type=float, default=10.0)
    s.add_argument("--dt", type=float, default=1e-3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--replicates", type=int, default=100)
    s.add_argument("--times")
    s.add_argument("--x0", type=float, nargs="*")
    s.add_argument("--out")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compare", help="full-vs-reduced ensemble statistics")
    common(c)
    c.add_argument("--param", action="append", metavar="name=value")
    c.add_argument("--T", type=float, default=20.0)
    c.add_argument("--dt", type=float, default=1e-3)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--replicates", type=int, default=200)
    c.add_argument("--times", default="5,20")
    c.add_argument("--x0v", type=float, default=0.3)
    c.add_argument("--tol-se", dest="tol_se", type=float, default=3.0)
    c.set_defaults(func=cmd_compare)

    h = sub.add_parser("hopf", help="band noises, quadratic noise scales, Mathieu")
    h.add_argument("--delta", type=float, default=0.2)
    h.add_argument("--T", type=float, default=2000.0)
    h.add_argument("--dt", type=float, default=0.05)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--replicates", type=int, default=8)
    h.add_argument("--beta", type=float, default=0.05)
    h.add_argument("--sigma", type=float, default=0.3)
    h.add_argument("--out")
    h.set_defaults(func=cmd_hopf)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SysFileError, ReportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except engine.ConvergenceError as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        if exc.residual_dump:
            print(exc.residual_dump, file=sys.stderr)
        return EXIT_CERT
    except (AnalysisError, CompileError, NoiseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERT


if __name__ == "__main__":
    sys.exit(main())
