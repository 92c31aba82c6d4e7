"""Command-line pipeline: derive / verify / simulate / compare / hopf.

Exit codes: 0 success, 2 parse, configuration or file error, 3
certification, analysis or noise-calculus failure, 4 tolerance failure or
diverged replicates.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional

from . import engine
from .analysis import (AnalysisError, long_time_model, noise_free_part,
                       ssm_parametrisation)
from .noise import NoiseError
from .render import threshold
from .report import ReportError, emit_report, verify_report
from .sysfile import SysFileError, load_system, system_as_written
from .systems import CompileError, Policy

EXIT_OK, EXIT_PARSE, EXIT_CERT, EXIT_TOL = 0, 2, 3, 4
# the value of every parameter that no --param gives
DEFAULT_PARAM = 1.0


def _policy(args, sf) -> Policy:
    """The policy of ``--policy`` and ``--mu-min``, each defaulting to the
    system file's."""
    mu_min = sf.mu_min
    if args.mu_min is not None:
        try:
            mu_min = threshold(args.mu_min)
        except ValueError as exc:
            raise SysFileError(f"--mu-min: {exc}")
    return Policy(anticipation=((args.policy or sf.policy) == "anticipate"),
                  mu_min=mu_min)


def _read(path: str) -> str:
    """The text of a file named on the command line, which must be UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise SysFileError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")


def _write(path: Optional[str], text: str) -> None:
    """``text`` into the ``--out`` file ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(args):
    spec, sf = load_system(_read(args.system), label=os.path.basename(args.system))
    if args.order is not None:
        if args.order < 1:
            raise SysFileError(f"--order: must be at least 1, got {args.order}")
        spec = spec.with_trunc(replace(spec.trunc, total=args.order))
    return spec, sf


def _finite(text: str) -> float:
    """A finite number: the argparse type of every float option, and the
    check of every ``--param`` value."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _params(pairs: List[str], spec) -> Dict[str, float]:
    out = {name: DEFAULT_PARAM for name in spec.param_names}
    for p in pairs or []:
        name, _, val = p.partition("=")
        if name not in spec.param_names:
            raise SysFileError(f"unknown parameter {name!r}")
        try:
            out[name] = _finite(val)
        except argparse.ArgumentTypeError as exc:
            raise SysFileError(f"--param {name}: {exc}")
    return out


def _seed_option(args) -> None:
    """Refuse a negative ``--seed``, which numpy's seeding rejects."""
    if args.seed < 0:
        raise SysFileError(f"--seed: need a non-negative integer, got {args.seed}")


def _checked(option: str, check):
    """What ``check()`` returns; a ValueError it raises is refused as a
    SysFileError naming ``option``."""
    try:
        return check()
    except ValueError as exc:
        raise SysFileError(f"{option}: {exc}") from None


def _horizon(args) -> int:
    """The steps of the ``--T`` horizon (``mc.horizon_steps``), refused in
    the one format of a horizon refusal, which names ``--T`` and ``--dt``."""
    from .mc import horizon_steps
    return _checked(f"--T {args.T:g} --dt {args.dt:g}", lambda: horizon_steps(args.T, args.dt))


def _run_options(args) -> List[float]:
    """Check the ensemble options of simulate and compare; the sample times."""
    from .mc import sample_steps
    _seed_option(args)
    _horizon(args)
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
    import numpy as np
    return np.errstate(over="ignore", invalid="ignore")


def _print_warm_up(dt: float, *models) -> None:
    """One comment line: the longest filter warm-up of ``models`` before
    t = 0, the cost a run pays beyond its horizon."""
    from .mc import warm_up
    t, steps = max(warm_up(m.bank, dt) for m in models)
    print(f"# warm-up: {t:g} time units ({steps} steps) before t = 0")


def _diverged(args, spec, *runs) -> bool:
    """Name on stderr, for each (result, model) run, how many replicates
    went non-finite and by which sample time; True when any did.  A note
    first names the parameters no ``--param`` gave: a noise amplitude
    silently left at 1 is the usual cause."""
    errors = []
    for res, model in runs:
        counts = res.diverged()
        if counts[-1]:
            t = res.times[(counts == counts[-1]).argmax()]
            errors.append(f"error: {counts[-1]} of {res.n_rep} {model} "
                          f"replicates diverged before t = {t:g}")
    if not errors:
        return False
    given = {p.partition("=")[0] for p in args.param or []}
    defaulted = [name for name in spec.param_names if name not in given]
    if defaulted:
        print(f"note: {', '.join(defaulted)} left at the default {DEFAULT_PARAM}; "
              f"give each with --param name=value", file=sys.stderr)
    print("\n".join(errors), file=sys.stderr)
    return True


def _construct(spec, sf, args):
    """The normal form, with each certification failure printed to stderr."""
    nf = engine.construct(spec, _policy(args, sf))
    for failure in nf.certification_failures():
        print(f"certification FAILED: {failure}", file=sys.stderr)
    return nf


def cmd_derive(args) -> int:
    spec, sf = _load(args)
    nf = _construct(spec, sf, args)
    _write(args.out, emit_report(nf))
    return EXIT_OK if nf.certified else EXIT_CERT


def cmd_verify(args) -> int:
    spec, _sf = _load(args)
    failures = verify_report(_read(args.report), spec)
    if not failures:
        print("certified: residual clears the truncation window")
        return EXIT_OK
    for failure in failures:
        print(f"certification FAILED: {failure}")
    return EXIT_CERT


def cmd_simulate(args) -> int:
    from .mc import compile_full_system, compile_slow_model, run_ensemble
    spec, sf = _load(args)
    params = _params(args.param, spec)
    times = _run_options(args)
    if args.model == "full":
        sde = compile_full_system(system_as_written(sf), params)
        x0 = [0.0] * (spec.m + spec.n) if args.x0 is None else args.x0
    else:
        nf = _construct(spec, sf, args)
        if not nf.certified:
            return EXIT_CERT
        if args.model == "longtime":
            sde = compile_slow_model(nf, params, long_time_model(nf))
        else:
            sde = compile_slow_model(nf, params)
        x0 = [0.0] * spec.m if args.x0 is None else args.x0
    if len(x0) != sde.dim:
        raise SysFileError(f"--x0: need {sde.dim} values, got {len(x0)}")
    _print_warm_up(args.dt, sde)
    with _quiet_overflow():
        res = run_ensemble(sde, x0, args.T, args.dt, args.replicates, args.seed, times)
    if _diverged(args, spec, (res, args.model)):
        return EXIT_TOL
    _write(args.out, res.summary_table())
    return EXIT_OK


def cmd_compare(args) -> int:
    import numpy as np
    from .mc import (compile_full_system, compile_observables, compile_series,
                     compile_slow_model, run_ensemble, sampleable_part)
    spec, sf = _load(args)
    params = _params(args.param, spec)
    times = _run_options(args)
    if args.tol_se <= 0:
        raise SysFileError(f"--tol-se: need a positive number of standard errors, "
                           f"got {args.tol_se:g}")
    nf = _construct(spec, sf, args)
    if not nf.certified:
        return EXIT_CERT
    full = compile_full_system(system_as_written(sf), params)
    chart = ssm_parametrisation(nf)
    x0_slow = [args.x0v] * spec.m
    # start the full system on the deterministic manifold image of x0
    y0 = compile_series(noise_free_part(chart.y_of_X), spec.fast_names,
                        lambda mono: tuple(mono[0]), params, spec.param_names,
                        spec.n_noise, var_names=spec.slow_names)
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
    _print_warm_up(args.dt, full, sde_r)
    with _quiet_overflow():
        res_f = run_ensemble(full, x0_full, args.T, args.dt, args.replicates,
                             args.seed, times)
        res_r = run_ensemble(sde_r, x0_slow, args.T, args.dt, args.replicates,
                             args.seed + 1, times, observables=obs)
    if _diverged(args, spec, (res_f, "full"), (res_r, "reduced")):
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


def _hopf_options(args) -> int:
    """Refuse hopf options whose numbers would mean nothing: the band
    half-width must lie in (0, 1), the frequency-2 band must stay below
    Nyquist, the record must resolve offsets within the resonant strip, and
    there must be a replicate.  The band lab's own rules (``snf.bands``) judge
    the half-width and the step that ``cmd_hopf`` hands it; then T must hold
    whole steps (``_horizon``), and the band lab judges their record.
    Returns the record's number of steps."""
    from .bands import check_half_width, check_record, check_step
    _checked("--delta", lambda: check_half_width(args.delta))
    _checked("--dt", lambda: check_step(args.dt, 2.0, args.delta))
    n = _horizon(args)
    _checked("--T", lambda: check_record(n * args.dt, args.delta))
    if args.replicates < 1:
        raise SysFileError(f"--replicates: need at least 1, got {args.replicates}")
    _seed_option(args)
    return n


def cmd_hopf(args) -> int:
    import numpy as np
    from .bands import band_component, quad_resonant_noise
    from .hopf import mathieu_growth
    n = _hopf_options(args)
    rng = np.random.default_rng(args.seed)
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
        _write(args.out, "replicate\tband0_var\tband2_var\tc_r\tc_i\n" + "".join(
            f"{rep}\t{v0:.10g}\t{v2:.10g}\t{cr:.10g}\t{ci:.10g}\n"
            for rep, v0, v2, cr, ci in rows))
    ok = abs(mg["full"] - mg["predicted"]) <= 0.1 * abs(mg["predicted"])
    return EXIT_OK if ok else EXIT_TOL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="snf", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(q, policy=True):
        q.add_argument("system", help="system description file")
        q.add_argument("--order", type=int, default=None)
        if policy:
            q.add_argument("--policy", choices=["anticipate", "no-anticipate"],
                           default=None)
            q.add_argument("--mu-min", dest="mu_min", default=None)

    d = sub.add_parser("derive", help="construct the normal form and report it")
    common(d)
    d.add_argument("--out")
    d.set_defaults(func=cmd_derive)

    v = sub.add_parser("verify", help="re-certify a saved report under the "
                                      "policy its header states")
    common(v, policy=False)
    v.add_argument("report")
    v.set_defaults(func=cmd_verify)

    def run_options(q, T, replicates, times=None):
        q.add_argument("--param", action="append", metavar="name=value")
        q.add_argument("--T", type=_finite, default=T)
        q.add_argument("--dt", type=_finite, default=1e-3)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--replicates", type=int, default=replicates)
        q.add_argument("--times", default=times)

    s = sub.add_parser("simulate", help="Monte Carlo of the full or reduced system")
    common(s)
    s.add_argument("--model", choices=["full", "reduced", "longtime"], default="full")
    run_options(s, 10.0, 100)
    s.add_argument("--x0", type=_finite, nargs="*")
    s.add_argument("--out")
    s.set_defaults(func=cmd_simulate)

    c = sub.add_parser("compare", help="full-vs-reduced ensemble statistics")
    common(c)
    run_options(c, 20.0, 200, "5,20")
    c.add_argument("--x0v", type=_finite, default=0.3)
    c.add_argument("--tol-se", dest="tol_se", type=_finite, default=3.0)
    c.set_defaults(func=cmd_compare)

    h = sub.add_parser("hopf", help="band noises, quadratic noise scales, Mathieu")
    h.add_argument("--delta", type=_finite, default=0.2)
    h.add_argument("--T", type=_finite, default=2000.0)
    h.add_argument("--dt", type=_finite, default=0.05)
    h.add_argument("--seed", type=int, default=0)
    h.add_argument("--replicates", type=int, default=8)
    h.add_argument("--beta", type=_finite, default=0.05)
    h.add_argument("--sigma", type=_finite, default=0.3)
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
    except OSError as exc:
        if exc.filename is None:
            raise
        # a file named on the command line that cannot be read or written
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
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
