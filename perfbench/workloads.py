"""The four benchmark workloads.

Each workload has a set-up (`__init__`), a round of timed operations
(`round`), and correctness checks on the round's outputs (`check`).  A
round's time is split into three parts; the parts are disjoint and sum to
the round.  Checks are not timed and are not traced.

Inputs come from the bundled systems and from `--seed`; snf receives only
the generated inputs.  Every call into snf goes through its module
attribute (``engine.construct``, not a name imported here), so the tracing
wrappers see it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Dict, List

import numpy as np

from snf import (analysis, bands, engine, hopf, mc, noise, paths, render,
                 report, series, sysfile, systems)


def load(name: str, order: int = None):
    """A bundled system, optionally at another truncation order (the same
    override as ``snf --order``)."""
    from importlib.resources import files
    text = (files("snf") / "_systems" / f"{name}.snf").read_text()
    spec, _sf = sysfile.load_system(text, label=f"{name}.snf")
    if order is not None and order != spec.trunc.total:
        t = spec.trunc
        spec.trunc = series.Trunc(order, t.param_caps, t.count_fast)
        spec.f = [s.with_trunc(spec.trunc) for s in spec.f]
        spec.g = [s.with_trunc(spec.trunc) for s in spec.g]
    return spec


class Parts:
    """Time of one round, per labelled operation and per part.  ``now`` is
    the corrected clock (see clock.py); wall time is kept beside it."""

    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.log: Dict[str, float] = {}
        self.wall: Dict[str, float] = {}
        self.part_of: Dict[str, int] = {}

    @contextmanager
    def timing(self, k: int, label: str):
        w0, t0 = time.perf_counter(), self.now()
        try:
            yield
        finally:
            self.log[label] = self.log.get(label, 0.0) + self.now() - t0
            self.wall[label] = self.wall.get(label, 0.0) + time.perf_counter() - w0
            self.part_of[label] = k


class CheckList:
    def __init__(self):
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _z(diff: float, se: float) -> float:
    return abs(diff) / se if se > 0 else (0.0 if diff == 0 else math.inf)


# --------------------------------------------------------------- report

# Hand-derived evolution of the toy system at order 5 (sigma^2 cap) and the
# two-scale model of the papavasiliou system at order 3.
TOY5_XDOT = """-x^3 - sigma*x*phi[0] + 2*sigma^2*x*phi[0]*Z[-1]{ phi[0] }
    - 4*sigma^2*x^3*phi[0]*Z[-1]{ Z[-1]{ phi[0] } }"""
TOY5_YDOT = """-(1 + 2*x^2 + 4*x^4)*y - 4*sigma*(1 + x^2)*y*phi[0]
    + 8*sigma^2*y*phi[0]*Z[-1]{ phi[0] }
    + 4*sigma^2*x^2*y*phi[0]*(3*Z[-1]{ phi[0] } - Z[+1]{ phi[0] }
                              - 2*Z[-1]{ Z[-1]{ phi[0] } })"""
PK3_XDOT = """-eps*(x + eps*x + x^2) - eps*sigma*(1 + 2*eps + 2*x)*phi[0]
    - eps*sigma^2*phi[0]*Z[-1]{ phi[0] }"""
PK3_YDOT = """y*((-1 + eps + eps^2 + 2*eps^3) + (2*eps + 4*eps^2)*x
    + sigma*(2*eps + 6*eps^2)*phi[0])"""
PK3_LONGTIME = """-eps*(1/2*sigma^2 + x + eps*x + x^2)
    - eps*sigma*(1 + 2*eps + 2*x)*phi[0] - eps*sigma^2*phi[1]"""


class ReportWorkload:
    """``snf derive`` then ``snf verify`` on the bundled systems."""

    parts = ("construct", "emit_report", "parse_report + rebuild + verify_order")
    SYSTEMS = (("toy", 5), ("toy", 6), ("papavasiliou", 3), ("linear", 3))
    SMOKE_SYSTEMS = (("toy", 3), ("papavasiliou", 3), ("linear", 3))
    KNOWN_FAULT = ("papavasiliou", 4)

    def __init__(self, seed: int, smoke: bool = False):
        systems_ = self.SMOKE_SYSTEMS if smoke else self.SYSTEMS
        self.specs = [(f"{n}@{o}", load(n, o)) for n, o in systems_]
        self.fault_spec = load(*self.KNOWN_FAULT)
        self.digests: Dict[str, str] = {}
        self.out = []

    def round(self, parts: Parts):
        self.out = []
        for label, spec in self.specs:
            with parts.timing(0, f"{label} construct"):
                nf = engine.construct(spec, systems.ALLOW)
            with parts.timing(1, f"{label} emit_report"):
                text = report.emit_report(nf)
            with parts.timing(2, f"{label} parse_report+rebuild"):
                rep = report.parse_report(text, spec)
                policy = systems.Policy(
                    anticipation=rep.header.get("policy") == "anticipate")
                nf2 = report.rebuild_normal_form(rep, spec, policy)
            with parts.timing(2, f"{label} verify_order"):
                worst = engine.verify_order(spec, nf2)
            self.out.append((label, spec, nf, text, rep, nf2, worst))
        # derive + verify per system
        return 2 * len(self.specs)

    def known_fault(self) -> bool:
        """papavasiliou at order 4: `revert` stops after order + 4 sweeps,
        too few under ``grade_fast off``.  True when it fails as known."""
        nf = engine.construct(self.fault_spec, systems.ALLOW)
        try:
            report.emit_report(nf)
        except analysis.AnalysisError:
            return True
        return False

    def check(self, cl: CheckList, first: bool) -> None:
        for label, spec, nf, text, rep, nf2, worst in self.out:
            cl.expect(nf.certified and nf.residual_grade is None,
                      f"{label}: not certified")
            cl.expect(not nf.check_structure(), f"{label}: check_structure")
            cl.expect(worst is None, f"{label}: saved report does not re-certify")
            digest = hashlib.sha256(text.encode()).hexdigest()
            cl.expect(self.digests.setdefault(label, digest) == digest,
                      f"{label}: report differs between rounds")
            if not first:
                continue
            S = lambda t: render.parse_series_for(t, spec)
            if label == "toy@5":
                cl.expect(nf.xdot()[0] == S(TOY5_XDOT), "toy@5: dX/dt")
                cl.expect(nf.ydot()[0] == S(TOY5_YDOT), "toy@5: dY/dt")
            if label == "papavasiliou@3":
                cl.expect(nf.xdot()[0] == S(PK3_XDOT), "papavasiliou@3: dX/dt")
                cl.expect(nf.ydot()[0] == S(PK3_YDOT), "papavasiliou@3: dY/dt")
                lt = analysis.long_time_model(nf)
                cl.expect(lt.F[0] == S(PK3_LONGTIME) and len(lt.fresh) == 1
                          and lt.fresh[0].intensity == Fraction(1, 2)
                          and not lt.leftovers, "papavasiliou@3: long-time model")
            # The reversion read back from the report inverts the transform.
            slow_new, fast_new = report._new_names(spec)
            X = [rep.sections["reversion"][n] for n in slow_new]
            Y = [rep.sections["reversion"][n] for n in fast_new]
            dims, trunc = spec.dims, spec.trunc
            ident = ([series.Series.slow_var(dims, trunc, i) for i in range(spec.m)]
                     + [series.Series.fast_var(dims, trunc, j) for j in range(spec.n)])
            back = [s.substitute(slow=X, fast=Y)
                    for s in nf2.transform_x() + nf2.transform_y()]
            cl.expect(back == ident, f"{label}: transform(reversion) != identity")

    def report_lines(self) -> List[str]:
        return [f"sha256 {label} {hashlib.sha256(text.encode()).hexdigest()}"
                for label, _spec, _nf, text, *_ in self.out]

    @staticmethod
    def named(parts: List[float]) -> Dict[str, float]:
        return {"derive_s": parts[0] + parts[1], "verify_s": parts[2]}


# -------------------------------------------------------------- certify

class CertifyWorkload:
    """``construct`` + ``verify_order`` with no report."""

    parts = ("toy@7", "papavasiliou@5", "toy@6 no-anticipate")
    SYSTEMS = (("toy", 7, systems.ALLOW), ("papavasiliou", 5, systems.ALLOW),
               ("toy", 6, systems.FORBID))
    SMOKE_SYSTEMS = (("toy", 5, systems.ALLOW), ("papavasiliou", 3, systems.ALLOW),
                     ("toy", 3, systems.FORBID))

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        systems_ = self.SMOKE_SYSTEMS if smoke else self.SYSTEMS
        self.specs = [(f"{n}@{o}", load(n, o), pol) for n, o, pol in systems_]
        self.out = []

    def round(self, parts: Parts):
        self.out = []
        for k, (label, spec, policy) in enumerate(self.specs):
            with parts.timing(k, f"{label} construct"):
                nf = engine.construct(spec, policy)
            with parts.timing(k, f"{label} verify_order"):
                worst = engine.verify_order(spec, nf)
            self.out.append((label, spec, nf, worst))
        return len(self.specs)

    def check(self, cl: CheckList, first: bool) -> None:
        for label, spec, nf, worst in self.out:
            cl.expect(nf.certified and worst is None, f"{label}: not certified")
            cl.expect(not nf.check_structure(), f"{label}: check_structure")
        if not first:
            return
        # the first form, truncated two orders down, is the lower derivation
        label, spec, nf, _ = self.out[0]
        ref = engine.construct(load("toy", spec.trunc.total - 2), systems.ALLOW)
        for comp in ("xi", "eta", "F", "G"):
            cut = [s.with_trunc(ref.spec.trunc) for s in getattr(nf, comp)]
            cl.expect(cut == getattr(ref, comp),
                      f"{label} truncated to order {ref.spec.trunc.total}: {comp} differs")
        rng = np.random.default_rng([self.seed, 7])
        for label, spec, nf, _ in self.out:
            fields = [f for f in ("xi", "eta", "F", "G")
                      if any(not s.is_zero() for s in getattr(nf, f))]
            field = fields[rng.integers(len(fields))]
            comps = list(getattr(nf, field))
            k = int(rng.choice([i for i, s in enumerate(comps) if not s.is_zero()]))
            terms = comps[k].sorted_terms()
            key, c = terms[rng.integers(len(terms))]
            comps[k] = comps[k] + series.Series(spec.dims, spec.trunc, {key: c / 7})
            bad = dataclasses.replace(nf, **{field: comps})
            cl.expect(engine.verify_order(spec, bad) is not None,
                      f"{label}: corrupted {field}[{k}] still certifies")

    def report_lines(self) -> List[str]:
        return [f"terms {label} {sum(len(s.terms) for s in nf.xi + nf.eta + nf.F + nf.G)}"
                for label, _spec, nf, _ in self.out]

    @staticmethod
    def named(parts: List[float]) -> Dict[str, float]:
        return {"certify_s": sum(parts)}


# ------------------------------------------------------------- ensemble

REPLICATES = (64, 512, 4096)
# Twice snf compare's default step: the same warm-up-to-horizon ratio at half
# the steps, so that a round fits the run time.
DT = 2e-3
Z_GATE = 5.0        # standard errors; see README for how it was chosen


def _deterministic_value(s, params, names, X: float) -> float:
    """Noise-free part of a one-slow-variable chart series at X."""
    v = 0.0
    for (mono, expr), c in s.terms.items():
        if expr != ():
            continue
        t = float(c)
        for name, e in zip(names, mono[2]):
            t *= params[name] ** e
        v += t * X ** sum(mono[0])
    return v


class _Comparison:
    """The full and reduced models of one system, as ``snf compare`` builds
    them: the full system starts on the deterministic manifold image of x0,
    and the reduced model reports the sampleable part of the slow chart."""

    def __init__(self, name, params, x0, T, observe):
        spec = load(name)
        self.name, self.T = name, T
        nf = engine.construct(spec, systems.ALLOW)
        self.full = mc.compile_full_system(spec, params)
        self.reduced = mc.compile_slow_model(nf, params)
        self.x0_reduced = [x0] * spec.m
        self.x0_full = [x0] * spec.m
        self.obs = None
        if observe:
            chart = analysis.ssm_parametrisation(nf)
            self.x0_full += [_deterministic_value(s, params, spec.param_names, x0)
                             for s in chart.y_of_X]
            self.obs = mc.compile_observables(
                [mc.sampleable_part(s)[0] for s in chart.x_of_X], self.reduced,
                params, spec.param_names, lambda mono: tuple(mono[0]))
        else:
            self.x0_full += [0.0] * spec.n
        self.steps = int(round(T / DT))


class EnsembleWorkload:
    """``run_ensemble`` on the full-vs-reduced comparisons of ``snf compare``."""

    parts = ("toy", "papavasiliou", "linear")
    EPS_LINEAR = 0.1

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.replicates = REPLICATES[:1] if smoke else REPLICATES
        self.cmp = [
            # T = 2 is past the toy chart's transient; the papavasiliou fast
            # variable needs T = 5 before its start no longer shows in Var x.
            _Comparison("toy", {"sigma": 0.05}, 0.3, 2.0, observe=True),
            _Comparison("papavasiliou", {"eps": 0.01, "sigma": 1.0}, 0.2, 5.0,
                        observe=True),
            _Comparison("linear", {"eps": self.EPS_LINEAR}, 0.0, 2.0, observe=False),
        ]
        self.out = {}
        self.log = {}

    def round(self, parts: Parts):
        self.out = {}
        for ri, R in enumerate(self.replicates):
            for k, c in enumerate(self.cmp):
                base = (self.seed * 100 + ri * 10 + 2 * k) * 2
                for model, sde, x0, obs, s in (
                        ("full", c.full, c.x0_full, None, base),
                        ("reduced", c.reduced, c.x0_reduced, c.obs, base + 1)):
                    label = f"{c.name} {model} R={R}"
                    with parts.timing(k, label):
                        res = mc.run_ensemble(sde, x0, c.T, DT, R, s,
                                              [c.T / 2, c.T], observables=obs)
                    self.out[(c.name, model, R)] = res
        self.log = parts.log
        return len(self.out)

    def rep_steps(self) -> int:
        return sum(R * c.steps * 2 for R in self.replicates for c in self.cmp)

    def ns_per_rep_step(self) -> Dict[str, float]:
        """Per model kind and R, over the three systems."""
        steps = sum(c.steps for c in self.cmp)
        return {f"mc.{model}.ns_per_rep_step.R{R}":
                sum(self.log[f"{c.name} {model} R={R}"] for c in self.cmp)
                / (R * steps) * 1e9
                for model in ("full", "reduced") for R in self.replicates}

    def check(self, cl: CheckList, first: bool) -> None:
        last = 1                                  # index of t = T
        eps, T = self.EPS_LINEAR, self.cmp[2].T
        linear_var = {
            ("full", 0): eps ** 2 * (T - 2 * (1 - math.exp(-T))
                                     + (1 - math.exp(-2 * T)) / 2),
            ("full", 1): (1 - math.exp(-2 * T)) / 2,
            ("reduced", 0): eps ** 2 * T,
        }
        for R in self.replicates:
            for name in ("toy", "papavasiliou"):
                f, r = self.out[(name, "full", R)], self.out[(name, "reduced", R)]
                zm = _z(f.mean()[last, 0] - r.mean()[last, 0],
                        math.hypot(f.stderr_mean()[last, 0], r.stderr_mean()[last, 0]))
                zv = _z(f.var()[last, 0] - r.var()[last, 0],
                        math.hypot(f.stderr_var()[last, 0], r.stderr_var()[last, 0]))
                cl.expect(zm <= Z_GATE and zv <= Z_GATE,
                          f"{name} R={R}: full vs reduced z = {zm:.2f}, {zv:.2f}")
            for (model, j), var in linear_var.items():
                # The linear states are Gaussian, so the standard errors
                # follow from the closed form.  Those estimated from the
                # sample shrink with its variance: at R = 64 they gave
                # |z| > 5 on about one seed in 300.
                res, n = self.out[("linear", model, R)], R
                zm = _z(res.mean()[last, j], math.sqrt(var / n))
                zv = _z(res.var()[last, j] - var, var * math.sqrt(2 / (n - 1)))
                cl.expect(zm <= Z_GATE and zv <= Z_GATE,
                          f"linear {model}[{j}] R={R}: closed form z = {zm:.2f}, {zv:.2f}")

    def report_lines(self) -> List[str]:
        lines = []
        steps = {c.name: c.steps for c in self.cmp}
        for (name, model, R), res in sorted(self.out.items()):
            lines.append(f"stats {name} {model} R={R} t={res.times[-1]:g} "
                         f"mean={res.mean()[-1, 0]:.10g} var={res.var()[-1, 0]:.10g}")
            secs = self.log[f"{name} {model} R={R}"]
            lines.append(f"rate {name} {model} R={R} "
                         f"{secs / (R * steps[name]) * 1e9:.1f} ns/rep/step")
        return lines

    def named(self, parts: List[float]) -> Dict[str, float]:
        total = sum(parts)
        return {"ensemble_s": total, "rep_steps_per_s": self.rep_steps() / total}


# ------------------------------------------------------------- pathwise

PATHS_DT, BANDS_DT, DELTA = 1e-3, 0.05, 0.2
HOPF_BETA, HOPF_SIGMA = 0.05, 0.3
DVDP_R, DVDP_T, DVDP_DT, DVDP_SIGMA = 8, 300.0, 0.01, 0.01


class PathwiseWorkload:
    """Long single paths: convolution identities, the band lab, the Hopf lab."""

    parts = ("paths", "bands", "hopf")

    def __init__(self, seed: int, smoke: bool = False):
        # paths: count and length; bands: count and length; amplitude steps
        paths_k, self.paths_T, bands_k, bands_T, self.amp_steps = (
            (1, 5.0, 1, 500.0, 9999) if smoke else (40, 20.0, 2, 2000.0, 20000))
        rng = np.random.default_rng([seed, 5])
        self.path_seeds = [int(s) for s in rng.integers(0, 2 ** 31, paths_k)]
        n = int(bands_T / BANDS_DT)
        self.white = [rng.standard_normal(n) / math.sqrt(BANDS_DT)
                      for _ in range(bands_k)]
        m = int(DVDP_T / DVDP_DT)
        self.dvdp_dw = rng.standard_normal((DVDP_R, m)) * math.sqrt(DVDP_DT)
        PHI = noise.phi_atom(0)
        self.PHI = PHI
        self.ZM = noise.z_atom(Fraction(-1), (PHI,))
        self.ZM2 = noise.z_atom(Fraction(-2), (PHI,))
        self.ZP = noise.z_atom(Fraction(1), (PHI,))
        self.out = {}

    def _one_path(self, seed: int):
        PHI, ZM, ZM2, ZP = self.PHI, self.ZM, self.ZM2, self.ZP
        p = paths.NoisePath.generate(self.paths_T, PATHS_DT, 1, seed=seed,
                                     spin=30.0, trim=30.0)
        smp = paths.PathSampler(p)
        got = {"path": p,
               "z": smp.expr((ZM,)).values,
               "zp": smp.expr((ZP,)).values,
               "zm2": smp.expr((ZM2,)).values,
               "zz": smp.expr((noise.z_atom(Fraction(-1), (ZM2,)),)).values,
               "zpz": smp.expr((noise.z_atom(Fraction(1), (ZM,)),)).values,
               "drift": paths.integrate_expression(p, [(1.0, noise.product(PHI, ZM))], smp)}
        for mu, atom in ((-1.0, ZM), (1.0, ZP)):
            sgn = 1.0 if mu > 0 else -1.0
            got[("d", mu)] = paths.integrate_expression(
                p, [(-sgn, (PHI,)), (mu, (atom,))], smp)
        for i, c in enumerate(self.ibp_cases):
            evo, xform = noise.ibp_normalize(c)
            cum_c = paths.integrate_expression(p, [(float(v), e) for e, v in c.items()], smp)
            cum_e = paths.integrate_expression(p, [(float(v), e) for e, v in evo.items()], smp)
            xp = sum(float(v) * smp.expr(e).values for e, v in xform.items())
            got[("ibp", i)] = (cum_c, cum_e, xp)
        return got

    @property
    def ibp_cases(self):
        ZM, ZP = self.ZM, self.ZP
        return ({(ZM, ZM): Fraction(1)},
                {(noise.z_atom(Fraction(-1), (ZM, ZM)),): Fraction(1)},
                {noise.product(ZM, ZP): Fraction(1)})

    def round(self, parts: Parts):
        out = {}
        out["paths"] = []
        for seed in self.path_seeds:
            with parts.timing(0, "paths"):
                got = self._one_path(seed)
            out["paths"].append(self._path_errors(got))
        with parts.timing(1, "bands"):
            out["bands"] = [(bands.band_component(w, BANDS_DT, 0.0, DELTA),
                             bands.band_component(w, BANDS_DT, 2.0, DELTA),
                             bands.quad_resonant_noise(w, BANDS_DT, DELTA))
                            for w in self.white]
        p0, p2, q = out["bands"][0]
        drivers = hopf.AmplitudeDrivers(p0.values, p2.values, q)
        with parts.timing(2, "simulate_amplitude order 2"):
            out["amp2"] = hopf.simulate_amplitude(
                2, HOPF_BETA, HOPF_SIGMA, DELTA, drivers, BANDS_DT, 0.05 + 0.05j,
                n_steps=self.amp_steps)
        with parts.timing(2, "simulate_amplitude order 1"):
            out["amp1"] = hopf.simulate_amplitude(
                1, HOPF_BETA, 0.0, DELTA, drivers, BANDS_DT, 0.05 + 0.05j,
                n_steps=self.amp_steps)
        with parts.timing(2, "simulate_dvdp"):
            out["dvdp"] = hopf.simulate_dvdp(-1.0, HOPF_BETA, DVDP_SIGMA,
                                             self.dvdp_dw, DVDP_DT, (0.1, 0.0))
        with parts.timing(2, "mathieu_growth"):
            out["mathieu"] = hopf.mathieu_growth(HOPF_BETA, HOPF_SIGMA)
        self.out = out
        return len(self.path_seeds) + len(self.white) + 4

    def _path_errors(self, got):
        """Worst pointwise error of the identities on one path, and the time
        average of phi*Z[-1]{phi} over its working window."""
        worst = 0.0
        p = got["path"]
        sl, lo, hi = p.main_slice(), p.main_lo, p.main_hi
        z = got["z"]
        taus = (np.arange(p.n_total) + 0.5 - p.n_spin) * PATHS_DT
        t = (hi - p.n_spin) * PATHS_DT
        direct = float(np.sum(np.exp(-(t - taus[:hi])) * p.increments[0, :hi]))
        worst = max(worst, abs(z[hi] - direct))
        for mu, za in ((-1.0, z), (1.0, got["zp"])):
            cum = got[("d", mu)]
            worst = max(worst, np.max(np.abs((za[sl] - za[lo])
                                              - (cum[sl] - cum[lo]))) / 3.0)
        worst = max(worst, np.max(np.abs(got["zz"][sl] - (z - got["zm2"])[sl])))
        worst = max(worst, np.max(np.abs(got["zpz"][sl]
                                         - 0.5 * (z + got["zp"])[sl])))
        for i in range(len(self.ibp_cases)):
            cum_c, cum_e, xp = got[("ibp", i)]
            worst = max(worst, np.max(np.abs((cum_c[sl] - cum_c[lo])
                                             - (cum_e[sl] - cum_e[lo])
                                             - (xp[sl] - xp[lo]))))
        I = got["drift"]
        return worst, (I[hi] - I[lo]) / self.paths_T

    def check(self, cl: CheckList, first: bool) -> None:
        out = self.out
        band = 15.0 * PATHS_DT
        worst = max(w for w, _ in out["paths"])
        drift = [d for _, d in out["paths"]]
        cl.expect(worst < band, f"convolution identities: error {worst:.2e} >= {band:.2e}")
        # (1/T) int phi Z[-1]{phi} dt - 1/2 = (1/T) int Z dW (Ito), variance 1/(2T)
        se = math.sqrt(1.0 / (2.0 * self.paths_T * len(drift)))
        self.phiz = float(np.mean(drift))
        cl.expect(_z(self.phiz - 0.5, se) <= Z_GATE,
                  f"E[phi Z[-1]{{phi}}] = {self.phiz:.4f}, want 1/2 (s.e. {se:.4f})")
        # E|phi_m|^2 = 1 in the continuum; on the grid it is the nb bins of the
        # band times d_om / (2 delta).  The estimate is a mean of nb exponential
        # variables (pairs of conjugate bins at m = 0): relative s.d. sqrt(2/nb).
        n = len(self.white[0])
        d_om = 2 * math.pi / (n * BANDS_DT)
        omega = 2 * math.pi * np.fft.fftfreq(n, d=BANDS_DT)
        self.band_var = {}
        for k, m in enumerate((0.0, 2.0)):
            nb = int(np.sum(np.abs(omega - m) <= DELTA))
            want = nb * d_om / (2 * DELTA)
            got = float(np.mean([b[k].sample_variance() for b in out["bands"]]))
            self.band_var[m] = got
            se = want * math.sqrt(2.0 / (nb * len(out["bands"])))
            cl.expect(_z(got - want, se) <= Z_GATE,
                      f"E|phi_{m:g}|^2 = {got:.4f}, want {want:.4f}")
        mg = out["mathieu"]
        pred = HOPF_BETA / 2 + HOPF_SIGMA / 4
        for which in ("model", "full"):
            cl.expect(abs(mg[which] - pred) <= 0.1 * pred,
                      f"Mathieu {which} growth {mg[which]:.4f}, want {pred:.4f}")
        a_end = abs(out["amp1"][-1]) ** 2
        cl.expect(abs(a_end - HOPF_BETA) <= 0.01 * HOPF_BETA,
                  f"Landau fixed point |a|^2 = {a_end:.5f}, want {HOPF_BETA}")
        cl.expect(bool(np.all(np.isfinite(out["amp2"]))), "order-2 amplitude not finite")
        x, _v = out["dvdp"]
        tail = x[:, -int(0.1 * x.shape[1]):]
        self.radius = float(np.mean(np.max(np.abs(tail), axis=1)))
        want = 2 * math.sqrt(HOPF_BETA)
        cl.expect(abs(self.radius - want) <= 0.05 * want,
                  f"van der Pol cycle radius {self.radius:.4f}, want {want:.4f}")

    def report_lines(self) -> List[str]:
        qs = [b[2] for b in self.out["bands"]]
        return [f"stats phi*Z[-1]{{phi}} mean={self.phiz:.10g}",
                f"stats band E|phi0|^2={self.band_var[0.0]:.10g} "
                f"E|phi2|^2={self.band_var[2.0]:.10g}",
                f"stats quad c_r={np.mean([q.c_r for q in qs]):.10g} "
                f"c_i={np.mean([q.c_i for q in qs]):.10g}",
                f"stats dvdp radius={self.radius:.10g}",
                f"stats mathieu model={self.out['mathieu']['model']:.10g} "
                f"full={self.out['mathieu']['full']:.10g}",
                f"stats amplitude2 mean|a|^2={np.mean(np.abs(self.out['amp2']) ** 2):.10g}"]

    @staticmethod
    def named(parts: List[float]) -> Dict[str, float]:
        return {"pathwise_s": parts[0], "band_lab_s": parts[1], "hopf_s": parts[2]}


WORKLOADS = {
    "report": ReportWorkload,
    "certify": CertifyWorkload,
    "ensemble": EnsembleWorkload,
    "pathwise": PathwiseWorkload,
}
