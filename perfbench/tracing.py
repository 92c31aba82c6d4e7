"""Span tracing of snf from outside the package.

`instrument(tracer)` replaces public functions and methods of snf with
wrappers that record one span per call: name, start, end and parent.  A
function is replaced in every module that binds it, because snf modules
import by name (`report` calls its own `revert`, `engine` its own
`solve_fast`), so a wrapper placed only on the defining module would miss
those calls.  Methods are replaced on their classes.

Spans are kept in flat arrays while the benchmark runs and summarised at
the end: per name, the number of calls, the inclusive time of the outermost
spans (a recursive call is not counted twice) and the self time (span minus
the time its child spans cover).
"""

from __future__ import annotations

import functools
from array import array
from typing import Callable, Dict, List, Optional


class Tracer:
    """Spans of the wrapped calls, timed with ``now`` (seconds)."""

    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.enabled = False
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.nested = array("b")      # an ancestor span has the same name
        self.start = array("d")
        self.end = array("d")
        self.counts: Dict[str, float] = {}
        self._stack: List[int] = []
        self._active: List[int] = []
        self.in_warmup = False        # filter steps before a chunk's first rates call
        self.banks: Dict[int, int] = {}

    def name(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def reset(self) -> None:
        """Drop recorded spans and counts (names stay registered)."""
        for arr in (self.name_id, self.parent, self.nested, self.start, self.end):
            del arr[:]
        self.counts = {}
        self.banks = {}

    def call(self, nid: int, fn: Callable, args, kwargs, after=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.start)
        stack = self._stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self._active[nid] += 1
        self.nested.append(self._active[nid] > 1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(self.now())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = self.now()
            stack.pop()
            self._active[nid] -= 1
        if after is not None:
            after(idx, args, result)
        return result

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, Dict[str, float]] = {
            nm: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for nm in self.names}
        for i in range(n):
            rec = out[self.names[self.name_id[i]]]
            dur = end[i] - start[i]
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            if not self.nested[i]:
                rec["incl_s"] += dur
        return out

    def children(self, idx: int, child_name: str) -> int:
        """Direct children of span ``idx`` named ``child_name``."""
        cid = self._ids.get(child_name)
        return sum(1 for i in range(idx + 1, len(self.start))
                   if self.parent[i] == idx and self.name_id[i] == cid)


def _wrapper(tracer: Tracer, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
    """``after(span_index, args, result)`` runs when a traced call returns."""
    nid = tracer.name(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(nid, fn, args, kwargs, after)
    return traced


def instrument(tracer: Tracer) -> None:
    """Wrap the snf layers the benchmark reports on; call once per process."""
    import snf
    from snf import (analysis, bands, engine, homological, hopf, mc, noise,
                     paths, render, report, series, sysfile)

    def patch(name, modules, attr, after=None):
        fn = getattr(modules[0], attr)
        wrapped = _wrapper(tracer, name, fn, after)
        for mod in modules:
            if getattr(mod, attr, None) is fn:
                setattr(mod, attr, wrapped)

    def patch_method(name, cls, attr, after=None):
        setattr(cls, attr, _wrapper(tracer, name, getattr(cls, attr), after))

    def nf_terms(_idx, _args, nf):
        tracer.count("engine.nf_terms", sum(
            len(s.terms) for s in nf.xi + nf.eta + nf.F + nf.G))

    def mul_pairs(_idx, args, _result):
        tracer.count("series.mul_pairs", len(args[0].terms) * len(args[1].terms))

    def revert_counts(idx, args, rv):
        tracer.count("analysis.revert_terms", sum(
            len(s.terms) for s in rv.X_of_xy + rv.Y_of_xy))
        # each sweep substitutes into every transform component once
        spec = args[0].spec
        tracer.count("analysis.revert_sweeps",
                     tracer.children(idx, "series.substitute") / (spec.m + spec.n))

    def report_bytes(_idx, _args, text):
        tracer.count("report.bytes", len(text.encode()))

    def ensemble_banks(_idx, args, _result):
        bank = args[0].bank
        tracer.banks[id(bank)] = bank.n

    patch("sysfile.load", [sysfile], "load_system")
    patch("noise.conv", [noise], "conv")
    patch("noise.ibp_normalize", [noise], "ibp_normalize")
    for attr in ("solve_fast", "solve_slow"):
        patch("homological.solve", [homological, engine], attr)
    patch("engine.sweep", [engine, snf], "refine_once")
    patch("engine.compute_residual", [engine, snf], "compute_residual")
    patch("engine.construct", [engine, snf], "construct", nf_terms)
    patch("engine.verify_order", [engine, snf], "verify_order")
    patch_method("series.mul", series.Series, "__mul__", mul_pairs)
    patch_method("series.substitute", series.Series, "substitute")
    patch_method("series.time_derivative", series.Series, "time_derivative")
    patch("analysis.revert", [analysis, report], "revert", revert_counts)
    patch("analysis.ssm", [analysis, report], "ssm_parametrisation")
    patch("analysis.expected", [analysis, report], "expected_series")
    patch("render.render_series", [render, report], "render_series")
    patch("render.parse_series", [render, report], "parse_series")
    patch("report.emit", [report], "emit_report", report_bytes)
    patch("report.parse_report", [report], "parse_report")
    for attr in ("compile_full_system", "compile_slow_model", "compile_observables"):
        patch("mc.compile", [mc], attr)
    patch("mc.run_ensemble", [mc], "run_ensemble", ensemble_banks)
    patch("paths.integrate", [paths], "integrate_expression")
    patch_method("paths.sample", paths.PathSampler, "expr")
    generate = paths.NoisePath.__dict__["generate"].__func__
    paths.NoisePath.generate = classmethod(_wrapper(tracer, "paths.generate", generate))
    patch("bands.band_component", [bands, hopf], "band_component")
    patch("bands.quad_resonant", [bands, hopf], "quad_resonant_noise")
    patch("hopf.simulate_dvdp", [hopf], "simulate_dvdp")
    patch("hopf.simulate_amplitude", [hopf], "simulate_amplitude")
    patch("hopf.mathieu", [hopf], "mathieu_growth")

    # Filter-bank steps are warm-up until the chunk's first rates call;
    # make_state starts a chunk.
    bank_cls, sde_cls = mc.FilterBank, mc.CompiledSDE
    make_state, step, rates = bank_cls.make_state, bank_cls.step, sde_cls.rates
    warm_id, step_id = tracer.name("mc.warmup"), tracer.name("mc.filter_step")
    rates_id = tracer.name("mc.rates")

    @functools.wraps(make_state)
    def traced_make_state(self, n_rep):
        tracer.in_warmup = True
        return make_state(self, n_rep)

    @functools.wraps(step)
    def traced_step(self, z, dw):
        return tracer.call(warm_id if tracer.in_warmup else step_id,
                           step, (self, z, dw), {})

    @functools.wraps(rates)
    def traced_rates(self, state, z):
        tracer.in_warmup = False
        return tracer.call(rates_id, rates, (self, state, z), {})

    bank_cls.make_state = traced_make_state
    bank_cls.step = traced_step
    sde_cls.rates = traced_rates
