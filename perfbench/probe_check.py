#!/usr/bin/env python3
"""Check that the corrected clock treats interpreter- and vector-bound code alike.

    env OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/probe_check.py --seconds 120

Runs three kernels in turn until the time is up: a `construct` of toy at
order 5 (`Fraction` series algebra), a 4096-wide Heun ensemble of the full
toy model (numpy arithmetic on long vectors) and a reduced toy ensemble
that is mostly filter warm-up (the Python loop of `FilterBank.step` on
512-wide vectors).  Each call is timed with three clocks at once: wall
time, `clock.py`'s interpreter probe, and a probe of small numpy
arithmetic that replaces it.  Per kernel and clock it prints the median,
the interquartile spread over the median, and the ratio of the median to
the wall median.  If the ratios of the kernels differ, a change that moves
work from one kind of code to the other is misread by that difference.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import clock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_A, _B = np.linspace(0.1, 1.0, 512), np.linspace(1.0, 2.0, 512)
_C = np.empty(512)


def vector_probe() -> float:
    """Seconds of the last of three passes of 512-wide numpy arithmetic."""
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(10):
            np.multiply(_A, _B, out=_C)
            np.add(_C, _A, out=_C)
            np.sqrt(_C, out=_C)
        seconds = time.perf_counter() - t0
    return seconds


class TwoProbeClock(clock.HostClock):
    """`clock.HostClock` that also keeps a time corrected by the vector probe;
    `now` gives (interpreter-probe, vector-probe, wall) seconds."""

    def __init__(self, vector_ref: float):
        super().__init__()
        self.vector_ref = vector_ref
        self.vector = 0.0
        self.vector_factor = 1.0

    def _tick(self, _sig, _frame):
        now = time.perf_counter()
        self.factor = clock.PROBE_REF_S / clock.probe()
        self.vector_factor = self.vector_ref / vector_probe()
        self.corrected += (now - self.mark) * self.factor
        self.vector += (now - self.mark) * self.vector_factor
        self.mark = time.perf_counter()
        self.ticks += 1

    def now(self):
        while True:
            ticks = self.ticks
            wall = time.perf_counter()
            since = wall - self.mark
            value = (self.corrected + since * self.factor,
                     self.vector + since * self.vector_factor, wall)
            if ticks == self.ticks:
                return value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=float, default=120.0)
    args = p.parse_args(argv)

    from snf import engine, mc, systems
    import workloads
    spec = workloads.load("toy", 5)
    toy = workloads._Comparison("toy", {"sigma": 0.05}, 0.3, 2.0, observe=True)
    kernels = {
        "interpreter": lambda: engine.construct(spec, systems.ALLOW),
        "vector": lambda: mc.run_ensemble(toy.full, toy.x0_full, 0.5, 1e-3,
                                          4096, 1, [0.5], chunk=4096),
        "filters": lambda: mc.run_ensemble(toy.reduced, toy.x0_reduced, 0.2, 2e-3,
                                           512, 1, [0.2], observables=toy.obs,
                                           warm=3.0),
    }
    # the fastest pass seen now stands for the reference speed
    clk = TwoProbeClock(min(vector_probe() for _ in range(2000)))
    times = {k: [] for k in kernels}
    clk.start()
    try:
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            for name, fn in kernels.items():
                t0 = clk.now()
                fn()
                times[name].append([b - a for a, b in zip(t0, clk.now())])
    finally:
        clk.stop()

    for name, rows in times.items():
        cols = [list(c) for c in zip(*rows)]
        wall = statistics.median(cols[2])
        fields = []
        for label, col in zip(("interpreter-probe", "vector-probe", "wall"), cols):
            q = statistics.quantiles(col, n=4)
            med = statistics.median(col)
            fields.append(f"{label} {med:.4f} s spread {(q[2] - q[0]) / med:.3f} "
                          f"ratio {med / wall:.3f}")
        print(f"{name} ({len(rows)} calls): " + "; ".join(fields))
    return 0


if __name__ == "__main__":
    sys.exit(main())
