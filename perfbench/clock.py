"""Time corrected for the speed of a shared host.

The host this benchmark was built on shares its cores with other machines.
The same Python code runs up to twice as slowly while a neighbour is busy,
in plateaus of a few seconds, and CPU time inflates with wall time, so
neither tells a slower program from a busier host.

This clock interrupts the process every `INTERVAL` seconds (SIGALRM) and
times a fixed probe of interpreter work.  The wall time of each slice
between two probes is scaled by ``PROBE_REF_S / probe_time``: corrected
time is what the slice would have taken at the host speed at which the
probe takes ``PROBE_REF_S``.  The probes' own time is left out.  The probe
runs three times and only the last pass is timed, so it measures the speed
of warm interpreter code whatever it interrupted; on that probe the ratio
of corrected to wall time came out the same, within 15 %, for `Fraction`
series algebra, small- and large-array Heun stepping and FFT work.

The probe is pure Python, so the clock can start before numpy is imported.
Only one clock may run in a process; it owns SIGALRM while it runs.
"""

from __future__ import annotations

import signal
import time

INTERVAL = 0.01
# The fastest timed probe pass seen on an idle core of the 2-core Xeon host
# the reference figures come from; there corrected and wall time agree.
PROBE_REF_S = 2.5e-5


def probe() -> float:
    """Seconds of the last of three passes of dict, tuple and integer work."""
    for _ in range(3):
        t0 = time.perf_counter()
        d = {}
        for i in range(100):
            key = ((i, i + 1), (i * 3,))
            d[key] = d.get(key, 0) + i * 7 // 3
        seconds = time.perf_counter() - t0
    return seconds


class HostClock:
    """Corrected seconds since `start`, read with `now`."""

    def __init__(self):
        self.corrected = 0.0
        self.mark = 0.0          # end of the last probe
        self.factor = 1.0        # PROBE_REF_S / latest probe time
        self.ticks = 0

    def _tick(self, _sig, _frame):
        now = time.perf_counter()
        self.factor = PROBE_REF_S / probe()
        self.corrected += (now - self.mark) * self.factor
        self.mark = time.perf_counter()
        self.ticks += 1

    def start(self) -> None:
        self.mark = time.perf_counter()
        self.corrected = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            ticks = self.ticks
            value = self.corrected + (time.perf_counter() - self.mark) * self.factor
            if ticks == self.ticks:      # no probe ran while reading
                return value
