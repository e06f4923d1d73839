"""Host-speed probes: normalise measured times to a nominal CPU speed.

The benchmark runs on shared hosts where the speed of a core swings by
up to 2x for seconds to minutes at a time.  Every timed interval is
therefore paired with short probes -- a fixed mix of small-array numpy
calls and interpreter work, like the program's own hot loops, that
shares no code with the program -- and reported as::

    time x NOMINAL_PROBE_S / (mean probe time during the interval)

i.e. the time the work would have taken with the core at its nominal
speed.  A change to the program moves the interval but not the probe;
a slow spell on the host moves both.

:class:`Sampler` probes from a ``SIGALRM`` handler, so the probes run on
the very thread doing the work, during the work; their own time is
subtracted from the interval.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

#: Probe time of an unloaded core (Intel Xeon VM, 2 vCPUs, CPython 3.11,
#: numpy 2.4); any constant works, since only ratios are compared.
NOMINAL_PROBE_S = 0.002
SAMPLE_EVERY_S = 0.1


def _kernel() -> float:
    a = np.linspace(0.1, 1.0, 16)
    b = a[::-1].copy()
    s = 0.0
    d: dict[int, int] = {}
    t0 = time.perf_counter()
    for i in range(400):
        c = np.minimum(a * b, a + b)
        e = np.where(c > 0.5, c, -c)
        s += float(e.sum())
        d[i % 17] = d.get(i % 17, 0) + i
    return time.perf_counter() - t0


def probe() -> float:
    """One kernel time, with the cyclic GC held off so a large program
    heap cannot inflate the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def factor(probes) -> float:
    """Multiplier turning a measured time into nominal-speed time."""
    return NOMINAL_PROBE_S / (sum(probes) / len(probes))


class Sampler:
    """Probe the main thread's core every :data:`SAMPLE_EVERY_S` seconds."""

    def __init__(self):
        self.probes: list[float] = []
        self.busy = 0.0

    def sample(self, *_signal) -> None:
        """Take one probe now (also the ``SIGALRM`` handler)."""
        t0 = time.perf_counter()
        self.probes.append(probe())
        self.busy += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def timed(self, fn, *args):
        """``(fn(*args), normalised seconds, raw seconds)``, probe time excluded.

        One probe follows the call, so a call shorter than the sampling
        period is still normalised by a probe taken next to it.
        """
        n0, busy0 = len(self.probes), self.busy
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0 - (self.busy - busy0)
        self.sample()
        return result, raw * factor(self.probes[n0:]), raw

