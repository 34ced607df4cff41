"""The host's speed while a run measures, and times corrected for it.

On a shared virtual machine the same pass of the same code can take 30% longer
at one minute than at the next, because other tenants load the host.  A
``Probe`` measures that speed as the run goes: a timer signal interrupts the
run every ``INTERVAL_S`` and times a fixed sum of ``Fraction``s, the kind of
arithmetic e6grad spends its time in.  (An integer loop, which stays in the
first-level cache, slows less than e6grad does when the host is loaded.)
Since the probes are spread evenly in time, the mean of
``PROBE_REF_S / probe time`` over an interval is the share of reference speed
the run had there, and

    corrected = (wall - time spent in probes) * mean(PROBE_REF_S / probe)

is the interval's time at reference speed.  The probes interrupt only this
process, so they cost it about 2% of its time, and that time is taken out.
"""

from __future__ import annotations

import contextlib
import random
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.02
PROBE_TERMS = 100
# The probe's median time on the 2-vCPU Xeon virtual machine, Python 3.11.7,
# where the baseline was measured.  It fixes the unit of corrected times.
PROBE_REF_S = 350e-6
MIN_PROBES = 5

_rng = random.Random(0)
_TERMS = [Fraction(_rng.randrange(1, 10**6), _rng.randrange(1, 10**6))
          for _ in range(40 * PROBE_TERMS)]


def _sum(first: int) -> Fraction:
    s = Fraction(0)
    for x in _TERMS[first:first + PROBE_TERMS]:
        s += x
    return s


class Probe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)

    def _handler(self, signum, frame):
        first = len(self.samples) % 40 * PROBE_TERMS
        t = time.perf_counter()
        _sum(first)
        self.samples.append((t, time.perf_counter() - t))

    @contextlib.contextmanager
    def running(self):
        """Probe every INTERVAL_S while the block runs."""
        old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)


def _inside(samples, start, end):
    return [s for s in samples if start <= s[0] and s[0] + s[1] <= end]


def speed(samples, start: float, end: float) -> float:
    """Mean share of reference speed over [start, end]; an interval with
    fewer than MIN_PROBES probes uses the MIN_PROBES nearest to it."""
    near = _inside(samples, start, end)
    if len(near) < MIN_PROBES:
        mid = (start + end) / 2
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_PROBES]
    if not near:
        raise ValueError("no probe samples")
    return sum(PROBE_REF_S / d for _, d in near) / len(near)


def busy(samples, start: float, end: float) -> float:
    """Seconds of [start, end] not spent in probes."""
    return (end - start) - sum(d for _, d in _inside(samples, start, end))


def corrected(samples, start: float, end: float) -> float:
    """Seconds at reference speed spent in [start, end], probes excluded."""
    return busy(samples, start, end) * speed(samples, start, end)
