"""Host speed, sampled while an op runs.

On a shared host (the baseline's: 2 vCPUs of an Intel Xeon) the speed
drifts by 20-40% within a minute, so a wall time alone says as much about
the neighbours as about lenard.  While an op runs, a wall-clock timer
interrupts it every INTERVAL_S and times probe(), a fixed piece of
pure-Python work that touches no lenard code.  An op's time is reported
with the handler's time taken out and scaled by REFERENCE_S over the mean
probe time seen during the op, which puts every op on one reference
host's speed: a slow phase lengthens the op and the probes alike and
cancels.  A few probes just before and after the op give short ops,
which the timer may not interrupt at all, a speed of their own.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

# Seconds one probe() takes on the reference host (2 vCPU Intel Xeon,
# Python 3.11.7, in a fast phase).  It only sets the scale of reported
# times; changing it moves every scaled time by the same factor.
REFERENCE_S = 0.0006
INTERVAL_S = 0.02
BRACKET = 3

_P = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(4)}
_Q = {(i, j): Fraction(j - 3, i + 5) for i in range(4) for j in range(3)}


def probe():
    """Seconds a fixed product of two small polynomials takes now.

    The polynomials are dicts from exponent tuples to Fractions, and the
    result's keys are sorted: the same mix of Fraction arithmetic, tuple
    hashing and dict updates as lenard's field normalization."""
    t0 = time.perf_counter()
    r = {}
    for (a, b), c in _P.items():
        for (d, e), f in _Q.items():
            k = (a + d, b + e)
            r[k] = r.get(k, 0) + c * f
    sorted(r)
    return time.perf_counter() - t0


def bracket():
    """BRACKET probe times, taken back to back."""
    return [probe() for _ in range(BRACKET)]


class Sampler:
    """Times probe() every INTERVAL_S of wall time between start and stop.

    Garbage collection is held off inside the handler, so a collection of
    the op's garbage is never charged to the handler; it runs at the op's
    next allocation instead."""

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(probe())
        finally:
            if collecting:
                gc.enable()
        self.handler_s += time.perf_counter() - t0

    def start(self):
        """Take the bracket probes and arm the timer."""
        self.samples = bracket()
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Disarm the timer; returns (handler seconds, mean probe seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        handler_s = self.handler_s
        self.samples += bracket()
        return handler_s, statistics.fmean(self.samples)


def scaled(seconds, probe_s):
    """`seconds` measured while probes took `probe_s`, at reference speed."""
    return seconds * REFERENCE_S / probe_s
