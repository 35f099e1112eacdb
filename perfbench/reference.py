"""Reference probes that measure the machine's speed while a workload runs.

A shared host runs this benchmark's core at speeds up to 1.6x apart,
switching several times a second (neighbours' load on shared cores, caches
and clocks); wall time alone then measures the host, not the program.  So a
``Sampler`` runs ``probe`` -- fixed work that never touches coordrate: numpy
calls on 32-element arrays driven from Python, where the program spends its
time too -- from a timer signal every PERIOD_S seconds, in the middle of the
calls being timed.  Its working set is small, so the program's own use of
the caches moves it little (a 64 MB sweep before a probe slows it by about
12 %, a probe of Python integer arithmetic by 5 % but it tracks the host's
speed worse, and one that builds seeded generators and multiplies 64 x 64
matrices by 50 %).  Each call's latency, less the probes that ran inside
it, is scaled by how much slower those probes ran than ``REFERENCE_S``:

    latency_ref = (latency - probes inside) * REFERENCE_S / mean(probe times)

``latency_ref`` is the call's latency on the machine at its reference speed.
A call too short to hold MIN_PROBES probes uses those inside it and up to
MIN_PROBES on each side.  A change to coordrate moves ``latency`` and leaves the
probes alone, so it moves ``latency_ref`` by the same factor.  The unscaled
latencies (less the probes) are recorded beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

import numpy as np

#: seconds one probe takes at the reference speed: about its median inside
#: the timed calls on the 2-core x86 box that defined the benchmark
REFERENCE_S = 0.001
#: seconds between probes while a sampler runs
PERIOD_S = 0.02
#: probes that set the speed of one call
MIN_PROBES = 3

_X = np.arange(32.0)


def probe():
    """Fixed work of about REFERENCE_S seconds; returns a checksum."""
    acc = 0.0
    for _ in range(150):
        y = _X * 1.0001 + 1.0
        acc += float(np.cumsum(y)[-1])
    return acc


class Sampler:
    """Runs and records probes: from SIGALRM while started, or on request."""

    def __init__(self):
        # flat arrays: a paced run records some 30 000 probes
        self.starts = array("d")
        self.durations = array("d")
        self._busy = False

    def record(self):
        if self._busy:  # a signal that arrived during a probe
            return
        self._busy = True
        try:
            t = time.perf_counter()
            probe()
            d = time.perf_counter() - t
            self.starts.append(t)
            self.durations.append(d)
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.record()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0, t1):
        """Mean time of the probes that set the speed of [t0, t1], and the
        total time of the probes inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = self.durations[lo:hi]
        if len(inside) >= MIN_PROBES:
            return statistics.fmean(inside), sum(inside)
        near = self.durations[max(0, lo - MIN_PROBES):hi + MIN_PROBES]
        return statistics.fmean(near), sum(inside)

    def scale(self, starts, latencies):
        """(unscaled, scaled) latencies: less the probes inside each call,
        and that scaled to the reference speed."""
        net, scaled = [], []
        for t, lat in zip(starts, latencies):
            mean, spent = self.speed(t, t + lat)
            net.append(lat - spent)
            scaled.append((lat - spent) * REFERENCE_S / mean)
        return net, scaled
