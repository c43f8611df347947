"""Host speed, sampled all through a run, to put every time on one scale.

The host is shared with other tenants, and its speed for this process
switches between a fast state and one up to twice as slow, for spans of a
millisecond to a minute (README.md, "Host drift").  Raw times therefore
differ by half from run to run of the same code.

``HostSpeed`` samples that speed from inside the workload process.  A
timer signal runs a fixed pure-Python probe every ``INTERVAL_S`` seconds,
between the program's bytecodes, and records how long the probe took.
``scale(a, b)`` is the mean of ``REF_S / probe time`` over the probes taken
between ``a`` and ``b``.  A time measured over ``[a, b]``, multiplied by
that scale, is the time the same work takes on a host where the probe
takes ``REF_S``: the probe's time in the host's fast state.  The probes
cost about 0.5% of a run, and the times measured include them.

The probe is the benchmark's own code and calls nothing in qfgl, so a
change to the program moves the times and never the scale.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.01
# The probe's time in the host's fast state: the 10th percentile of its
# times over three 45-60 s runs on a 2-vCPU Intel Xeon at 2.1 GHz, Python
# 3.11.7.  Any constant would do; this one keeps scaled times close to the
# raw times of a fast host.
REF_S = 40e-6
# A window holding fewer probes (a job shorter than the interval) is
# widened to the nearest this many.
MIN_PROBES = 8

_A = tuple(range(1, 25))
_B = tuple((i * 7919) % 1009 for i in range(24))


def _probe() -> list:
    """A product of two integer polynomials, like qfgl's inner loops."""
    c = [0] * (len(_A) + len(_B) - 1)
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            c[i + j] += x * y
    return c


class HostSpeed:
    def __init__(self):
        self.at: list = []       # perf_counter at the start of each probe
        self.speed: list = []    # REF_S / probe time

    def sample(self, signum=None, frame=None) -> None:
        """Run the probe once and record its speed; the timer's handler."""
        t0 = time.perf_counter()
        _probe()
        self.speed.append(REF_S / (time.perf_counter() - t0))
        self.at.append(t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, a: float, b: float) -> float:
        """Mean host speed over ``[a, b]``, relative to the probe at REF_S."""
        if not self.at:
            raise ValueError("no probe was taken")
        lo, hi = bisect.bisect_left(self.at, a), bisect.bisect_right(self.at, b)
        while hi - lo < MIN_PROBES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(0, lo - 1), min(len(self.at), hi + 1)
        window = self.speed[lo:hi]
        return sum(window) / len(window)
