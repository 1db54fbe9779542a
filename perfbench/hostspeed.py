"""Host-speed probe: request times corrected for the shared host's state.

The benchmark host is a share of a machine whose other tenants change
its speed by up to 1.5x, in spells from a few seconds to a whole run.
A median over a run cannot remove a spell that covers the run, so the
untimed gap after every request runs a short fixed probe: small-matrix
products, a 4x4 eigensolve, a Python loop and a vectorised pass over a
4096 x 3 array, the kinds of work causalkit does.  The probe shares no
code with causalkit, so a change to the package leaves its time alone.

A request's corrected time is its measured time scaled by REF_S over
the median probe time around it: the time the request would take on a
host whose probe takes REF_S.  On a 2-vCPU Xeon at 2.0 GHz the probe
takes about 0.8 ms in the host's fast state and 1.1 ms in its slow one.
The uncorrected times are reported beside the corrected ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# the probe's time on the reference host
REF_S = 0.9e-3
# probes up to this far before a request starts or after it ends set
# its host speed
WINDOW_S = 0.5

_A = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_S = np.diag([1.0, -1.0, -1.0, -1.0]) + 0.01 * np.arange(16.0).reshape(4, 4)
_S = _S + _S.T
_V = np.linspace(-1.0, 1.0, 3 * 4096).reshape(4096, 3)


def _probe_once():
    start = time.perf_counter()
    for _ in range(6):
        _A @ _A
        np.linalg.eigh(_S)
        x = 0.0
        for i in range(200):
            x += i * 0.5
        np.minimum(_V @ _V[:3].T, 0.0).sum(axis=0)
    return time.perf_counter() - start


class Probe:
    """Probe readings of one run, as (end time, probe seconds)."""

    def __init__(self):
        self.ends = []
        self.times = []
        for _ in range(20):
            _probe_once()

    def read(self):
        # the least of three: the first run after a request meets caches
        # the request has evicted
        took = min(_probe_once() for _ in range(3))
        self.ends.append(time.perf_counter())
        self.times.append(took)

    def reading_s(self, start, end):
        """Median probe time within WINDOW_S of the interval [start, end]."""
        lo = bisect.bisect_left(self.ends, start - WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + WINDOW_S)
        return statistics.median(self.times[lo:hi])

    def correct(self, start, dt):
        """`dt` measured from `start`, scaled to the reference host speed."""
        return dt * REF_S / self.reading_s(start, start + dt)
