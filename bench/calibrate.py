"""The reference kernel that the benchmark's op costs are expressed in.

A shared host can run the same code up to ~1.8x slower for tens of seconds
at a time, which moves raw wall times between runs by more than any bound
worth setting.  Each timed op is therefore divided by the time of this fixed
kernel, measured on the same CPU right before and right after the op.  The
ratio (unit ``ref``) moves little with the host's state, while a change to
bohrcc moves the op and not the kernel.  The kernel mixes what bohrcc spends
its time on: QUADPACK calling back into Python, math-module calls and short
numpy polynomial work.  It uses no bohrcc code.
"""

from __future__ import annotations

import math
import time

import numpy as np
from numpy.polynomial import polynomial as npoly

_COEFFS = 1.0 / np.arange(1.0, 65.0)


def _integrand(t: float) -> float:
    return math.exp(-t) * math.sqrt(t) + float(npoly.polyval(0.5 * t, _COEFFS))


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    from scipy.integrate import quad  # not at import: set-up probes must not load it

    start = time.perf_counter()
    quad(_integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)
    series = _COEFFS
    for _ in range(20):
        series = np.convolve(series, _COEFFS)[:64] / 64.0
    return time.perf_counter() - start
