"""Host-speed probe: a fixed mix of numpy, scipy and interpreter work.

The speed of a shared virtual machine drifts.  On a 2-vCPU Xeon VM (2.0 GHz)
the same op took 1.25 s for a minute and 2.1 s the next, and the raw medians
of back-to-back runs spread by 12% to 43% (IQR over median, five seeds) while
that lasted.  Timing every op between two probes and rescaling it to a host
on which the probe takes ``REF_S`` brought the same spreads to 2% to 6%.
While the host is steady the probe adds a little noise of its own: in one
ten-seed set the raw spread was 5.3% and the rescaled one 7.6%.

The probe uses no minksurf code, so a change to the library never moves it;
only the speed of the host does.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.interpolate import RectBivariateSpline

REF_S = 0.1  # probe seconds on the reference host; times are rescaled to it

_RNG = np.random.default_rng(0)
_MATS = _RNG.standard_normal((129, 129, 4, 4))
_GRID = np.linspace(0.0, 1.0, 129)
_SPLINE = RectBivariateSpline(_GRID, _GRID, _RNG.standard_normal((129, 129)), kx=3, ky=3, s=0)


def probe() -> float:
    """Seconds for the fixed kernel (about 100 ms on a 2 GHz Xeon)."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.einsum("...ij,...jk->...ik", _MATS, _MATS)
    for k in range(400):
        _SPLINE(_GRID, _GRID[k % 129])
    acc = 0.0
    for k in range(160000):
        acc += k * 0.5
    ",".join(["%.17g" % v for v in _MATS.ravel()[:32000]])
    return time.perf_counter() - t0


class Clock:
    """Times consecutive calls with a probe between each two.

    A call's time is rescaled by the mean of the probes on either side of it,
    so the probe after one call also serves as the probe before the next.
    """

    def __init__(self):
        self._before = probe()

    def time(self, fn, *args):
        """Returns (wall seconds, factor that rescales them to the reference host, result)."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        after = probe()
        scale = 2.0 * REF_S / (self._before + after)
        self._before = after
        return wall, scale, result
