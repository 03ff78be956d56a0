"""Host speed probes, used to scale measured times to a reference speed.

The host this benchmark was built on changes speed by up to 2x, in phases
of a second to a minute, and CPU time follows wall time.  Every timed
operation is therefore bracketed by runs of a probe that uses no gelshoot
code, and its time is divided by the median of the probe readings nearest
to it, each reading being the probe's time over its time at the reference
speed.  For operations of milliseconds the window is three readings before
and three after: a single reading is noisy, and the median of a few
neighbours still follows the host's phases.  For whole processes, a second
each, it is the readings just before and after: a wider window reaches
seconds away, and measured spreads grew with it.

Two probes, matched to what they bracket:

  kernel()       an in-process loop that mimics the integrator's inner loop
                 (list appends, bisect lookups into the growing history,
                 float arithmetic); of the kernels tried it tracked the
                 library operations' slowdowns best
  interpreter()  a bare `python3 -c pass` process, for timings of whole
                 processes (cold command lines, set-up probes); the
                 in-process kernel does not track process start-up

The reference times only set the scale, so that scaled times read as
seconds on a host where the probes take REF_KERNEL_S and REF_INTERPRETER_S.
"""

import bisect
import statistics
import subprocess
import sys
import time

REF_KERNEL_S = 0.003
REF_INTERPRETER_S = 0.1


def kernel() -> float:
    """The fixed kernel's time now, over its reference time."""
    t0 = time.perf_counter()
    ts, us = [0.0], [1.0]
    t, u, h = 0.0, 1.0, 0.01
    for _ in range(1500):
        for s in (0.0, 0.5, 0.5, 1.0):
            d = us[bisect.bisect_right(ts, 0.5 * (t + s * h)) - 1]
            u -= h * d * d * 0.1
        t += h
        ts.append(t)
        us.append(u)
    return (time.perf_counter() - t0) / REF_KERNEL_S


def interpreter(env: dict) -> float:
    """A bare interpreter process's time now, over its reference time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   timeout=60)
    return (time.perf_counter() - t0) / REF_INTERPRETER_S


KERNEL_WINDOW = 3
INTERPRETER_WINDOW = 1


def scales(readings: list, window: int) -> list:
    """Scale factors to the reference speed for the n operations that n+1
    probe readings bracket (reading i just before operation i), from the
    `window` readings on each side."""
    n = len(readings) - 1
    return [1.0 / statistics.median(readings[max(0, i + 1 - window):
                                             i + 1 + window])
            for i in range(n)]
