"""Machine-speed reference for the benchmark's timings.

On a virtual machine shared with other tenants a core can change speed by up
to 2x within seconds, as other load on the same physical core comes and goes.
A fixed kernel timed in the same thread right before and right after a call
slows down with it, so each call is also reported at a nominal speed: its
wall time times ``NOMINAL_S`` over the mean of the two kernel times.
(Measured on a 2-vCPU 2.1 GHz virtual machine shared with other tenants: 2 s
windows of one ``monte_carlo`` call varied 10.9-17.9 ms, while the call over
the adjacent kernel time stayed within 4%.  A kernel timed in another
process, on the other core, did not track the call.)

The fanned-out sweep is the exception.  Its work runs in child processes on
both cores for about 5 s, and the speed changes within that: kernels at its
edges track it poorly.  So ``timed_fanned_out`` samples the kernel in a
thread throughout the call.  Over seven alternating runs of 30 s, the run
medians spread (IQR/median) 0.07-0.09 this way against 0.18-0.25 with edge
kernels.  The price: the sampling thread shares the machine with the call,
and its kernel ran faster beside two busy workers than beside one, by 0%,
10% and 10% in the medians of three series of 8-14 pairs.  So a change that
leaves a core idle during the sweep shows up to about a tenth smaller in
the sweep's scaled times.  ``analysis.fanout_speedup`` is a ratio of raw
wall times and shows it in full.

The module is also imported by the fresh interpreters that time set-up, so
it imports nothing from hatguess.
"""

from __future__ import annotations

import statistics
import threading
from time import perf_counter, thread_time
from typing import NamedTuple

NOMINAL_S = 0.001  # the kernel's time at nominal speed, about that of a 2.1 GHz core
SAMPLE_EVERY_S = 0.025
_WIDE = (1 << 1000) - 12345


def _kernel() -> int:
    acc = 0
    for i in range(3000):
        acc ^= (_WIDE >> (i & 63)) & (_WIDE << 3) | i
    return acc


def reference_s(clock=perf_counter) -> float:
    """Time of a fixed big-integer and bytecode kernel on ``clock``."""
    t0 = clock()
    _kernel()
    return clock() - t0


class Timing(NamedTuple):
    wall_s: float
    scaled_s: float  # wall_s at the nominal speed of the reference kernel


def scaled(wall_s: float, before_s: float, after_s: float) -> Timing:
    return Timing(wall_s, wall_s * 2 * NOMINAL_S / (before_s + after_s))


def timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` between two reference samples: (result, Timing)."""
    before = reference_s()
    t0 = perf_counter()
    result = fn(*args, **kwargs)
    wall = perf_counter() - t0
    return result, scaled(wall, before, reference_s())


def timed_fanned_out(fn, *args, **kwargs):
    """Like ``timed`` for a call whose work runs in child processes on every
    core while this process waits.  A thread samples the kernel throughout
    the call instead, on whichever core it gets, in thread CPU time so that
    waiting for a core does not count."""
    samples = [reference_s(thread_time)]
    stop = threading.Event()

    def sample() -> None:
        while not stop.wait(SAMPLE_EVERY_S):
            samples.append(reference_s(thread_time))

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
    finally:
        stop.set()
        sampler.join()
    mean = statistics.fmean(samples)
    return result, scaled(wall, mean, mean)
