"""The host's pace, sampled with a fixed kernel, and a clock that leaves
the samples out.

The shared host this benchmark was written on changes pace by 10-50% over
milliseconds to tens of seconds, and process CPU time drifts with wall
time, so it is contention from other tenants, not descheduling.  Raw wall-clock
figures of two runs of the same code then differ by more than the
benchmark's bounds.  So the benchmark reports every time at a reference
speed: a wall-clock timer interrupts the process every SAMPLE_EVERY_S, also
in the middle of an op, and times a fixed pure-Python kernel.  A measured
interval is multiplied by the mean of REFERENCE_KERNEL_S over the kernel
times taken during it and just before and after it; the samples are evenly
spaced in time, so that mean weighs each stretch of the interval alike.  The kernel is the
benchmark's own code, so a change to modelk moves scaled times as it moves
wall-clock ones; only the host's drift is divided out.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

SAMPLE_EVERY_S = 0.02
# the kernel's time at the reference speed: about its median on a 2-vCPU
# shared cloud VM, so scaled times read close to that machine's wall clock
REFERENCE_KERNEL_S = 0.0011


def _kernel():
    """Fixed work of the kinds modelk does: rational arithmetic, then
    tuples sorted, hashed into sets and dicts and rebuilt.  Of the kernels
    tried, these two tracked modelk's pace across the host's fast and slow
    phases (time ratio about 1:1); pure integer arithmetic sped up less
    than modelk in fast phases, and random lookups in a large dict hardly
    moved at all.  It frees all it allocates, so it leaves the cyclic GC's
    counts as it found them."""
    x = Fraction(1, 3)
    table = {}
    for i in range(60):
        x = (x * Fraction(i % 7 + 1, 5) + 1) / (x + 2)
        key = (i % 13, x.denominator % 17)
        table[key] = table.get(key, 0) + 1
    rows = [tuple((i * j) % 11 for j in range(6)) for i in range(40)]
    for _ in range(6):
        rows.sort(key=lambda r: (r[1], r[0]))
        table.update((r, len(table)) for r in set(rows))
        rows = [tuple(x + 1 for x in r) for r in rows]
    return len(table)


def kernel_time():
    t = perf_counter()
    _kernel()
    return perf_counter() - t


class Speedometer:
    """Kernel samples on a timer, while in use as a context manager.

    `clock()` is wall time minus the time spent in samples.  `mark()` is
    the index of the last sample so far; an interval that starts at mark a
    and ends at mark b is scaled by `scale(a, b + 1)`, which covers the
    samples in it and the first one after it (taken when leaving the
    context, at the latest)."""

    def __init__(self):
        self.samples = []  # kernel seconds, in order
        self.paused = 0.0  # wall seconds spent taking samples

    def clock(self):
        return perf_counter() - self.paused

    def mark(self):
        return len(self.samples) - 1

    def scale(self, first, last):
        return statistics.fmean(REFERENCE_KERNEL_S / k
                                for k in self.samples[first:last + 1])

    def _sample(self, *_):
        t = perf_counter()
        self.samples.append(kernel_time())
        self.paused += perf_counter() - t

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
