"""Host-speed-normalized timing: wall time rescaled by a reference kernel.

On a shared host a fixed piece of CPU work runs at speed levels that each
hold for seconds to minutes and differ by up to 1.7x, the same on the
process CPU clock as on the wall clock (no steal, no frequency counters to
read), and independently on each core. Longer runs do not average such
shifts out. `Pace` therefore times a short fixed reference kernel on the
same core every `period` seconds while the measured code runs (SIGALRM;
the handler runs between bytecodes, so a long C call only delays it) and
charges each call at the speed those samples saw:

    paced_s = (wall_s - handler_s) * REFERENCE_S / trimmed_mean(kernel_sample_s)

`REFERENCE_S` is a fixed constant, so paced seconds are seconds on a host
where the kernel takes that long; the handler's own time is left out.
The kernel is pure Python in two equal parts: a loop filling a small dict
and set (core speed) and lookups in a 20k-entry dict of about 1.5 MB
(cache speed). The lookups run once untimed first, so the sample
does not depend on how much of the table the measured code evicted: a
kernel timed cold read the workload's own memory traffic, and spread more
than wall time did.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds the reference kernel is charged at; about its level in a
# measured process on the 2-vCPU Xeon VM this was written on.
REFERENCE_S = 1.3e-3
PERIOD_S = 0.04
LEVEL_RUNS = 51

_TABLE = {i * 2654435761 % 1_000_003: i for i in range(20_000)}
_KEYS = [i * 2654435761 % 1_000_003 for i in range(0, 20_000, 4)] * 2


def reference_kernel() -> float:
    """Run the kernel once; return the seconds of its timed part."""
    for key in _KEYS:  # bring the table back into cache, untimed
        _TABLE[key]
    start = time.perf_counter()
    table: dict[int, int] = {}
    seen = set()
    acc = 0
    for i in range(1000):
        table[i] = (i * 7919) % 1009
        seen.add(table[i] ^ i)
        acc += table[i] & 7
    for key in _KEYS:
        acc += _TABLE[key]
    return time.perf_counter() - start


def level(kernel_s) -> float:
    """Mean kernel seconds without the fastest and slowest tenth of samples.

    Single samples stray by tens of percent, so the plain mean wanders; the
    median flipped between two modes of samples taken inside numpy code.
    """
    kernel_s = sorted(kernel_s)
    cut = len(kernel_s) // 10
    return statistics.fmean(kernel_s[cut:len(kernel_s) - cut])


def reference_level() -> float:
    """`level` of LEVEL_RUNS back-to-back kernel runs: the host's speed now."""
    return level(reference_kernel() for _ in range(LEVEL_RUNS))


class Pace:
    """Records (start, handler seconds, kernel seconds) samples while active."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel_s = reference_kernel()
        self.samples.append((start, time.perf_counter() - start, kernel_s))

    def __enter__(self):
        reference_kernel()  # warm the kernel's code before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def paced(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, paced seconds) of [start, end] without the handler's time.

        The call is charged at the `level` of the samples taken during it,
        or of all samples so far if none was. Speed levels hold for
        seconds, so one level per call loses little, while charging each
        stretch between samples at its own sample, or at a median of its
        neighbours, spread repeated runs more.
        """
        if not self.samples:
            self._tick()
        inside = [s for s in self.samples if start <= s[0] and s[0] + s[1] <= end]
        wall = end - start - sum(s[1] for s in inside)
        return wall, wall * REFERENCE_S / level(s[2] for s in (inside or self.samples))
