"""CPU time scaled to a fixed machine speed.

On a shared host the CPU time of the same work drifts by a third within
seconds, as other tenants load the cores this process runs on. A fixed
reference kernel, timed right before, right after and every
SAMPLE_INTERVAL_S inside each timed call, measures how fast the machine
ran, and each stretch between two samples is reported as the time it
would have taken when the kernel takes `REFERENCE_S`:

    scaled = cpu_time * REFERENCE_S / mean(kernel time before, kernel time after)

In six back-to-back rounds of outbreak (200 steps, seed 1), the quartile
spread of the raw stepping time was 16% of its median and that of the
scaled time 8%; for transit it fell from 25% to 6%. What is left is drift
that slows the simulator's large heap more than the kernel's small one; a
second kernel that sums a 100 000-int list in shuffled order tracked it
no better.

The kernel is pure Python of the same kind as the simulator (dict
lookups, small hashes, integer and string work) and allocates no object
the cyclic collector tracks, so it does not move the program's
collections. It does not call the program, so a change to the program
moves the scaled time as much as the raw time.
"""

from __future__ import annotations

import hashlib
import signal
import time

# Thread CPU time: the measured process is single-threaded, and while a SIGPROF
# timer is armed the process-wide CPU clock can read stale inside the handler.
clock = time.thread_time

REFERENCE_S = 0.0025  # kernel CPU time that defines the reporting speed
KERNEL_REPS = 3
SAMPLE_INTERVAL_S = 0.05  # CPU time between two kernel samples inside a timed call

_TABLE = {i: i * 2654435761 % 2**32 for i in range(4096)}


def _kernel() -> int:
    acc = 0
    for i in range(1000):
        acc = (acc + _TABLE[(acc ^ i) & 4095]) & 0xFFFFFFFF
        digest = hashlib.blake2b(acc.to_bytes(4, "big"), digest_size=8).digest()
        acc ^= int.from_bytes(digest, "big") & 0xFFFF
        acc += len(f"{i}:{acc}")
    return acc


def kernel_time() -> float:
    """Median CPU time of KERNEL_REPS runs of the kernel; one run alone
    jitters by a third."""
    times = []
    for _ in range(KERNEL_REPS):
        t0 = clock()
        _kernel()
        times.append(clock() - t0)
    return sorted(times)[KERNEL_REPS // 2]


class ScaledTimer:
    """Times calls in CPU seconds scaled by the kernel's speed around them.

    The kernel is timed before and after each call and, every `interval`
    CPU seconds, inside it, from a SIGPROF handler; each stretch of the
    call between two kernel samples is scaled by their mean. Kernel time
    inside the call is not counted. `interval=None` samples only before
    and after, for traced runs whose layer timers must not see the kernel.
    """

    def __init__(self, interval: float | None = SAMPLE_INTERVAL_S):
        self.interval = interval
        self.before = kernel_time()

    def time(self, fn, *args):
        """(fn's result, scaled seconds of the call)."""
        starts: list[float] = []
        ends: list[float] = []
        speeds: list[float] = []

        def sample(_signum, _frame):
            starts.append(clock())
            speeds.append(kernel_time())
            ends.append(clock())

        if self.interval is not None:
            previous = signal.signal(signal.SIGPROF, sample)
            signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            t0 = clock()
            out = fn(*args)
        finally:
            if self.interval is not None:
                signal.setitimer(signal.ITIMER_PROF, 0, 0)
                signal.signal(signal.SIGPROF, previous)
        t1 = clock()
        after = kernel_time()
        kernels = [self.before, *speeds, after]
        stretches = zip([t0, *ends], [*starts, t1])
        scaled = sum((stop - start) * 2 * REFERENCE_S / (kernels[i] + kernels[i + 1])
                     for i, (start, stop) in enumerate(stretches))
        self.before = after
        return out, scaled
