"""Host-speed sampler for the timed calls of the fotsim benchmark.

The benchmark shares a few cores of a host with other tenants.  The speed of
the core it runs on moves by ±15% from one call to the next, and by more
over minutes, for reasons that have nothing to do with the program.  To take
that out of the end-to-end timings, a fixed pure-Python kernel is timed every
``PERIOD_S`` during each untraced call, from a ``SIGALRM`` handler in the
same thread, so it runs on the same core at the same moments as the call.
The slowdown of a call is the kernel's mean time during it over
``NOMINAL_KERNEL_S``.  The call's wall time, less the time spent in the
kernel, is divided by the slowdown to the power ``SENSITIVITY``.  The result
estimates the wall time the call would have taken on a core where the kernel
takes ``NOMINAL_KERNEL_S``.

The kernel is benchmark code and imports nothing from fotsim, so a change to
the program cannot move it.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager

PERIOD_S = 0.05
KERNEL_ITERATIONS = 8000
# the kernel's median time on the two-core host the benchmark was set up on;
# it fixes the scale of the normalized times, not their ratios
NOMINAL_KERNEL_S = 1.0e-3
# On that host a call's wall time grew as the slowdown to this power: the
# least-squares slope of log wall time on log slowdown, over 56 to 76 calls,
# was 1.34 on sync_nodes, 1.44 on clocks_flicker and 1.18 on analyze_tdev.
# Contention from other tenants slows the program, whose working set spills
# out of the core's private caches, more than the L1-resident kernel.  The
# kernel stays that small so that the program's own cache footprint cannot
# move it.
SENSITIVITY = 1.35


def _kernel() -> float:
    x = 0.5
    for i in range(KERNEL_ITERATIONS):
        x = (x * 1.0000001 + i * 1e-3) % 97.0
    return x


class HostSpeed:
    """Kernel timings taken while one call runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - t0)

    @contextmanager
    def sampling(self):
        """Time the kernel every PERIOD_S until the block exits."""
        self.samples.clear()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def normalize(self, wall: float) -> tuple[float, float, float]:
        """(wall without the kernel, normalized wall, slowdown) of the call
        just sampled, whose measured wall time is `wall`."""
        if not self.samples:
            raise RuntimeError("the call ended before the host speed was sampled")
        busy = sum(self.samples)
        slowdown = busy / len(self.samples) / NOMINAL_KERNEL_S
        raw = wall - busy
        return raw, raw / slowdown ** SENSITIVITY, slowdown
