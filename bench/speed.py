"""CPU-speed sampler: rescales a child's times to a fixed reference speed.

On a shared virtual machine the speed of a vCPU drifts with the load of other
tenants: a fixed pure-Python loop can take anywhere from 1x to 2x its fastest
time, over seconds and over hours, so a wall time measures the neighbours as
much as the program. The sampler measures that speed where the program runs:
a real-time interval timer interrupts the child every ``INTERVAL_S`` and the
signal handler times one fixed probe loop (about 1 ms). The wall time since
the previous probe is converted to reference seconds with the speed of the
probe that follows it:

    ref_s += (now - previous_probe_end) * PROBE_REF_S / probe_s

so a repetition's reference time is the wall time it would have taken at the
probe's reference speed, and a change that makes the program do less work
lowers it in proportion. Probe time itself is excluded. Python runs the
handler between bytecodes, so a long C call (numpy) delays the next probe;
the interval then simply covers the whole call.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.04
PROBE_ITERATIONS = 10_000
# Time of one probe at the reference speed: about its fastest time on a
# 2-vCPU Intel Xeon VM at 2.1 GHz with CPython 3.12. Only a scale factor:
# both sides of a comparison use the same constant.
PROBE_REF_S = 0.0012


def probe() -> int:
    """A fixed mix of dictionary, integer and branch work, like clustem's
    pure-Python loops."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(PROBE_ITERATIONS):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
        total += key * 3
    return total


class SpeedSampler:
    """Accumulates reference seconds between ``start`` and ``stop``."""

    def __init__(self) -> None:
        self.ref_s = 0.0
        self.probe_s = 0.0
        self.probes = 0
        self._last_end = 0.0
        self._last_probe_s = 0.0
        self._previous_handler = None

    def _probe(self) -> None:
        began = time.perf_counter()
        probe()
        ended = time.perf_counter()
        seconds = ended - began
        if self.probes:
            self.ref_s += (began - self._last_end) * PROBE_REF_S / seconds
        self.probes += 1
        self.probe_s += seconds
        self._last_end, self._last_probe_s = ended, seconds

    def _handler(self, signum, frame) -> None:
        self._probe()

    def start(self) -> None:
        self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def reading(self) -> tuple[float, float]:
        """(reference seconds, probe seconds) so far; the interval since the
        last probe is rated at that probe's speed."""
        # A probe in the middle of this sum would count its interval twice.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            partial = (time.perf_counter() - self._last_end) * PROBE_REF_S / self._last_probe_s
            return self.ref_s + partial, self.probe_s
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
