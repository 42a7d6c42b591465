"""Host-speed calibration for timed regions.

On a shared machine the host's speed swings by up to 2x within a
second, and slow phases can last minutes: raw host seconds of the same
run spread by a third.  A :class:`SpeedProbe` samples the host's speed
*during* a timed region: an interval timer interrupts it every
``INTERVAL_S`` and times one run of a fixed pure-Python kernel that
does not touch the code under test.  :meth:`SpeedProbe.calibrated`
then removes the probe's own time and rescales the rest to a host on
which one kernel run takes ``REFERENCE_KERNEL_S``, about an idle core
of the machine the benchmark was tuned on.  A change to the runtime
moves calibrated seconds as it moves raw ones.
"""

import signal
import statistics
import time

INTERVAL_S = 0.02
KERNEL_ITERATIONS = 600
REFERENCE_KERNEL_S = 0.0005


# The kernel reads and writes a buffer larger than a core's private
# caches, so it feels contention for the shared cache and memory the
# way the runtime does; a cache-resident kernel tracked the runtime's
# slowdowns worse.
_BUFFER = bytearray(4 << 20)


def _kernel():
    table = {}
    buf = _BUFFER
    span = len(buf) - 4
    acc = 0
    for i in range(KERNEL_ITERATIONS):
        key = (acc * 2654435761 + i * 40503) % span
        table[i & 255] = table.get(i & 255, 0) + i
        acc = (acc * 33 + int.from_bytes(buf[key:key + 4], "little")
               + (i ^ key)) & 0xFFFFFFFF
        buf[key] = acc & 0xFF
    return acc


def _time_kernel():
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples kernel run times while the ``with`` block runs."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        self.samples.append(_time_kernel())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def calibrated(self, seconds):
        """``seconds`` measured inside the block, minus the probe's own
        time, at the reference host speed."""
        samples = self.samples or [_time_kernel()]
        busy = sum(self.samples)
        return (seconds - busy) * REFERENCE_KERNEL_S / statistics.fmean(
            samples)
