"""Host speed: fixed pieces of work that time the host, and host times
scaled by them.

The host the benchmark runs on changes speed by up to a factor of two, in
stretches from a fraction of a second to minutes, and the whole machine
slows at once, though not every kind of work by the same factor. A time
divided by the time of fixed work done beside it keeps the program's cost
and drops most of the host's drift.

``HostClock`` times a block of code. While the block runs, an interval timer
interrupts it every ``SAMPLE_INTERVAL_S`` and runs a kernel once: fixed work
of the block's own kind. ``RUN``, for a simulation, mixes a pure-Python loop
and small numpy operations; on the reference host either part alone follows
ttlab's slowdowns less closely than the two together. ``WRITE``, for the
writers, formats floats to text, which followed the writers' slowdowns
closer than ``RUN`` did. The block's time without the kernel runs, divided
by the kernel's mean time and multiplied by the kernel's ``reference_ms``,
is its time in seconds of a reference host on which the kernel takes that
long.

``calibrate`` is a longer fixed piece of pure-Python work, timed where no
timer may run: around a set-up in a fresh interpreter, and before and after
a whole workload, as a diagnostic. This module imports nothing but ``time``
at the top, so that a set-up measurement can load it before its clock
starts.
"""

from __future__ import annotations

import time

CALIBRATION_N = 200_000
# Python source of 300 small functions, compiled and run by `calibrate`.
CALIBRATION_SOURCE = "".join(
    f"def f{i}(a, b={i}):\n    x = [a, b, {i}]\n    return {{'k': x, 'n': len(x)}}\n" for i in range(300)
)
# About `calibrate`'s time in a fresh interpreter on the reference host.
REFERENCE_CALIBRATION_MS = 40.0

SAMPLE_INTERVAL_S = 0.025
# About a third of the run kernel's time is the loop, two thirds numpy.
KERNEL_LOOP_N = 2_500
KERNEL_NUMPY_N = 60
WRITE_KERNEL_FLOATS = tuple(1.0 / (k + 3) for k in range(40))
WRITE_KERNEL_N = 6


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop plus compiling and running
    a fixed module source, about half the time each. Importing is mostly the
    second kind of work, and the two together follow the host's slowdowns
    of a set-up more closely than either alone."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(CALIBRATION_N):
        acc += k * k % 7
    exec(compile(CALIBRATION_SOURCE, "<calibration>", "exec"), {})
    return (time.perf_counter() - t0) * 1e3


def calibrated_s(seconds: float, before_ms: float, after_ms: float) -> float:
    """`seconds` of host time, taken between two calibrations, in seconds
    of the reference host."""
    return seconds * REFERENCE_CALIBRATION_MS / ((before_ms + after_ms) / 2)


def run_kernel() -> None:
    """Fixed work like a simulation's: a Python loop, small numpy arrays."""
    import numpy

    acc = 0
    for k in range(KERNEL_LOOP_N):
        acc += k * k % 7
    v = numpy.arange(8.0)
    x = 0.0
    for k in range(KERNEL_NUMPY_N):
        b = v * 1.5 + k
        x += float(numpy.sqrt(b @ b)) + float(numpy.minimum(b, 3.0).sum())


def write_kernel() -> None:
    """Fixed work like a writer's: floats formatted to text, joined, encoded."""
    for _ in range(WRITE_KERNEL_N):
        ",".join(format(v, ".17g") for v in WRITE_KERNEL_FLOATS)
        "\r\n".join(str(k) for k in range(40)).encode()


class Kernel:
    """A sampling kernel and its time on the reference host (Python 3.11.7,
    numpy 2.4.6, a 2-vCPU Xeon VM) in its faster state."""

    def __init__(self, work, reference_ms: float) -> None:
        self.work = work
        self.reference_ms = reference_ms

    def __call__(self) -> float:
        """Milliseconds for one run of the kernel."""
        t0 = time.perf_counter()
        self.work()
        return (time.perf_counter() - t0) * 1e3


RUN = Kernel(run_kernel, 0.65)
WRITE = Kernel(write_kernel, 0.25)


class HostClock:
    """Time the block inside ``with``: ``host_s`` is its wall time,
    ``net_s`` the same without the kernel runs the timer made, ``kernel_ms``
    every kernel time (one before, those during, one after the block),
    ``spent`` the time in kernel runs so far and ``ref_s`` the net time in
    reference seconds.

    Only the main thread receives the timer's signal, so a clock works there
    only, and one at a time. Without a kernel the clock samples nothing and
    measures ``host_s`` only (``net_s`` equals it).
    """

    def __init__(self, kernel: "Kernel | None" = None) -> None:
        self.kernel = kernel
        self.kernel_ms: list = []
        self.spent = 0.0

    def __enter__(self) -> "HostClock":
        if self.kernel is not None:
            import signal

            self.kernel_ms.append(self.kernel())
            self._old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.kernel_ms.append(self.kernel())
        self.spent += time.perf_counter() - t0

    def __exit__(self, *exc) -> None:
        self.host_s = time.perf_counter() - self._t0
        self.net_s = self.host_s
        if self.kernel is None:
            return
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.kernel_ms.append(self.kernel())
        self.net_s -= self.spent
        self.ref_s = self.ref(self.net_s)

    def ref(self, seconds: float, since: int = 0) -> float:
        """`seconds` of host time inside the block, in reference seconds,
        scaled by the kernel runs from index `since` of ``kernel_ms`` on."""
        ms = self.kernel_ms[since:]
        return seconds * self.kernel.reference_ms / (sum(ms) / len(ms))
