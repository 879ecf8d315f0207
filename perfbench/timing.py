"""Host-calibrated timing, order statistics and peak memory.

:class:`Calibrator` runs the calibration kernel between consecutive
timed units, so each unit is bracketed by a kernel run just before and
just after it; :meth:`Calibrator.scale` returns the factor that puts
the unit's wall time at reference host speed.
"""

from __future__ import annotations

import gc
import os
import resource
import signal
import statistics
import time

from calibrate import KERNEL_NOMINAL_MS, kernel_ms

#: samples a tail percentile must leave beyond it
TAIL_BEYOND = 10
#: seconds between the kernel runs a :class:`Sampler` makes inside a unit
SAMPLE_INTERVAL_S = 0.25


def _quiet_kernel_ms() -> float:
    # a collection of the program's heap landing inside the kernel
    # would be charged to the host, so the kernel runs without one
    gc.disable()
    try:
        return kernel_ms()
    finally:
        gc.enable()


class Calibrator:
    """Kernel runs between timed units; every raw kernel time is kept.

    The speed of one CPU of a shared host drifts independently of its
    neighbours', so the kernel must run on the CPU that did the timed
    work.  ``cpus=None`` runs it wherever the calling thread runs (an
    in-process benchmark pinned to one CPU); otherwise the thread visits
    each listed CPU in turn and the kernel times are averaged (the
    service's worker CPUs, idle between batches)."""

    def __init__(self, cpus=None):
        self.cpus = cpus
        self.kernels_ms = [self._measure()]

    def _measure(self) -> float:
        if self.cpus is None:
            return _quiet_kernel_ms()
        home = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(_quiet_kernel_ms())
        finally:
            os.sched_setaffinity(0, home)
        return sum(times) / len(times)

    def refresh(self) -> None:
        """Run the kernel now, so the next unit's "before" is fresh."""
        self.kernels_ms.append(self._measure())

    def scale(self, inside=()) -> float:
        """Run the kernel after a unit; the unit's calibration factor
        (nominal kernel time over the mean of the runs around it and of
        the ``inside`` ones a :class:`Sampler` made during it)."""
        after = self._measure()
        runs = [self.kernels_ms[-1], *inside, after]
        self.kernels_ms.append(after)
        return KERNEL_NOMINAL_MS / (sum(runs) / len(runs))


class Sampler:
    """Kernel runs every :data:`SAMPLE_INTERVAL_S` inside a long unit.

    A unit lasting seconds (the width-2 compile lasts ~10 s) spans
    several host-speed phases, which the two runs at its ends miss.  A
    timer signal runs the kernel on the calling thread, between two of
    the unit's bytecodes, so it runs on the CPU doing the work;
    ``paused_ms`` is the time the runs took, to be taken out of the
    unit's wall time."""

    def __enter__(self):
        self.kernels_ms = []
        self.paused_ms = 0.0
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.kernels_ms.append(_quiet_kernel_ms())
        self.paused_ms += (time.perf_counter() - start) * 1000.0


class CpuPlan:
    """Where the benchmark runs: the client on the first allowed CPU,
    service workers one per remaining CPU (sharing the client's CPU
    when there is only one)."""

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))
        self.client = self.allowed[0]
        self.workers = self.allowed[1:] or self.allowed[:1]

    def pin_client(self) -> None:
        os.sched_setaffinity(0, {self.client})

    def pin_workers(self, pids) -> None:
        for i, pid in enumerate(pids):
            os.sched_setaffinity(pid, {self.workers[i % len(self.workers)]})

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.allowed))


def now() -> float:
    return time.perf_counter()


def since_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that leaves
    :data:`TAIL_BEYOND` samples beyond it: the 11th-largest sample.
    Below 11 samples no percentile qualifies and the maximum stands in
    (reported as percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process plus each live child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_vm_hwm_mb(pid) for pid in child_pids)
