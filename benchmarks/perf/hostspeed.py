"""Host-speed calibration: intervals timed on a shared host, rescaled to a
quiet host's speed.

On the two-vCPU VM the benchmark was sized on, neighbouring tenants slow
pure-Python code by up to 1.9x for seconds at a time, and the two vCPUs
slow down and recover independently.  The workloads cannot be made to
run on a quiet host, so each measured interval is rescaled by how fast
the host ran while it was measured.

A :class:`HostSpeed` runs one sampler thread pinned to each CPU the
process may use; the process itself stays unpinned.  Every
:data:`PERIOD_S` a sampler times a fixed reference loop (CPU time of the
second of two back-to-back calls, so the caches the measured work
evicted do not count).  An interval is rescaled by ``REFERENCE_S /
(median reference time sampled within WINDOW_S of it)``, averaged over
the CPUs the work ran on: work measured while the host ran slow reads as
it would on a quiet host.  The loop shares no code with the repository,
so a change that speeds up the repository cannot speed up the reference.

Which CPUs count: for work done in this process, the CPU its main thread
was on at each sample (the scheduler rarely moves it); for work done in
child processes spread over the CPUs, all of them.  Following the main
thread rather than pinning it keeps a later change free to use more
threads or processes.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: Seconds between reference samples.
PERIOD_S = 0.05
#: Samples this close to an interval's ends count towards its speed.
WINDOW_S = 0.25
#: CPU seconds of one warm :func:`reference` call on a quiet host (measured
#: on a 2-vCPU x86_64 VM with CPython 3.11, the benchmark's reference host).
REFERENCE_S = 0.00033


def reference() -> dict:
    """The fixed calibration work: dictionary updates in a Python loop."""
    table: dict = {}
    for i in range(4000):
        key = i % 257
        table[key] = table.get(key, 0) + i
    return table


class _Sampler:
    """Reference costs on one CPU, with the perf_counter time of each."""

    def __init__(self, cpu: int, stop: threading.Event) -> None:
        self.cpu = cpu
        self.times: List[float] = []
        self.costs: List[float] = []
        self._stop = stop
        self.thread = threading.Thread(target=self._sample, daemon=True,
                                       name=f"host-speed-{cpu}")

    def _sample(self) -> None:
        # Pins this thread only; the workload's threads stay free.
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(PERIOD_S):
            reference()
            start = time.thread_time()
            reference()
            # Cost first: readers take len(times) samples of each.
            self.costs.append(time.thread_time() - start)
            self.times.append(time.perf_counter())

    def cost(self, start: float, end: float) -> float:
        """Median cost sampled within :data:`WINDOW_S` of ``[start, end]``
        (of all samples if none; ``REFERENCE_S`` if there are none)."""
        times = self.times[:]
        costs = self.costs[:len(times)]
        if not costs:
            return REFERENCE_S
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        return statistics.median(costs[lo:hi] or costs)


def _cpu_of(tid: int) -> int:
    """The CPU thread ``tid`` of this process last ran on."""
    with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as handle:
        # Field 39 of proc(5), counted after the parenthesised name.
        return int(handle.read().rsplit(")", 1)[1].split()[36])


class HostSpeed:
    """Background samplers of the current speed of every CPU this process
    may run on.

    ``in_process`` says the measured work runs in this process's main
    thread, so the speed of the CPU it is on counts; otherwise the work
    runs in child processes and every CPU counts.  Use as a context
    manager around the measured work: on entry the samplers start, on
    exit they are stopped and joined.
    """

    def __init__(self, in_process: bool) -> None:
        self._stop = threading.Event()
        self._samplers = {cpu: _Sampler(cpu, self._stop)
                          for cpu in sorted(os.sched_getaffinity(0))}
        self._main = threading.main_thread().native_id \
            if in_process else None
        #: (perf_counter time, CPU the main thread was on).
        self._where: List[Tuple[float, int]] = []
        self._tracker = threading.Thread(target=self._track, daemon=True,
                                         name="host-speed-track")

    def _track(self) -> None:
        while self._main is not None and not self._stop.wait(PERIOD_S):
            try:
                cpu = _cpu_of(self._main)
            except (OSError, ValueError, IndexError):
                return
            self._where.append((time.perf_counter(), cpu))

    def __enter__(self) -> "HostSpeed":
        for sampler in self._samplers.values():
            sampler.thread.start()
        self._tracker.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for sampler in self._samplers.values():
            sampler.thread.join()
        self._tracker.join()

    def _cpus(self, start: float, end: float) -> List[int]:
        """The CPUs whose speed counts for ``[start, end]``, once per
        sample of where the main thread ran."""
        where = self._where[:]
        if not where:
            return list(self._samplers)
        times = [t for t, _ in where]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        nearest = min(lo, len(where) - 1)
        return [cpu for _, cpu in where[lo:hi]] or [where[nearest][1]]

    def factor(self, start: float, end: float) -> float:
        """How much faster a quiet host would have run ``[start, end]``
        (perf_counter seconds): ``REFERENCE_S`` over the reference cost
        then, averaged over the CPUs the work ran on."""
        return statistics.fmean(REFERENCE_S / self._samplers[cpu].cost(
            start, end) for cpu in self._cpus(start, end))

    def scale(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` at quiet-host speed."""
        return (end - start) * self.factor(start, end)

    def slowdown(self) -> float:
        """How much slower than quiet the host ran over all samples."""
        return 1.0 / self.factor(-float("inf"), float("inf"))


def raw(start: float, end: float) -> float:
    """The interval ``[start, end]`` as measured, not rescaled."""
    return end - start
