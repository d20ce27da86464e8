"""Host-speed probe: a fixed piece of pure-Python work, timed while the
measured calls run, so that their times can be rescaled to one reference
speed.

On a shared host the CPU's throughput drifts by 15-50% within seconds to
minutes (a fixed loop took 0.25 s and then 0.38 s on the same 2-vCPU VM
within one minute), and a process's CPU time drifts with its wall time, so
neither is steady from run to run.  The probe does the same kinds of work
as the program (Python loops over big-integer products, and interpreter-
bound small-integer and dictionary operations) but calls none of its code,
so a change to the program never moves the probe.

``Sampler`` runs the probe every few hundredths of a second in a thread of
the measured process pinned to a CPU.  A single-process caller pins itself
to the sampler's CPU, and the interpreter lets one thread run at a time, so
each sample runs on the same CPU, at the same moment, as the measured work
it interrupts; the samples' own time is taken out of the measured time.
(Unpinned, the sampling thread wakes on another CPU and measures that one:
on a VM whose vCPUs share a core, the two read up to 1.8 times apart.)
While a worker pool keeps every CPU busy, one sampler on each CPU measures
the CPUs the workers share.

A time rescaled by ``rescale`` reads as the seconds the call would have
taken on a host where one probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# about one probe's time on an otherwise idle 2-vCPU Xeon VM, Python 3.11
REFERENCE_S = 0.0007

_COEFFS = [(3 ** 90 + 7 * k) * (k + 1) for k in range(44)]


def _work() -> None:
    """Schoolbook product of two fixed polynomials with 150-bit coefficients,
    then a loop of small-integer and dictionary operations; allocates no
    object that the garbage collector tracks but one list."""
    out = [0] * (2 * len(_COEFFS) - 1)
    for i, x in enumerate(_COEFFS):
        for j, y in enumerate(_COEFFS):
            out[i + j] += x * y
    total, seen = 0, {}
    for i in range(2400):
        total += i * i % 7
        seen[i & 63] = total


def probe() -> float:
    """Seconds that one probe takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def usable_cpus() -> list:
    """The CPUs this process may run on (``[None]`` where that is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def pin(cpus) -> None:
    """Keep the calling thread, and every thread it starts from now on, on
    ``cpus``."""
    if hasattr(os, "sched_setaffinity") and None not in cpus:
        os.sched_setaffinity(0, set(cpus))


def rescale(seconds: float, readings) -> float:
    """``seconds`` measured while the probe took ``readings``, rescaled to
    the reference speed by the readings' median."""
    return seconds * REFERENCE_S / statistics.median(readings)


class Sampler:
    """Times one probe every ``interval`` seconds on each of ``cpus``, in
    one background thread pinned to each.

    ``samples`` holds ``(perf_counter at start, seconds, cpu)`` triples.
    Use as a context manager; leaving it stops the threads and waits for
    them.
    """

    def __init__(self, cpus, interval: float = 0.04):
        self.interval = interval
        self.samples: list[tuple[float, float, object]] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._loop, args=(cpu,), name=f"hostspeed-{cpu}", daemon=True)
            for cpu in cpus
        ]

    def _loop(self, cpu) -> None:
        pin([cpu])
        while not self._stop.wait(self.interval):
            self.samples.append((time.perf_counter(), probe(), cpu))

    def __enter__(self) -> "Sampler":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def window(self, start: float, end: float, cpus=None) -> tuple[list, float]:
        """The readings of the samples on ``cpus`` (default: all) that began
        in ``[start, end)``, and the seconds they took together.  When none
        did, a probe taken now stands in, and no time is taken out."""
        inside = [
            seconds for at, seconds, cpu in self.samples
            if start <= at < end and (cpus is None or cpu in cpus)
        ]
        if inside:
            return inside, sum(inside)
        return [probe()], 0.0
