"""Correction of the end-to-end timings for the speed the VM gives the worker.

The benchmark runs on shared virtual machines whose vCPUs lose speed for
reasons outside the program, on two time scales that a run cannot average
away:

* the hypervisor deschedules the vCPU.  Linux counts this as steal time in
  ``/proc/stat``, and the process CPU time still includes it;
* the host core runs the vCPU slower while its neighbours load it (its
  hyperthread sibling, shared caches, clock).  On the machine the benchmark
  was written on, a fixed pure-Python loop ran about 1.5 times slower for
  minutes at a time, and the pipelines slowed by the same factor.

A ``Meter`` measures both while a timed region runs.  Every
``INTERVAL_S`` of wall time a ``SIGALRM`` handler times a fixed loop of
``PROBE_STEPS`` integer operations, the probe.  ``speed`` is the mean over
the probes of ``REFERENCE_PROBE_S / duration``: the share of the reference
core speed the region ran at.  ``stolen`` is the share of the vCPUs' busy
ticks that were steal ticks over the region.  ``adjust`` turns a measured
time into reference seconds, ``time * (1 - stolen) * speed``: the time the
region would have taken on an undisturbed core at the reference speed.
The raw times are reported next to the adjusted ones.

Probe overhead is about 0.2 % of a region (a 30 us loop every 20 ms).  A
signal handler runs between bytecodes, so during one long C call the probes
wait until it returns; the mean then leans on the Python-level stretches.
"""

from __future__ import annotations

import signal
import time

PROBE_STEPS = 300
# The probe's duration at the reference core speed: about its median on the
# 2-vCPU Xeon (Sapphire Rapids) KVM guest with CPython 3.11 where the
# benchmark was written.  Only the scale of the adjusted times depends on it.
REFERENCE_PROBE_S = 30e-6
INTERVAL_S = 0.02

# fields of the first line of /proc/stat that count a busy vCPU:
# user nice system (idle iowait) irq softirq steal
_BUSY_FIELDS = (0, 1, 2, 5, 6, 7)
_STEAL_FIELD = 7


def cpu_ticks():
    """(steal, busy) ticks summed over all vCPUs, or (0, 0) where the kernel
    does not publish them."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    if len(fields) <= _STEAL_FIELD:
        return 0, 0
    return fields[_STEAL_FIELD], sum(fields[k] for k in _BUSY_FIELDS)


def stolen_share(before, after):
    steal = after[0] - before[0]
    busy = after[1] - before[1]
    return min(max(steal / busy, 0.0), 1.0) if busy > 0 else 0.0


def _probe_loop():
    s = 0
    for i in range(PROBE_STEPS):
        s += i * i
    return s


class Meter:
    """Speed and steal over a timed region: ``start()``, the region,
    ``stop()``; the reading is kept in ``speed`` and ``stolen``."""

    def __init__(self):
        self.durations = []
        self.speed = 1.0
        self.stolen = 0.0
        self._ticks = (0, 0)

    def _sample(self, signum=None, frame=None):
        t = time.perf_counter()
        _probe_loop()
        self.durations.append(time.perf_counter() - t)

    def start(self, ticks=None):
        """Start metering; ``ticks`` is a ``cpu_ticks()`` reading taken
        earlier, when the region began before this process could meter."""
        self.durations = []
        self._ticks = cpu_ticks() if ticks is None else ticks
        signal.signal(signal.SIGALRM, self._sample)
        signal.siginterrupt(signal.SIGALRM, False)   # restart system calls
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._sample()

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self.speed = (sum(REFERENCE_PROBE_S / d for d in self.durations)
                      / len(self.durations))
        self.stolen = stolen_share(self._ticks, cpu_ticks())
        return self

    def adjust(self, seconds):
        return seconds * (1.0 - self.stolen) * self.speed
