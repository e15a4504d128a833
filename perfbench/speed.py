"""Machine-speed probe: a fixed pure-Python loop, timed during every op.

On a shared virtual machine the speed of the same code can change by up to
2x in phases that last from seconds to minutes (on a 2-vCPU Intel Xeon VM
one probe unit took 0.21 ms in one phase and 0.43 ms in another), so a raw
latency measures the phase as much as the program.  The probe times a small
loop that never touches floqtess: a few *units* right before and right after
every op, and one unit every ``INTERVAL_S`` while the op runs (a wall-clock
timer signal runs it between bytecodes).  The op's latency, net of the
probe's own time, is scaled to the speed at which one unit takes ``REF_S``:

    latency at reference speed = net latency * REF_S / mean(unit times)

leaving out any unit that lost the processor while it ran (see ``scale``).

A change to the program moves the scaled latency as much as the raw one,
since the probe's work is fixed; a change of machine speed moves the raw
latency and the unit times together and mostly cancels (the program does
not slow by exactly the probe's factor).  The probe's loop holds one small
dict and no other containers, so it triggers no garbage collection of the
program's objects.
"""

from __future__ import annotations

import signal
from statistics import fmean, median
from time import perf_counter

# One unit's time at the reference speed: about its median on a 2-vCPU Intel
# Xeon virtual machine, so that scaled latencies there read close to raw ones.
REF_S = 0.3e-3
UNIT_LOOPS = 800
BOUNDARY_UNITS = 8
INTERVAL_S = 0.025
DESCHEDULED = 3.0


# The loop mixes small-int arithmetic, dict stores, tuple-keyed lookups and
# big-int bit flips, as floqtess's own inner loops do.
_KEYS = [(i, i * 7 % 13) for i in range(256)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}


def _loop(n: int) -> int:
    acc = bits = 0
    table = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        table[acc & 255] = i
        bits ^= 1 << _INDEX[_KEYS[i & 255]]
    return acc + bits.bit_count()


def unit() -> float:
    """Seconds one unit of the probe loop takes now."""
    start = perf_counter()
    _loop(UNIT_LOOPS)
    return perf_counter() - start


def probe() -> list[float]:
    """Unit times of a boundary probe, BOUNDARY_UNITS units back to back."""
    return [unit() for _ in range(BOUNDARY_UNITS)]


def scale(seconds: float, units: list[float]) -> float:
    """``seconds`` at the reference speed, from the unit times around it.

    A unit that took over ``DESCHEDULED`` times the median lost the
    processor while it ran (single units of 5-10 ms occur among units of
    0.3 ms); it measures the scheduler, not the speed, and is left out.
    """
    typical = median(units)
    return seconds * REF_S / fmean([u for u in units if u <= DESCHEDULED * typical])


class Sampler:
    """Runs one probe unit every ``interval`` seconds of wall time while started.

    ``stop(until)`` returns the unit times of the ticks that began before
    ``until`` and the seconds they took, which the caller subtracts from the
    time it measured.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self._ticks: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        start = perf_counter()
        _loop(UNIT_LOOPS)
        self._ticks.append((start, perf_counter() - start))

    def start(self) -> None:
        self._ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self, until: float) -> tuple[list[float], float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        units = [d for start, d in self._ticks if start < until]
        self._ticks = []
        return units, sum(units)
