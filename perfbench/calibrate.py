"""Machine-speed calibration next to every piece of measured work.

The benchmark host is shared: its speed drifts by about ±20% over tens of
seconds, and at times by 1.6x, with other tenants' load.  That is more
than any regression the benchmark must catch, and it moves between runs,
so no amount of repetition inside one run averages it away.  A fixed
pure-Python loop (the benchmark's own code, never the program's) is timed
right before and right after each piece of CPU work, a few hundred
milliseconds at most; the piece's *slowdown* is the mean of the two
readings over :data:`REFERENCE_S`, and CPU-bound times are reported
divided by it: as they would read at the reference speed.  Measured on
the zoo corpus, this cut the run-to-run spread of the batch wall time
from about 0.18 to about 0.06 of its median.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Tuple

__all__ = ["REFERENCE_S", "Calibrated", "slowdown"]

#: Time of one calibration loop at the reference speed (the fast regime
#: of a 2-vCPU cloud VM running Python 3.11).
REFERENCE_S = 0.006


def slowdown(clock: Callable[[], float] = time.perf_counter) -> float:
    """One calibration reading: how many times slower than the reference.

    Pass ``time.thread_time`` to read from a thread that other threads may
    keep waiting on the interpreter lock: that wait is not CPU time.
    """
    started = clock()
    total, table = 0, {}
    for index in range(50_000):
        total += index * index % 7
        table[index & 1023] = total
    return (clock() - started) / REFERENCE_S


class Calibrated:
    """Runs pieces of work, each between two calibration readings."""

    def __init__(self) -> None:
        slowdown()  # the first loop of an interpreter pays one-off costs
        self._last = slowdown()

    def run(self, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, float, float]:
        """``(value, elapsed seconds, slowdown)`` of one call."""
        before = self._last
        started = time.perf_counter()
        value = function(*args, **kwargs)
        elapsed = time.perf_counter() - started
        self._last = slowdown()
        return value, elapsed, (before + self._last) / 2
