"""The machine's speed, sampled all through a timed stretch of work.

A shared host runs the same code at speeds a quarter or more apart, in spells
from seconds to minutes, so raw CPU seconds of two runs of the same code
differ by more than a change worth detecting.  ``SpeedClock`` interrupts the
work every ``INTERVAL_S`` of wall time (``ITIMER_REAL``) and runs a fixed
probe: ``probe`` below, pure-Python integer, dict and list work like the
engine's.  The probes' mean CPU time over ``REFERENCE_PROBE_S`` (0.5 ms, about
their mean on an idle 2-vCPU Xeon) is how slow the machine ran while the work
ran; a time divided by that ratio is the time the work would take at the
reference speed.  The probes' own CPU time is left out of the work's, and
costs it about 2.5%.

A probe runs in the cache state the work leaves, as the work's own next steps
do; a probe re-run on warm caches tracked the engine's speed less closely.
Python runs a signal handler between bytecodes of the main thread, so a probe
waits for a long C call to return; the engine's C calls (big-int operations)
are short.  ``ITIMER_PROF`` would count CPU time instead, but while it is
armed Linux serves the process CPU clock from the scheduler tick, too coarsely
to time a probe.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
MIN_PROBES = 25  # half a second of work
REFERENCE_PROBE_S = 0.0005
_MASK = (1 << 1024) - 1


def probe() -> int:
    """A fixed slice of interpreter work: about 0.5 ms at the reference speed."""
    table: dict[int, int] = {}
    rows: list[int] = []
    acc = 0x9E3779B97F4A7C15
    for i in range(400):
        acc = ((acc << 7) ^ (acc >> 3) ^ i) & _MASK
        key = acc & 1023
        table[key] = table.get(key, 0) ^ acc
        rows.append(acc >> (i & 63))
        if rows[-1] & 1:
            rows.pop()
    return len(table) + len(rows)


class SpeedClock:
    """Work CPU time and probe samples of this process since ``start``."""

    def __init__(self) -> None:
        self.probe_s = 0.0  # CPU time spent in probes
        self.probes = 0
        self._busy = False

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.process_time()
        probe()
        self.probe_s += time.process_time() - start
        self.probes += 1
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def read(self) -> tuple[float, float, int]:
        """(work CPU seconds, probe CPU seconds, probes) so far."""
        now = time.process_time()
        return now - self.probe_s, self.probe_s, self.probes


def ratio(start: tuple, end: tuple) -> float | None:
    """Mean probe time between two ``read``s over the reference; None if no probe ran."""
    probes = end[2] - start[2]
    return (end[1] - start[1]) / probes / REFERENCE_PROBE_S if probes else None


def scaled(start: tuple, end: tuple, fallback: float | None = None) -> float:
    """Work time between two ``read``s, at the reference speed.

    A stretch with fewer than ``MIN_PROBES`` probes of its own takes the
    ``fallback`` ratio of an enclosing stretch when there is one.
    """
    own = ratio(start, end)
    if end[2] - start[2] < MIN_PROBES and fallback is not None:
        own = fallback
    return (end[0] - start[0]) / (own or 1.0)
