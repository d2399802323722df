"""A machine-speed reference for the timed runs.

The benchmark runs on shared virtual machines whose speed jumps by up to
two thirds from one second to the next, in wall time and CPU time alike.
Raw op times then say more about the share of a run spent in slow phases
than about the library.  So while the timed loop runs, a profiling timer
interrupts it every `INTERVAL_S` of CPU time, inside the ops too, to run a
fixed pure-Python kernel written in the library's idiom (frozen
dataclasses, tuples, generator expressions, dicts).  An op's time, less
the kernel runs inside it, is multiplied by the mean of `REFERENCE_S / k`
over the kernel times k measured during it, or nearest to it.  Times are
then in reference seconds: what the op would take on a machine where one
kernel run takes `REFERENCE_S`.  The kernel belongs to the benchmark and
does not call the library, so a faster library still reads faster.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from dataclasses import dataclass

# About the kernel time on a 2-vCPU x86-64 VM with Python 3.11.7 in its
# faster phases; fixed, so scaled times compare across runs and commits.
REFERENCE_S = 0.0005
# CPU time between kernel runs; the kernel takes about 2% of a run.
INTERVAL_S = 0.04
# An op is scaled by at least this many kernel runs, the nearest in time
# when fewer ran inside it.
MIN_SAMPLES = 4
# In a fresh interpreter, kernel runs after warm-up, and runs in all.
WARMUP_RUNS, FRESH_RUNS = 5, 20


@dataclass(frozen=True)
class _Cell:
    bits: tuple[bool, ...]
    tag: str


def kernel() -> int:
    cells = [_Cell(tuple((i * j) % 3 == 0 for j in range(12)), f"c{i % 17}") for i in range(100)]
    seen: dict[_Cell, list[str]] = {}
    for a, b in zip(cells, cells[1:]):
        merged = _Cell(tuple(x or y for x, y in zip(a.bits, b.bits)), a.tag)
        seen.setdefault(merged, []).append(b.tag)
    return len(seen)


def _timed_kernel() -> tuple[float, float]:
    """(start, seconds) of one kernel run.  The collector is off during
    the run, so that the run does not pay for collecting the objects of
    the op it interrupts."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return start, time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def fresh_rate() -> float:
    """The scale factor right now, for a process that measured one thing
    and then calls this: the mean rate of the kernel runs after warm-up."""
    times = [_timed_kernel()[1] for _ in range(FRESH_RUNS)]
    return statistics.fmean(REFERENCE_S / k for k in times[WARMUP_RUNS:])


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []  # in time order
        self.rates: list[float] = []
        self.spent = 0.0  # seconds inside kernel runs

    def _run(self, signum=None, frame=None) -> None:
        start, elapsed = _timed_kernel()
        self.starts.append(start)
        self.rates.append(REFERENCE_S / elapsed)
        self.spent += elapsed

    def start(self) -> None:
        kernel()  # warm-up
        self._run()  # so that scale() always has a sample
        signal.signal(signal.SIGPROF, self._run)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """The factor that turns seconds measured in [start, end] into
        reference seconds."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return statistics.fmean(self.rates[lo:hi])
