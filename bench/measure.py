"""Measurement rules and readings taken from outside the program.

Percentiles come from raw samples by nearest rank.  A timing is
reported with its sample count and the highest percentile that still
has at least :data:`TAIL_BEYOND` samples beyond it, because a tail
percentile read from fewer samples is one outlier wide.

CPU and memory are read from ``/proc``: per-thread CPU from
``/proc/<pid>/task/<tid>/stat``, peak resident memory from ``VmHWM``.

Machine speed is read with a probe: a fixed piece of pure-Python work
whose thread CPU time, divided by :data:`REF_PROBE_S`, says how much
slower than the reference machine the benchmark ran just then.  The
probe imports nothing from the program, so a change to the program
cannot change it.  Times of CPU-bound work are divided by the slowdown
measured next to them, which turns them into *reference-speed* times:
the machine the baseline in README.md was measured on changes speed
every few tens of milliseconds and, for minutes at a time, runs
anywhere from full speed to a third of it, for reasons outside the VM,
and a raw time measures that as much as the program.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import math
import os
import statistics
from time import perf_counter, thread_time

TAIL_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: Loop iterations in one speed probe (about 0.1 ms).
PROBE_STEPS = 1000
#: Thread CPU seconds of one probe on the reference machine at full
#: speed (the median of 3000 probes on an idle VM; see README.md).
REF_PROBE_S = 103e-6

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p%
    of the samples at or below it; 0.0 for no samples."""
    if not samples:
        return 0.0
    return sorted(samples)[_rank(p, len(samples)) - 1]


def supported_tail(n: int) -> float | None:
    """The highest of :data:`TAIL_PERCENTILES` with at least
    :data:`TAIL_BEYOND` of ``n`` samples beyond its rank."""
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= TAIL_BEYOND:
            return p
    return None


def geomean(values: list[float]) -> float:
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- machine speed ---------------------------------------------------------


def probe_s() -> float:
    """Thread CPU seconds of one speed probe: allocation, dict stores and
    integer arithmetic, the kinds of work an interpreter loop does."""
    t0 = thread_time()
    table: dict[int, tuple[int, int]] = {}
    acc = []
    for i in range(PROBE_STEPS):
        pair = (i, i * 3)
        table[i & 255] = pair
        acc.append(pair[1] % 7)
    return thread_time() - t0


def slowdown(probes: list[float]) -> float:
    """Mean probe time over the reference machine's: 1.0 at reference
    speed, 2.0 at half of it; 1.0 if there are no probes."""
    return statistics.fmean(probes) / REF_PROBE_S if probes else 1.0


class SpeedSampler:
    """Probes the machine's speed every :attr:`period` seconds, on each
    CPU this process may use in turn, from an asyncio task.

    The task pins its thread to one CPU for the probe (about 0.1 ms) and
    then releases it, so every CPU the server may run on is sampled."""

    def __init__(self, period: float = 0.01):
        self.period = period
        self.times: list[float] = []  # perf_counter at the end of each probe
        self.probes: list[float] = []  # its thread CPU seconds

    async def run(self) -> None:
        cpus = sorted(os.sched_getaffinity(0))
        for k in itertools.count():
            await asyncio.sleep(self.period)
            os.sched_setaffinity(0, {cpus[k % len(cpus)]})
            try:
                took = probe_s()
            finally:
                os.sched_setaffinity(0, cpus)
            self.times.append(perf_counter())
            self.probes.append(took)

    def slowdown(self, t0: float, t1: float) -> float:
        """:func:`slowdown` over the probes taken between ``t0`` and
        ``t1``, or of the probe nearest to them if none was."""
        lo, hi = bisect.bisect_left(self.times, t0), bisect.bisect_right(self.times, t1)
        if lo == hi and self.times:
            hi = min(lo + 1, len(self.times))
            lo = hi - 1
        return slowdown(self.probes[lo:hi])


# -- /proc readings --------------------------------------------------------


def _stat_fields(path: str) -> list[str]:
    """Fields of a ``stat`` file after the ``(comm)`` field, so index 0
    is ``state`` (field 3 in proc(5))."""
    with open(path, encoding="ascii", errors="replace") as handle:
        text = handle.read()
    return text[text.rindex(")") + 2 :].split()


def thread_cpu_s(pid: int, tid: int) -> float:
    """User plus system CPU seconds of one thread."""
    fields = _stat_fields(f"/proc/{pid}/task/{tid}/stat")
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def process_cpu_s(pid: int) -> tuple[float, float]:
    """(CPU seconds of the process itself, CPU seconds of its reaped
    children)."""
    fields = _stat_fields(f"/proc/{pid}/stat")
    own = (int(fields[11]) + int(fields[12])) / _CLK_TCK
    reaped = (int(fields[13]) + int(fields[14])) / _CLK_TCK
    return own, reaped


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def children(pid: int) -> list[int]:
    """Live child pids of ``pid``, across all its threads."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return found
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as handle:
                found.extend(int(p) for p in handle.read().split())
        except FileNotFoundError:
            continue
    return sorted(set(found))
