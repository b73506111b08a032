"""The clock of every timed end-to-end metric: CPU seconds at a reference speed.

`cpu_s()` is the user plus system CPU time of this process and of every
child process it has waited for. Each timed path is one thread that
computes without waiting on other processes or the network (its files sit
in the page cache), so on an unshared CPU its CPU time is its wall time.
On a shared host the wall time of the same work also counts the spells in
which the host runs something else.

CPU time still follows the speed the host gives a CPU, and on a shared
2-vCPU host that speed changes both over minutes (in ten runs of
`pipeline_25x` one pass took 9.6 to 16.8 CPU seconds) and in spells of a
fraction of a second: served back to back on the same set-up, five passes
over the same 1,000 queries of `serve_deep_50x` read a CPU-time p99 of
54, 56, 59, 41 and 41 ms, because a spell slows a run of consecutive
queries. `SpeedProbe` measures that speed while a run measures the
program: every PROBE_INTERVAL_S of wall time a signal handler runs
`probe()`, a fixed piece of interpreter work of the kind the program does
(regex tokenising, dict counting, float sums), and keeps the CPU time it
took and when. `cpu_s()` leaves the probes' own CPU time out. A `Timing`
is scaled by PROBE_REFERENCE_S over the mean time of the probes that ran
within WINDOW_S of it, so it reads what it would have on a host that runs
the probe in PROBE_REFERENCE_S; on those five passes the scaled p99 read
39.9, 40.7, 39.9, 38.8 and 37.9 ms. The probe does not change with the
program, so a change to the program moves a scaled time in full.
Deadlines (`--seconds`) stay in wall time.
"""

from __future__ import annotations

import bisect
import math
import re
import resource
import signal
import statistics
import time
from dataclasses import dataclass

PROBE_INTERVAL_S = 0.1
WINDOW_S = 0.3
PROBE_REFERENCE_S = 0.002  # about a probe's mean CPU time on the host of baseline.json
_PROBE_TEXT = " ".join(
    f"doc{i % 389} term{i % 61} Query-{i % 17} retrieval ranking {i * 7 % 1000}" for i in range(600)
)
_TOKEN = re.compile(r"[a-z0-9]+")

_probe_cpu_s = 0.0


def probe() -> float:
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_PROBE_TEXT.lower()):
        counts[token] = counts.get(token, 0) + 1
    return sum(math.log1p(n) for n in counts.values())


def cpu_s() -> float:
    """CPU seconds of this process and its waited-for children, probes left out."""
    blocked = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time() + children.ru_utime + children.ru_stime - _probe_cpu_s
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, blocked)


@dataclass(frozen=True)
class Timing:
    """CPU seconds of some work, and the wall-clock interval it ran in."""

    cpu_s: float
    start: float
    end: float


def start() -> tuple[float, float]:
    return time.perf_counter(), cpu_s()


def stop(started: tuple[float, float]) -> Timing:
    wall, cpu = started
    return Timing(cpu_s() - cpu, wall, time.perf_counter())


class SpeedProbe:
    """Runs `probe()` every PROBE_INTERVAL_S while active; see the module docstring."""

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        global _probe_cpu_s
        at = time.perf_counter()
        begin = time.process_time()
        probe()
        spent = time.process_time() - begin
        _probe_cpu_s += spent
        self.at.append(at)
        self.samples.append(spent)

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """PROBE_REFERENCE_S over the mean probe time within WINDOW_S of
        [start, end]; over the whole run if no probe ran there (a call into
        C code defers the signal handler until it returns)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        return PROBE_REFERENCE_S / statistics.fmean(self.samples[lo:hi] or self.samples)

    def scaled(self, timing: Timing) -> float:
        return timing.cpu_s * self.factor(timing.start, timing.end)
