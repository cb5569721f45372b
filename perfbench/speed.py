"""Host-speed normalisation of the benchmark's timings.

On a shared host the same pure-Python code runs up to 1.8 times faster or
slower from one second to the next, each CPU on its own, as neighbours come
and go.  A timed run therefore stays on one CPU, and a `Meter` times a fixed
reference kernel on that CPU between and during the timed stretches of the
run.  A stretch's cost times REF_S over the kernel time measured around it
gives its time at reference speed, the speed at which the kernel takes
REF_S.  A change to the program moves these figures; a change of host
speed, which moves program and kernel alike, mostly does not.

The kernel is plain Python that shares no code with the program: sorting,
dict and set building over small tuples, scattered reads of a few MB of
tuples and a recursive evaluator over a fixed term, the operations the
program spends its time in.
"""

from __future__ import annotations

import bisect
import contextlib
import os
import resource
import threading
import time

# Kernel time at reference speed: about its median over 150 samples on the
# 2-vCPU host (Python 3.11.7) the benchmark was written on.
REF_S = 0.010


def _tables(n: int = 1500) -> int:
    rows = [((i * 7919) % 1009, i & 63, (i >> 3) & 7) for i in range(n)]
    rows.sort()
    index: dict[int, list] = {}
    for r in rows:
        index.setdefault(r[1], []).append(r)
    acc = 0
    for v in index.values():
        acc += len(frozenset(x[2] for x in v)) + len({x[0] & 15 for x in v})
    grid = [[(i * j) & 7 for j in range(24)] for i in range(24)]
    return acc + sum(max(row) for row in grid)


def _ev(t, v) -> int:
    op = t[0]
    if op == 0:
        return v[t[1]]
    if op == 1:
        return 7 - _ev(t[1], v)
    a, b = _ev(t[1], v), _ev(t[2], v)
    return a & b if op == 2 else a | b


_TERM = (2, (3, (0, 0), (1, (0, 1))),
         (2, (1, (3, (0, 2), (0, 0))), (3, (0, 1), (1, (0, 2)))))

# A few MB of small objects read in scattered order, so that the kernel, like
# the program's catalogs, feels the host's cache and memory contention.
_SCATTER = [((i * 2654435761) % 1000003, i & 255) for i in range(30000)]


def _scatter(n: int = 7500) -> int:
    acc = j = 0
    for _ in range(n):
        j = (j * 1103515245 + 12345) % 30000
        acc += _SCATTER[j][1]
    return acc


def _allocate(n: int = 3000) -> int:
    d = {(i * 7 % 97, i % 89, i & 3): frozenset((i & 7, (i >> 3) & 7)) for i in range(n)}
    return sum(len(v) for v in d.values())


def kernel() -> int:
    acc = _tables() + _tables() + _scatter() + _allocate()
    for i in range(1250):
        acc += _ev(_TERM, (i & 7, (i >> 3) & 7, (i >> 6) & 7))
    return acc


def pin_to_one_cpu() -> None:
    """Run this process and the processes it starts on one CPU.  The CPUs of
    a shared host change speed independently, so the kernel samples only
    describe the CPU they ran on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def children_cpu_s() -> float:
    """CPU seconds used so far by the ended child processes."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


class Meter:
    """Kernel samples between timed stretches, and the scale they give."""

    def __init__(self, every: float = 0.4):
        self.every = every
        self.at: list[float] = []    # when each sample ended
        self.took: list[float] = []  # kernel seconds of each sample

    def tick(self) -> None:
        """One sample: the fastest of three kernel runs, in CPU time of the
        sampling thread, so that neither a cold cache after another process
        ran nor time given to another process counts."""
        runs = []
        for _ in range(3):
            t0 = time.thread_time()
            kernel()
            runs.append(time.thread_time() - t0)
        self.at.append(time.perf_counter())
        self.took.append(min(runs))

    def due(self) -> None:
        """Sample when `every` seconds have passed since the last sample."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.every:
            self.tick()

    @contextlib.contextmanager
    def watch(self):
        """Sample every `every` seconds from a thread while the body waits
        for a child process, which shares this process's CPU."""
        stop = threading.Event()

        def sampler():
            while not stop.wait(self.every):
                self.tick()

        self.tick()
        thread = threading.Thread(target=sampler, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            self.tick()

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time of the last sample before `start`,
        the first after `end` and any in between."""
        i = max(bisect.bisect_right(self.at, start) - 1, 0)
        j = min(bisect.bisect_left(self.at, end), len(self.at) - 1)
        window = self.took[i:j + 1]
        return REF_S * len(window) / sum(window)
