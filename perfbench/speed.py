"""Rescale measured times to a fixed CPU speed.

On a shared virtual machine the speed of a CPU changes from one second
to the next, by half and more, as other tenants come and go: on the
2-core VM the benchmark was defined on, ``mag coxeter:B3`` took 14.2 s
in one run and 17.9 s in another a few minutes later (10.5 s and
10.8 s once rescaled as below).  A thread of the benchmark process
therefore times a small fixed pure-Python probe every ``INTERVAL``
seconds.  With the process pinned to one CPU, the probe runs on the
same CPU as the jobs and sees the same slowdowns, so the mean of
``NOMINAL / probe time`` over an interval rescales the interval's wall
time to what it would have been at the nominal speed.

The probe takes well under the interpreter's 5 ms switch interval, so
the job thread does not interrupt it; the job thread waits for it,
which costs the jobs 1-2% of their time.
"""

import statistics
import threading
import time

INTERVAL = 0.05
# About the probe's time on the 2-core VM the benchmark was defined on,
# when nothing else used the CPU: a rescaled second is about one second
# of that machine at its fastest.
NOMINAL = 0.0005
# an interval holding fewer samples borrows the nearest ones
MIN_SAMPLES = 5


def _probe():
    table = {}
    acc = 0
    for i in range(1500):
        key = (i % 37, i % 11)
        acc = (acc * 31 + i) % 65521
        table[key] = table.get(key, 0) + acc
    return len(table)


class SpeedProbe:
    """Samples (start, seconds) of the probe while it is entered."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _run(self):
        while True:
            start = time.perf_counter()
            _probe()
            self.samples.append((start, time.perf_counter() - start))
            if self._stop.wait(INTERVAL):
                return

    def scale(self, start, end):
        """Factor that rescales the wall time of [start, end].

        The mean of the probe's speed, not of its time: a stretch of
        wall time does work in proportion to the speed during it, and a
        probe stalled by the scheduler then weighs almost nothing.
        """
        inside = [s for s in self.samples if start <= s[0] <= end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2
            inside = sorted(self.samples,
                            key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        return statistics.fmean(NOMINAL / seconds for _, seconds in inside)

    def rescale(self, start, end):
        """Wall time of [start, end] at the nominal speed."""
        return (end - start) * self.scale(start, end)
