"""Host speed, sampled alongside the work a run measures.

The benchmark runs on shared virtual machines whose speed drifts by tens
of percent over seconds to minutes (other guests' load on the same
cores), and a process's CPU time drifts with its wall time, so no
statistic over one run's own timings removes it.  A fixed reference
loop timed alongside the work drifts with it.  A serial pass times a
burst of the loop on its main thread between calls, whenever ``every``
seconds have passed since the last one; a pass whose work runs in other
processes times bursts from a thread (:class:`Background`), each on the
thread's own CPU clock.  Host times are then reported at reference
speed, multiplied by ``speed() = REFERENCE_S / mean burst``.

``REFERENCE_S`` is a constant, a typical burst on a 2-vCPU x86-64 VM,
so that reported times are close to raw times there.  The loop lives in
the benchmark, not in the program, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import threading
import time

BURST_ITERS = 100_000
REFERENCE_S = 0.02


def burst() -> float:
    """CPU seconds of one burst of the reference loop: integer arithmetic,
    list indexing and dict lookups, the simulator's own mix."""
    table = [0] * 64
    index = {i: (i * 7) & 63 for i in range(64)}
    acc = 0
    start = time.thread_time()
    for i in range(BURST_ITERS):
        k = (i * 40503) & 63
        table[k] += i
        acc ^= table[index[k]]
    return time.thread_time() - start


class HostSpeed:
    def __init__(self, every: float = 0.25) -> None:
        self.every = every
        self.samples: list = []
        #: Wall seconds spent sampling, for callers to leave out of a timing.
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self, count: int = 1) -> None:
        start = time.perf_counter()
        for _ in range(count):
            self.samples.append(burst())
        self._last = time.perf_counter()
        self.spent += self._last - start

    def due(self) -> None:
        """Take a sample if ``every`` seconds have passed since the last."""
        if time.perf_counter() - self._last >= self.every:
            self.sample()

    def speed(self) -> float:
        """How much faster than the reference host the run went."""
        return REFERENCE_S / statistics.fmean(self.samples)


class Background:
    """Sample a ``HostSpeed`` every ``every`` seconds from a thread while
    the block runs (for passes whose work runs in other processes)."""

    def __init__(self, host: HostSpeed) -> None:
        self.host = host
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.host.every):
            self.host.sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
