"""Machine speed, so that timings taken on a shared machine compare.

The machine the benchmark was built on (2 vCPUs, shared with other
tenants) changes speed by up to a factor of two over seconds to
minutes, and the change moves all pure-Python work alike: over 60 corpus
passes the time of a pass and the time of a fixed kernel run next to it
correlated at 0.92, and their ratio spread 6 times less across groups of
passes than the raw pass time.  So every timing the benchmark reports
is in reference seconds: wall seconds times REFERENCE_S over the mean
time of the probe below, timed around the work and, inside a long
operation, every SAMPLE_EVERY_S of CPU time.  The probe uses nothing
from amp, so no change to amp moves it.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import time
from collections import deque

# About the probe's time on that machine.  Any fixed value would do; this
# one keeps reference seconds close to the wall seconds seen there.
REFERENCE_S = 0.0023
PROBES_PER_READING = 8
SAMPLE_EVERY_S = 0.1


def probe() -> int:
    """A fixed breadth-first search over tuple states, with the dict, set,
    slicing and string work that amp's own searches do."""
    start = (0, 0, 0)
    seen = {start: ""}
    frontier = deque([start])
    while frontier:
        state = frontier.popleft()
        for i in range(3):
            if state[i] < 9:
                succ = state[:i] + (state[i] + 1,) + state[i + 1:]
                if succ not in seen:
                    seen[succ] = f"{seen[state]}{i}"[-6:]
                    frontier.append(succ)
    return len(seen)


def probe_s() -> float:
    """The probe's time, with the cyclic collector held off: inside an
    operation that holds many objects a collection would dwarf it."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        probe()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class Clock:
    """Samples the machine's speed between successive readings."""

    def __init__(self):
        self.factors: list[float] = []
        self.paused_s = 0.0   # time spent probing inside sampled work
        self._samples: list[float] = []
        self._read()

    def _read(self) -> None:
        self._samples += [probe_s() for _ in range(PROBES_PER_READING)]

    def _sample(self, signum, frame) -> None:
        taken = probe_s()
        self._samples.append(taken)
        self.paused_s += taken

    @contextlib.contextmanager
    def sampling(self):
        """Probe every SAMPLE_EVERY_S of CPU time while the body runs
        (from a SIGVTALRM handler, so in this thread)."""
        previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, previous)

    def factor(self) -> float:
        """Reference seconds per wall second since the previous reading."""
        self._read()
        self.factors.append(
            REFERENCE_S * len(self._samples) / sum(self._samples))
        self._samples = self._samples[-PROBES_PER_READING:]
        return self.factors[-1]
