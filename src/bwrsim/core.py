"""Deterministic discrete-event core: microsecond clock, totally ordered event
queue, and seeded random streams shared by the protocol models."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from heapq import heappop, heappush
from typing import Callable

MS = 1_000
SEC = 1_000_000

# Same-instant ordering bands; lower fires first. Data-plane events are split
# into arrivals and channel service so a grant firing at the exact instant a
# byte reaches the modem still sees that byte.
PRIO_CONTROL = 0   # control-plane deliveries: SR, BSR, BWR, demand updates
PRIO_SCHED = 1     # periodic scheduler ticks: eNB subframe, CMTS MAP cycle
PRIO_DATA = 2      # data-plane arrivals: TB decode, CM ingress
PRIO_SERVICE = 3   # channel service: granted transmissions leave the CM


class SimError(Exception):
    """Base error for simulator misuse."""


class SchedulingError(SimError):
    """Raised when an event is scheduled before the current clock."""


class Simulator:
    """Single-threaded event loop over integer-microsecond simulated time.

    Heap entries are plain tuples (fire_time, priority, seq, fn, args), so
    heapq orders them in C; seq breaks ties in scheduling order. Times are
    ints: every caller passes whole microseconds, and nothing converts them.
    """

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._heap: list[tuple] = []
        self._seq = itertools.count()

    def schedule_at(self, fire_time: int, priority: int, fn: Callable, *args) -> None:
        """Queue fn(*args) at an absolute time."""
        if fire_time < self.now:
            raise self._in_the_past(fire_time, fn)
        heappush(self._heap, (fire_time, priority, next(self._seq), fn, args))

    def schedule_in(self, delay: int, priority: int, fn: Callable, *args) -> None:
        """Queue fn(*args) delay after now; pushed here, not through
        schedule_at, to save a call per event."""
        if delay < 0:
            raise self._in_the_past(self.now + delay, fn)
        heappush(self._heap, (self.now + delay, priority, next(self._seq), fn, args))

    def _in_the_past(self, fire_time: int, fn: Callable) -> SchedulingError:
        return SchedulingError(f"event {getattr(fn, '__qualname__', fn)} scheduled at "
                               f"{fire_time} before current clock {self.now}")

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_time <= t_end in total order.

        The clock finishes at t_end even when the queue drains early.
        """
        processed = 0
        heap = self._heap
        pop = heappop
        while heap and heap[0][0] <= t_end:
            self.now, _, _, fn, args = pop(heap)
            fn(*args)
            processed += 1
        if t_end > self.now:
            self.now = t_end
        self.events_processed += processed
        return processed

    def pending(self) -> int:
        return len(self._heap)


SKIP_CHUNK = 4096   # uniform draws per getrandbits call of Rng.skip


class Rng:
    """Seeded pseudo-random stream with a fixed draw count per call.

    Wraps random.Random (MT19937, bit-stable across platforms). normal() uses
    a single-branch Box-Muller transform: exactly two uniform draws per call,
    no cached state.
    """

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def bernoulli(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli p={p} outside [0, 1]")
        return self._r.random() < p

    def uniform(self, lo: float, hi: float) -> float:
        if lo > hi:
            raise ValueError(f"uniform bounds reversed: {lo} > {hi}")
        return lo + (hi - lo) * self._r.random()

    def normal(self, mean: float, sigma: float) -> float:
        if sigma <= 0.0:
            raise ValueError(f"normal sigma={sigma} must be > 0")
        u1 = 1.0 - self._r.random()   # (0, 1]: keeps log() finite
        u2 = self._r.random()
        return mean + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n); one draw (floor of a uniform)."""
        if n < 1:
            raise ValueError(f"randbelow n={n} must be >= 1")
        return int(self.uniform(0.0, float(n)))

    def skip(self, n: int) -> None:
        """Advance the stream past n uniform draws without making them.

        random() takes two 32-bit MT19937 words, and getrandbits(64 * k)
        takes exactly 2k; the skip goes in chunks of SKIP_CHUNK draws, so
        that a long one builds no huge int."""
        getrandbits = self._r.getrandbits
        while n > SKIP_CHUNK:
            getrandbits(64 * SKIP_CHUNK)
            n -= SKIP_CHUNK
        getrandbits(64 * n)


def derive_seed(master_seed: int, label: str) -> int:
    """Mix a master seed and a stream label into a 64-bit stream seed."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """One independent stream per stochastic subsystem.

    Streams are derived from the master seed by sha256(master:label), so
    toggling one feature (e.g. HARQ) never perturbs the draws of another.
    """

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._streams: dict[str, Rng] = {}

    def stream(self, label: str) -> Rng:
        if label not in self._streams:
            self._streams[label] = Rng(derive_seed(self.master_seed, label))
        return self._streams[label]
