"""Deterministic discrete-event core: microsecond clock, totally ordered event
queue, and seeded random streams shared by the protocol models."""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from typing import Callable

US = 1
MS = 1_000
SEC = 1_000_000

# Same-instant ordering bands; lower fires first. Data-plane events are split
# into arrivals and channel service so a grant firing at the exact instant a
# byte reaches the modem still sees that byte.
PRIO_CONTROL = 0   # control-plane deliveries: SR, BSR, BWR, demand updates
PRIO_SCHED = 1     # periodic scheduler ticks: eNB subframe, CMTS MAP cycle
PRIO_DATA = 2      # data-plane arrivals: TB decode, CM ingress
PRIO_SERVICE = 3   # channel service: granted transmissions leave the CM
PRIO_METRICS = 4   # sampling and end-of-pipeline bookkeeping


class SimError(Exception):
    """Base error for simulator misuse."""


class SchedulingError(SimError):
    """Raised when an event is scheduled before the current clock."""


class Event:
    """A queued callback, totally ordered by (fire_time, priority, seq)."""

    __slots__ = ("fire_time", "priority", "seq", "fn", "args", "cancelled")

    def __init__(self, fire_time: int, priority: int, seq: int,
                 fn: Callable, args: tuple):
        self.fire_time = fire_time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    @property
    def kind(self) -> str:
        return getattr(self.fn, "__qualname__", repr(self.fn))

    def sort_key(self):
        return (self.fire_time, self.priority, self.seq)

    def __lt__(self, other: "Event"):
        return self.sort_key() < other.sort_key()

    def __repr__(self):
        return f"Event(t={self.fire_time}, prio={self.priority}, seq={self.seq}, kind={self.kind})"


class Simulator:
    """Single-threaded event loop over integer-microsecond simulated time."""

    def __init__(self):
        self.now = 0
        self.events_processed = 0
        self._heap: list[Event] = []
        self._seq = 0

    def schedule_at(self, fire_time: int, priority: int, fn: Callable, *args) -> Event:
        """Queue fn(*args) at an absolute time; returns a handle usable with cancel()."""
        if fire_time < self.now:
            raise SchedulingError(
                f"event {getattr(fn, '__qualname__', fn)} scheduled at {fire_time} "
                f"before current clock {self.now}")
        ev = Event(int(fire_time), priority, self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def schedule_in(self, delay: int, priority: int, fn: Callable, *args) -> Event:
        return self.schedule_at(self.now + delay, priority, fn, *args)

    def cancel(self, event: Event) -> None:
        event.cancelled = True

    def run_until(self, t_end: int) -> int:
        """Process every event with fire_time <= t_end in total order.

        The clock finishes at t_end even when the queue drains early.
        """
        processed = 0
        heap = self._heap
        while heap and heap[0].fire_time <= t_end:
            ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self.now = ev.fire_time
            ev.fn(*ev.args)
            processed += 1
        if t_end > self.now:
            self.now = t_end
        self.events_processed += processed
        return processed

    def pending(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)


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


def derive_seed(master_seed: int, label: str) -> int:
    """Mix a master seed and a stream label into a 64-bit stream seed."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """One independent stream per stochastic subsystem.

    Streams are derived from the master seed by sha256(master:label), so
    toggling one feature (e.g. HARQ) never perturbs the draws of another.
    """

    LABELS = ("channel", "harq", "contention", "traffic", "phases")

    def __init__(self, master_seed: int):
        self.master_seed = master_seed
        self._streams: dict[str, Rng] = {}

    def stream(self, label: str) -> Rng:
        if label not in self._streams:
            self._streams[label] = Rng(derive_seed(self.master_seed, label))
        return self._streams[label]
