"""The workload: every UE replays a looping trace of frames (VoIP is one
packet per period), plus a seeded synthetic video-trace generator.

Trace file format: UTF-8 text, header line "#bwr-trace v1", then one record
per line as "offset_ms,bytes" with strictly increasing offsets. A trailing
"#duration_ms=<value>" line fixes the loop length; without it the loop length
is the last offset plus one frame gap.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass

from .core import MS, PRIO_DATA, Rng, Simulator
from .lte import Packet

TRACE_HEADER = "#bwr-trace v1"


class TrafficError(ValueError):
    pass


@dataclass
class Trace:
    records: list[tuple[int, int]]        # (offset_us, nbytes), offsets increasing
    duration: int                         # loop length, us

    def __post_init__(self):
        if not self.records:
            raise TrafficError("trace has no records")
        last = -1
        for off, nbytes in self.records:
            if off <= last:
                raise TrafficError(f"trace offsets must be strictly increasing (at {off})")
            if nbytes <= 0:
                raise TrafficError(f"trace record at {off} has non-positive size")
            last = off
        if self.duration <= last:
            raise TrafficError("trace duration must exceed the last offset")

    def total_bytes(self) -> int:
        return sum(b for _, b in self.records)

    def mean_bitrate_bps(self) -> float:
        return self.total_bytes() * 8 * 1_000_000 / self.duration


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for off, nbytes in trace.records:
            fh.write(f"{off / 1000:.3f},{nbytes}\n")
        fh.write(f"#duration_ms={trace.duration / 1000:.3f}\n")


def read_trace(path: str) -> Trace:
    records: list[tuple[int, int]] = []
    duration = None
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != TRACE_HEADER:
            raise TrafficError(f"{path}:1: expected header {TRACE_HEADER!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            is_duration = line.startswith("#duration_ms=")
            if not line or line.startswith("#") and not is_duration:
                continue
            # round() of an infinite time raises OverflowError, of NaN ValueError
            try:
                if is_duration:
                    duration = round(float(line.split("=", 1)[1]) * 1000)
                else:
                    off_ms, nbytes = line.split(",")
                    records.append((round(float(off_ms) * 1000), int(nbytes)))
            except (ValueError, OverflowError) as exc:
                raise TrafficError(f"{path}:{lineno}: bad line {line!r}") from exc
    if not records:
        raise TrafficError(f"{path}: no records")
    if duration is None:
        gap = records[-1][0] // max(1, len(records) - 1) if len(records) > 1 else MS
        duration = records[-1][0] + max(gap, 1)
    return Trace(records, duration)


def synth_video(mean_bitrate_bps: float, frame_period: int, burstiness: float,
                seed: int, duration: int) -> Trace:
    """Log-normal frame sizes around mean_bitrate*frame_period.

    burstiness is the coefficient of variation; the drawn sizes are rescaled
    so the realized mean bitrate matches the target before rounding.
    """
    if not 0 < mean_bitrate_bps < math.inf:
        raise TrafficError(f"mean_bitrate_bps = {mean_bitrate_bps}: must be positive and finite")
    if frame_period <= 0 or duration < frame_period:
        raise TrafficError("duration must cover at least one frame period")
    if not 0 <= burstiness < math.inf:
        raise TrafficError(f"burstiness = {burstiness}: must be finite and >= 0")
    rng = Rng(seed)
    n_frames = duration // frame_period
    mean_size = mean_bitrate_bps * frame_period / 8_000_000
    sigma2 = math.log(1.0 + burstiness * burstiness)
    if sigma2 == 0.0:           # burstiness 0, or so small that 1 + b * b is 1.0
        sizes = [mean_size] * n_frames
    else:
        mu = math.log(mean_size) - sigma2 / 2.0
        sizes = [math.exp(rng.normal(mu, math.sqrt(sigma2))) for _ in range(n_frames)]
        scale = mean_size * n_frames / sum(sizes)
        sizes = [s * scale for s in sizes]
    records = [(i * frame_period, max(1, round(s))) for i, s in enumerate(sizes)]
    return Trace(records, n_frames * frame_period)


def packetize(nbytes: int, mtu: int) -> list[int]:
    """Split a burst into MTU-sized packets (remainder last)."""
    full, rest = divmod(nbytes, mtu)
    return [mtu] * full + ([rest] if rest else [])


class TraceSource:
    """Replays a trace from a start offset, looping forever; each frame is
    split into packets of the MTU. `ids` numbers the packets of every
    source of one run (an itertools.count)."""

    def __init__(self, sim: Simulator, ids: Iterator[int], ue,
                 trace: Trace, start_offset: int, mtu: int):
        self.sim = sim
        self.ids = ids
        self.ue = ue
        self.trace = trace
        self.mtu = mtu
        start_offset %= trace.duration
        # the first record at or after the start offset, wrapping to the next
        # loop, and the time its loop starts at
        self._idx = bisect_left(trace.records, (start_offset,))
        self._loop_start = -start_offset
        if self._idx == len(trace.records):
            self._idx = 0
            self._loop_start += trace.duration

    def start(self) -> None:
        self.sim.schedule_at(self._loop_start + self.trace.records[self._idx][0],
                             PRIO_DATA, self._emit)

    def _emit(self) -> None:
        records = self.trace.records
        ue, ids = self.ue, self.ids
        for size in packetize(records[self._idx][1], self.mtu):
            ue.on_arrival(Packet(next(ids), ue.ue_id, ue.enb.enb_id, size))
        self._idx += 1
        if self._idx == len(records):
            self._idx = 0
            self._loop_start += self.trace.duration
        self.sim.schedule_at(self._loop_start + records[self._idx][0], PRIO_DATA, self._emit)
