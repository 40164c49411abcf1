"""Per-packet latency samples, segment summaries, empirical CDFs, and
grant-utilization statistics."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from operator import attrgetter

SEGMENTS = ("e2e", "lte", "docsis")


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class LatencySample:
    packet_id: int
    ue_id: int
    enb_id: int
    traffic_class: str
    mode: str
    arrival_us: int
    e2e_us: int
    lte_us: int
    docsis_us: int


@dataclass(frozen=True)
class Summary:
    min_us: int
    avg_us: float
    max_us: int
    count: int

    @property
    def min_ms(self) -> float:
        return self.min_us / 1000

    @property
    def avg_ms(self) -> float:
        return self.avg_us / 1000

    @property
    def max_ms(self) -> float:
        return self.max_us / 1000


class Collector:
    """Run-scoped sink for counters, transport-block totals, and the samples
    of packets that arrived after the warm-up (all else stays bounded)."""

    def __init__(self, mode: str, warmup_us: int = 0):
        self.mode = mode
        self.warmup_us = warmup_us
        self.samples: list[LatencySample] = []
        self.counters: dict[str, int] = {}
        self.tb_blocks = 0
        self.tb_carried = 0.0     # running sum of 1/attempts over carried blocks

    def count(self, key: str, delta: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + delta

    def record_tb(self, *, attempts: int, success: bool) -> None:
        self.tb_blocks += 1
        self.tb_carried += (1.0 / attempts) if success else 0.0

    def record_egress(self, pkt) -> None:
        if pkt.dropped:
            return
        e2e = pkt.cmts_egress - pkt.ue_arrival
        lte = pkt.cm_arrival - pkt.ue_arrival
        doc = pkt.cmts_egress - pkt.cm_arrival
        if lte < 0 or doc < 0 or e2e != lte + doc:
            raise MetricsError(f"inconsistent stage times on packet {pkt.id}")
        self.count("docsis_egressed_bytes", pkt.size_bytes)
        self.count("egressed_packets", 1)
        if pkt.ue_arrival >= self.warmup_us:
            self.samples.append(LatencySample(
                pkt.id, pkt.ue_id, pkt.enb_id, pkt.traffic_class, self.mode,
                pkt.ue_arrival, e2e, lte, doc))

    def retained(self) -> list[LatencySample]:
        """Samples past the warm-up window (by packet arrival time), not a copy."""
        return self.samples

    def mean_tb_grant_utilization(self) -> float:
        """Per-block mean of (carried attempts / granted attempts).

        Each attempt consumes one equal-size grant; only a successful block
        carries data, on exactly one attempt. Exhausted blocks contribute 0.
        """
        if not self.tb_blocks:
            raise MetricsError("no transport blocks recorded")
        return self.tb_carried / self.tb_blocks


def summarize(samples: list[LatencySample], segment: str) -> Summary:
    if segment not in SEGMENTS:
        raise MetricsError(f"unknown segment {segment!r}")
    if not samples:
        raise MetricsError("cannot summarize an empty sample set")
    values = list(map(attrgetter(f"{segment}_us"), samples))
    return Summary(min(values), sum(values) / len(values), max(values), len(values))


def cdf(samples: list[LatencySample], segment: str) -> list[tuple[float, float]]:
    """Empirical CDF as right-continuous steps; final fraction is 1.0."""
    if not samples:
        raise MetricsError("cannot build a CDF from an empty sample set")
    values = sorted(map(attrgetter(f"{segment}_us"), samples))
    n = len(values)
    nexts = values[1:]
    nexts.append(None)
    # keep the last step at each value: the one whose next value differs
    return [(v / 1000, i / n)
            for i, v, nxt in zip(itertools.count(1), values, nexts) if v != nxt]


def grant_utilization(granted_bytes: int, used_bytes: int) -> float:
    if granted_bytes < used_bytes or used_bytes < 0:
        raise MetricsError("used bytes must be within [0, granted]")
    return 1.0 if granted_bytes == 0 else used_bytes / granted_bytes


def bwr_overhead_bps(frame_bytes: int, period_us: int) -> float:
    if period_us <= 0:
        raise MetricsError("period must be positive")
    return frame_bytes * 8 * 1_000_000 / period_us


def write_samples_csv(path: str, samples: list[LatencySample]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["packet_id", "ue", "enb", "class", "mode",
                    "e2e_ms", "lte_ms", "docsis_ms"])
        for s in samples:
            w.writerow([s.packet_id, s.ue_id, s.enb_id, s.traffic_class, s.mode,
                        f"{s.e2e_us / 1000:.3f}", f"{s.lte_us / 1000:.3f}",
                        f"{s.docsis_us / 1000:.3f}"])


def write_cdf_csv(path: str, points: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["latency_ms", "cum_frac"])
        for value_ms, frac in points:
            w.writerow([f"{value_ms:.3f}", f"{frac:.6f}"])
