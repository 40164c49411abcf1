"""Per-packet latency samples, segment summaries, empirical CDFs, and
grant-utilization statistics."""

from __future__ import annotations

import csv
import itertools
from array import array
from dataclasses import dataclass
from operator import add

SEGMENTS = ("e2e", "lte", "docsis")
# the int64 columns of a sample store (e2e is lte + docsis, the mode the run's)
COLUMNS = ("packet_id", "ue_id", "enb_id", "arrival_us", "lte_us", "docsis_us")


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class LatencySample:
    """One row of a `Samples` store, built when the store is iterated."""

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


class Samples:
    """The retained samples of one run as typed columns: an int64 array per
    field of COLUMNS and a one-byte code per sample into `classes`. Iterating
    yields LatencySample rows, built on demand."""

    def __init__(self, mode: str):
        self.mode = mode
        self.classes: list[str] = []        # traffic class of each code
        self.class_code = bytearray()
        self.packet_id = array("q")
        self.ue_id = array("q")
        self.enb_id = array("q")
        self.arrival_us = array("q")
        self.lte_us = array("q")
        self.docsis_us = array("q")

    def __len__(self) -> int:
        return len(self.packet_id)

    def __iter__(self):
        return map(LatencySample, self.packet_id, self.ue_id, self.enb_id,
                   map(self.classes.__getitem__, self.class_code),
                   itertools.repeat(self.mode), self.arrival_us,
                   map(add, self.lte_us, self.docsis_us), self.lte_us, self.docsis_us)

    def select(self, enb_id: int) -> Samples:
        """The samples of one eNB, in order, as a new store."""
        keep = bytes(map(enb_id.__eq__, self.enb_id))
        out = Samples(self.mode)
        out.classes = list(self.classes)
        out.class_code = bytearray(itertools.compress(self.class_code, keep))
        for name in COLUMNS:
            setattr(out, name, array("q", itertools.compress(getattr(self, name), keep)))
        return out


def _segment_us(samples: Samples, segment: str):
    if segment == "e2e":
        return array("q", map(add, samples.lte_us, samples.docsis_us))
    return getattr(samples, f"{segment}_us")


class Collector:
    """Run-scoped sink for counters, transport-block totals, and the samples
    of packets that arrived after the warm-up (all else stays bounded)."""

    def __init__(self, mode: str, warmup_us: int = 0):
        self.warmup_us = warmup_us
        self.samples = Samples(mode)
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
        self.count("egressed_packets", 1)
        if pkt.ue_arrival >= self.warmup_us:
            s = self.samples
            klass = pkt.traffic_class
            if klass not in s.classes:
                s.classes.append(klass)
            s.class_code.append(s.classes.index(klass))
            s.packet_id.append(pkt.id)
            s.ue_id.append(pkt.ue_id)
            s.enb_id.append(pkt.enb_id)
            s.arrival_us.append(pkt.ue_arrival)
            s.lte_us.append(lte)
            s.docsis_us.append(doc)

    def retained(self) -> Samples:
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


def summarize(samples: Samples, segment: str) -> Summary:
    if segment not in SEGMENTS:
        raise MetricsError(f"unknown segment {segment!r}")
    if not samples:
        raise MetricsError("cannot summarize an empty sample set")
    values = _segment_us(samples, segment)
    return Summary(min(values), sum(values) / len(values), max(values), len(values))


def cdf(samples: Samples, segment: str) -> list[tuple[float, float]]:
    """Empirical CDF as right-continuous steps; final fraction is 1.0."""
    if not samples:
        raise MetricsError("cannot build a CDF from an empty sample set")
    values = sorted(_segment_us(samples, segment))
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


def write_samples_csv(path: str, samples: Samples) -> None:
    classes, mode = samples.classes, samples.mode
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["packet_id", "ue", "enb", "class", "mode",
                    "e2e_ms", "lte_ms", "docsis_ms"])
        for pid, ue, enb, code, lte, doc in zip(
                samples.packet_id, samples.ue_id, samples.enb_id,
                samples.class_code, samples.lte_us, samples.docsis_us):
            w.writerow([pid, ue, enb, classes[code], mode,
                        f"{(lte + doc) / 1000:.3f}", f"{lte / 1000:.3f}",
                        f"{doc / 1000:.3f}"])


def write_cdf_csv(path: str, points: list[tuple[float, float]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["latency_ms", "cum_frac"])
        for value_ms, frac in points:
            w.writerow([f"{value_ms:.3f}", f"{frac:.6f}"])
