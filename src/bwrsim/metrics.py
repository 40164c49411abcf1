"""Per-packet latency samples, segment summaries, empirical CDFs,
grant-utilization statistics, and the CSV files written from the samples."""

from __future__ import annotations

import itertools
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from operator import add, ne, sub, truediv

SEGMENTS = ("e2e", "lte", "docsis")
# the int64 columns of a sample store (e2e is lte + docsis, the mode the run's)
COLUMNS = ("packet_id", "ue_id", "enb_id", "lte_us", "docsis_us")


class MetricsError(Exception):
    pass


@dataclass(frozen=True)
class LatencySample:
    """One row of a `Samples` store, built when the store is iterated."""

    packet_id: int
    ue_id: int
    enb_id: int
    mode: str
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
    """The retained samples of one run as typed columns, an int64 array per
    field of COLUMNS. Iterating yields LatencySample rows, built on demand."""

    def __init__(self, mode: str):
        self.mode = mode
        self.packet_id = array("q")
        self.ue_id = array("q")
        self.enb_id = array("q")
        self.lte_us = array("q")
        self.docsis_us = array("q")

    def __len__(self) -> int:
        return len(self.packet_id)

    def __iter__(self):
        return map(LatencySample, self.packet_id, self.ue_id, self.enb_id,
                   itertools.repeat(self.mode), map(add, self.lte_us, self.docsis_us),
                   self.lte_us, self.docsis_us)

    def select(self, enb_id: int) -> Samples:
        """The samples of one eNB, in order, as a new store."""
        keep = bytes(map(enb_id.__eq__, self.enb_id))
        out = Samples(self.mode)
        for name in COLUMNS:
            setattr(out, name, array("q", itertools.compress(getattr(self, name), keep)))
        return out


def segment_columns(samples: Samples) -> dict[str, array]:
    """The microsecond column of each segment; e2e is built here."""
    return {"e2e": array("q", map(add, samples.lte_us, samples.docsis_us)),
            "lte": samples.lte_us, "docsis": samples.docsis_us}


@dataclass(slots=True)
class Counters:
    """The counters of one run, one declared field each, so that a count is
    an attribute update: `counters.x += n`. An undeclared name raises
    AttributeError, on update and on `get` alike."""

    admitted_bytes: int = 0
    admitted_packets: int = 0
    lte_granted_bytes: int = 0
    lte_grant_unused_bytes: int = 0     # LTE grant bytes that found no buffered byte
    eut_grant_unused_bytes: int = 0     # the same, on the eut's eNB alone
    lte_inflight_bytes: int = 0
    lte_egressed_bytes: int = 0
    harq_dropped_bytes: int = 0
    dropped_packets: int = 0
    reqs_delivered: int = 0
    req_collisions: int = 0
    docsis_sent_bytes: int = 0
    wasted_be_grant_bytes: int = 0
    wasted_bwr_grant_bytes: int = 0
    ugs_idle_grants: int = 0
    ugs_wasted_bytes: int = 0
    bwr_reports_built: int = 0
    bwr_frames_received: int = 0
    egressed_packets: int = 0

    def get(self, name: str, default: int = 0) -> int:
        """The counter `name`. Every counter is declared and starts at 0, so
        `default` is never used; it keeps the signature of a dict's get."""
        return getattr(self, name)


class Collector:
    """Run-scoped sink for counters, transport-block totals, and the samples
    of packets that arrived after the warm-up (all else stays bounded)."""

    def __init__(self, mode: str, warmup_us: int = 0):
        self.warmup_us = warmup_us
        self.samples = Samples(mode)
        self.counters = Counters()
        self.tb_blocks = 0
        self.tb_carried = 0.0     # running sum of 1/attempts over carried blocks

    def record_tb(self, *, attempts: int, success: bool) -> None:
        self.tb_blocks += 1
        self.tb_carried += (1.0 / attempts) if success else 0.0

    def record_egress(self, pkt) -> None:
        if pkt.dropped:
            return
        lte = pkt.cm_arrival - pkt.ue_arrival
        doc = pkt.cmts_egress - pkt.cm_arrival
        if lte < 0 or doc < 0:
            raise MetricsError(f"inconsistent stage times on packet {pkt.id}")
        self.counters.egressed_packets += 1
        if pkt.ue_arrival >= self.warmup_us:
            s = self.samples
            s.packet_id.append(pkt.id)
            s.ue_id.append(pkt.ue_id)
            s.enb_id.append(pkt.enb_id)
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
    return summary(segment_columns(samples)[segment])


def summary(values) -> Summary:
    """Min, mean, max and count of one column."""
    if not values:
        raise MetricsError("cannot summarize an empty sample set")
    return Summary(min(values), sum(values) / len(values), max(values), len(values))


def cdf(samples: Samples, segment: str) -> Iterator[tuple[float, float]]:
    """Empirical CDF as right-continuous steps; final fraction is 1.0."""
    if not samples:
        raise MetricsError("cannot build a CDF from an empty sample set")
    return cdf_steps(segment_columns(samples)[segment])


def cdf_steps(values) -> Iterator[tuple[float, float]]:
    """The (ms, cumulative fraction) steps of one column, in value order,
    yielded one at a time: the last step at each value, the one whose next
    value differs."""
    values = sorted(values)
    n = len(values)
    last = itertools.chain(map(ne, values, itertools.islice(values, 1, None)), (True,))
    return itertools.compress(zip(map((1000).__rtruediv__, values),
                                  map(truediv, itertools.count(1), itertools.repeat(n))),
                              last)


def grant_utilization(granted_bytes: int, used_bytes: int) -> float:
    if granted_bytes < used_bytes or used_bytes < 0:
        raise MetricsError("used bytes must be within [0, granted]")
    return 1.0 if granted_bytes == 0 else used_bytes / granted_bytes


def _ms(us):
    """A microsecond column as milliseconds, for "%.3f" cells."""
    return map((1000).__rtruediv__, us)


def _write_csv(path: str, header: str, fmt: str, rows) -> None:
    """The header line, then `fmt % row` for each row, with the \\r\\n line
    ends of csv.writer. No cell needs quoting; the cells that one file holds
    in every row (a run's mode and traffic class) are written into fmt."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(header + "\r\n")
        fh.writelines(map(fmt.__mod__, rows))


def write_samples_csv(path: str, samples: Samples, e2e_us: array,
                      traffic_class: str) -> None:
    """One row per sample; e2e_us is the store's e2e column, and
    traffic_class the run's."""
    _write_csv(path, "packet_id,ue,enb,class,mode,e2e_ms,lte_ms,docsis_ms",
               f"%d,%d,%d,{traffic_class},{samples.mode},%.3f,%.3f,%.3f\r\n",
               zip(samples.packet_id, samples.ue_id, samples.enb_id, _ms(e2e_us),
                   _ms(samples.lte_us), _ms(samples.docsis_us)))


def write_cdf_csv(path: str, points: Iterator[tuple[float, float]]) -> None:
    """Writes (ms, cumulative fraction) points as they are yielded."""
    _write_csv(path, "latency_ms,cum_frac", "%.3f,%.6f\r\n", points)


def write_deltas_csv(path: str, deltas) -> None:
    """One row per paired packet of a runner.PairedDeltas."""
    _write_csv(path, "packet_id,class,baseline_docsis_ms,bwr_docsis_ms,delta_ms",
               f"%d,{deltas.traffic_class},%.3f,%.3f,%.3f\r\n",
               zip(deltas.packet_id, _ms(deltas.base_us), _ms(deltas.bwr_us),
                   _ms(map(sub, deltas.base_us, deltas.bwr_us))))
