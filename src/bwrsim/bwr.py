"""Bandwidth reports: the pipelining message from the base-station scheduler
to the upstream scheduler, plus its fixed 80-byte wire encoding.

Wire layout (big-endian multi-byte fields):

    offset  size  field
    0       2     magic 0x42 0x57
    2       1     version (currently 1)
    3       2     enb_id
    5       2     sequence
    7       8     egress_time, microseconds, unsigned
    15      1     mode flag: 0 = bulk (all bytes in block 0), 1 = per-LCG
    16      20    4 blocks of { lcg_id (1), bytes (4) }
    36      44    zero padding
    total   80
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import chain

BWR_MAGIC = b"BW"
BWR_VERSION = 1
BWR_FRAME_BYTES = 80
BWR_MODE_BULK = 0
BWR_MODE_PER_LCG = 1
_FIELDS = ">2sBHHQB" + "BI" * 4          # the header, then 4 blocks
_BODY = struct.calcsize(_FIELDS)
_ZEROS = bytes(BWR_FRAME_BYTES - _BODY)
# The padding packs as zeros and unpacks unread; decode_bwr checks it.
_FRAME = struct.Struct(f"{_FIELDS}{len(_ZEROS)}x")


class BwrCodecError(ValueError):
    """Malformed frame or unencodable report; names the offending field."""


@dataclass(frozen=True)
class BandwidthReport:
    """Future-traffic announcement: how many bytes will egress, and when."""

    enb_id: int
    sequence: int
    egress_time: int
    blocks: tuple[tuple[int, int], ...]   # exactly 4 (lcg_id, aggregate_bytes)
    mode: int = BWR_MODE_BULK
    version: int = BWR_VERSION

    def __post_init__(self):
        if len(self.blocks) != 4:
            raise BwrCodecError(f"blocks: expected 4 entries, got {len(self.blocks)}")
        for lcg_id, nbytes in self.blocks:
            if not 0 <= lcg_id <= 0xFF:
                raise BwrCodecError(f"lcg_id {lcg_id} unencodable")
            if not 0 <= nbytes <= 0xFFFFFFFF:
                raise BwrCodecError(f"block bytes {nbytes} unencodable")
        if not 0 <= self.enb_id <= 0xFFFF:
            raise BwrCodecError(f"enb_id {self.enb_id} unencodable")
        if not 0 <= self.sequence <= 0xFFFF:
            raise BwrCodecError(f"sequence {self.sequence} unencodable")
        if not 0 <= self.egress_time <= 0xFFFFFFFFFFFFFFFF:
            raise BwrCodecError(f"egress_time {self.egress_time} unencodable")
        if self.mode not in (BWR_MODE_BULK, BWR_MODE_PER_LCG):
            raise BwrCodecError(f"mode {self.mode} unknown")

    def total_bytes(self) -> int:
        return sum(nbytes for _, nbytes in self.blocks)


def encode_bwr(report: BandwidthReport) -> bytes:
    return _FRAME.pack(BWR_MAGIC, report.version, report.enb_id, report.sequence,
                       report.egress_time, report.mode, *chain(*report.blocks))


def decode_bwr(frame: bytes) -> BandwidthReport:
    if len(frame) != BWR_FRAME_BYTES:
        raise BwrCodecError(f"length: expected {BWR_FRAME_BYTES} bytes, got {len(frame)}")
    fields = _FRAME.unpack(frame)
    magic, version, enb_id, sequence, egress_time, mode = fields[:6]
    if magic != BWR_MAGIC:
        raise BwrCodecError(f"magic: expected {BWR_MAGIC!r}, got {magic!r}")
    if version != BWR_VERSION:
        raise BwrCodecError(f"version: {version} unsupported")
    if mode not in (BWR_MODE_BULK, BWR_MODE_PER_LCG):
        raise BwrCodecError(f"mode: {mode} unknown")
    if frame[_BODY:] != _ZEROS:
        raise BwrCodecError("padding: trailing bytes must be zero")
    return BandwidthReport(enb_id, sequence, egress_time,
                           tuple(zip(fields[6::2], fields[7::2])), mode)


class BwrEmitter:
    """Base-station side: aggregates issued grants into periodic reports.

    note_grant() is called for every data allocation (and every announced
    retransmission) with its expected egress time. Each build tick reports the
    entries whose egress falls within the scheduling lead (report_lead, the
    grant-to-transmission turnaround plus decode); later entries, such as
    announced retransmissions, wait for the tick with the matching lead. One
    report carries at most one build period's worth of egress times, so the
    grant it produces is never placed before any byte it covers.
    """

    def __init__(self, enb_id: int, period: int, report_lead: int, *,
                 per_lcg: bool, forward, collector):
        self.enb_id = enb_id
        self.period = period
        self.report_lead = report_lead
        self.per_lcg = per_lcg
        self.forward = forward        # fn(report) -> None; CM-side handoff
        self.collector = collector
        self.sequence = 0
        self.entries: list[tuple[int, dict[int, int]]] = []  # (egress, lcg_bytes)

    def note_grant(self, lcg_bytes: dict[int, int], egress_time: int) -> None:
        self.entries.append((egress_time, lcg_bytes))

    def on_subframe(self, t: int) -> None:
        if t % self.period != 0:
            return
        self.build(t)

    def build(self, t: int) -> BandwidthReport | None:
        due = [e for e in self.entries if e[0] <= t + self.report_lead]
        if not due:
            return None
        self.entries = [e for e in self.entries if e[0] > t + self.report_lead]
        # The latest egress: the report's grant waits for every byte it covers.
        first, egress = min(e for e, _ in due), max(e for e, _ in due)
        if first <= t:
            raise BwrCodecError(f"egress_time {first} not in the future at {t}")
        per_lcg = [0, 0, 0, 0]
        for _, lcg_bytes in due:
            for lcg, nbytes in lcg_bytes.items():
                per_lcg[lcg] += nbytes
        if self.per_lcg:
            blocks = tuple((g, per_lcg[g]) for g in range(4))
            mode = BWR_MODE_PER_LCG
        else:
            blocks = ((0, sum(per_lcg)), (1, 0), (2, 0), (3, 0))
            mode = BWR_MODE_BULK
        report = BandwidthReport(self.enb_id, self.sequence, egress,
                                 blocks, mode)
        self.sequence = (self.sequence + 1) & 0xFFFF
        self.collector.count("bwr_reports_built", 1)
        self.forward(report)
        return report
