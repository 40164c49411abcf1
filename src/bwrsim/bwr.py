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

The emitter builds bulk reports. A per-LCG frame still decodes, and the CMTS
takes the total of its blocks.
"""

from __future__ import annotations

import struct
from bisect import bisect_right, insort
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

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
_MODES = (BWR_MODE_BULK, BWR_MODE_PER_LCG)
_EGRESS = itemgetter(0)               # an emitter entry's egress
_BYTES = itemgetter(1)                # the bytes of an entry or a block


class BwrCodecError(ValueError):
    """Malformed frame or unencodable report; names the offending field."""


class BandwidthReport(NamedTuple):
    """Future-traffic announcement: how many bytes will egress, and when.
    A named tuple, which builds about three times faster than a frozen
    dataclass; encode_bwr checks that its fields fit the wire format."""

    enb_id: int
    sequence: int
    egress_time: int
    blocks: tuple[tuple[int, int], ...]   # exactly 4 (lcg_id, aggregate_bytes)
    mode: int = BWR_MODE_BULK

    def total_bytes(self) -> int:
        return sum(map(_BYTES, self.blocks))


def encode_bwr(report: BandwidthReport) -> bytes:
    """Pack the report. `struct` bounds every field but the block count and
    the mode, so only those are checked on the way; when it refuses a value,
    the first field the frame cannot carry is named instead."""
    blocks = report.blocks
    if len(blocks) != 4:
        raise BwrCodecError(f"blocks: expected 4 entries, got {len(blocks)}")
    try:
        frame = _FRAME.pack(BWR_MAGIC, BWR_VERSION, report.enb_id, report.sequence,
                            report.egress_time, report.mode, *chain(*blocks))
    except struct.error:
        error = _field_error(report)
        if error is None:
            raise                     # a value of a type struct refuses
        raise error from None
    if report.mode not in _MODES:
        raise _field_error(report)
    return frame


def _field_error(report: BandwidthReport) -> BwrCodecError | None:
    """The error naming the first field of the report that the frame cannot
    carry, in the order the fields are checked; None when each fits."""
    for lcg_id, nbytes in report.blocks:
        if not 0 <= lcg_id <= 0xFF:
            return BwrCodecError(f"lcg_id {lcg_id} unencodable")
        if not 0 <= nbytes <= 0xFFFFFFFF:
            return BwrCodecError(f"block bytes {nbytes} unencodable")
    if not 0 <= report.enb_id <= 0xFFFF:
        return BwrCodecError(f"enb_id {report.enb_id} unencodable")
    if not 0 <= report.sequence <= 0xFFFF:
        return BwrCodecError(f"sequence {report.sequence} unencodable")
    if not 0 <= report.egress_time <= 0xFFFFFFFFFFFFFFFF:
        return BwrCodecError(f"egress_time {report.egress_time} unencodable")
    if report.mode not in _MODES:
        return BwrCodecError(f"mode {report.mode} unknown")
    return None


def decode_bwr(frame: bytes) -> BandwidthReport:
    if len(frame) != BWR_FRAME_BYTES:
        raise BwrCodecError(f"length: expected {BWR_FRAME_BYTES} bytes, got {len(frame)}")
    (magic, version, enb_id, sequence, egress_time, mode,
     lcg0, bytes0, lcg1, bytes1, lcg2, bytes2, lcg3, bytes3) = _FRAME.unpack(frame)
    if magic != BWR_MAGIC:
        raise BwrCodecError(f"magic: expected {BWR_MAGIC!r}, got {magic!r}")
    if version != BWR_VERSION:
        raise BwrCodecError(f"version: {version} unsupported")
    if mode not in _MODES:
        raise BwrCodecError(f"mode: {mode} unknown")
    if not frame.endswith(_ZEROS):    # the length is checked: this is the padding
        raise BwrCodecError("padding: trailing bytes must be zero")
    # struct bounds every field, so the record needs no further check
    return BandwidthReport(enb_id, sequence, egress_time,
                           ((lcg0, bytes0), (lcg1, bytes1), (lcg2, bytes2), (lcg3, bytes3)),
                           mode)


class BwrEmitter:
    """Base-station side: aggregates issued grants into periodic reports.

    note_grant() is called for every data allocation (and every announced
    retransmission) with its expected egress time. Each build tick reports the
    entries whose egress falls within the scheduling lead (report_lead, the
    grant-to-transmission turnaround plus decode); later entries, such as
    announced retransmissions, wait for the tick with the matching lead. A
    report's egress is the latest of its due entries, so the grant it produces
    is never placed before any byte it covers. Its entries can span more than
    one build period: when the lead exceeds the HARQ round trip, a
    retransmission is due at the first build after its announcement, beside
    fresh grants whose egress comes later.

    The entries are kept in egress order, so a build's due entries are a
    prefix: the first holds their earliest egress, the last their latest.

    Every byte of a run belongs to the run's one LCG, so an entry is
    (egress, bytes), and a report is bulk: its total in block 0, the other
    blocks 0.
    """

    def __init__(self, enb_id: int, period: int, report_lead: int, *,
                 forward, collector):
        self.enb_id = enb_id
        self.period = period
        self.report_lead = report_lead
        self.forward = forward        # fn(report) -> None; CM-side handoff
        self.collector = collector
        self.sequence = 0
        self.entries: list[tuple[int, int]] = []    # (egress, bytes), by egress

    def note_grant(self, nbytes: int, egress_time: int) -> None:
        insort(self.entries, (egress_time, nbytes))

    def on_subframe(self, t: int) -> None:
        if t % self.period != 0:
            return
        self.build(t)

    def build(self, t: int) -> BandwidthReport | None:
        end = bisect_right(self.entries, t + self.report_lead, key=_EGRESS)
        if not end:                   # nothing due, or no entry at all
            return None
        due = self.entries[:end]
        del self.entries[:end]
        if due[0][0] <= t:
            raise BwrCodecError(f"egress_time {due[0][0]} not in the future at {t}")
        # The latest egress: the report's grant waits for every byte it covers.
        report = BandwidthReport(self.enb_id, self.sequence, due[-1][0],
                                 ((0, sum(map(_BYTES, due))), (1, 0), (2, 0), (3, 0)))
        self.sequence = (self.sequence + 1) & 0xFFFF
        self.collector.counters.bwr_reports_built += 1
        self.forward(report)
        return report
