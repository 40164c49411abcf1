import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrsim.bwr import (BWR_FRAME_BYTES, BWR_MODE_BULK, BWR_MODE_PER_LCG,
                        BandwidthReport, BwrCodecError, BwrEmitter, decode_bwr,
                        encode_bwr)
from bwrsim.config import SimConfig
from bwrsim.core import MS, PRIO_SCHED, SEC, Rng, Simulator
from bwrsim.docsis import Cm, Cmts, ServiceFlow, region_duration
from bwrsim.lte import Packet
from bwrsim.metrics import Collector

from run_checks import filter_every_entry, record_maps


def report(egress=19 * MS, blocks=((0, 300), (1, 0), (2, 0), (3, 0)),
           enb=1, seq=7, mode=BWR_MODE_BULK):
    return BandwidthReport(enb, seq, egress, tuple(blocks), mode)


# -- codec -------------------------------------------------------------------

GOLDEN_HEX = (
    "4257" "01" "0001" "0007" "0000000000004a38" "00"
    "00" "0000012c" "01" "00000000" "02" "00000000" "03" "00000000"
    + "00" * 44
)


def test_golden_frame():
    frame = encode_bwr(report())
    assert len(frame) == BWR_FRAME_BYTES == 80
    assert frame.hex() == GOLDEN_HEX


def test_round_trip_identity():
    r = report(blocks=((0, 12), (1, 34), (2, 0), (3, 4_000_000_000)),
               mode=BWR_MODE_PER_LCG)
    assert decode_bwr(encode_bwr(r)) == r
    frame = encode_bwr(r)
    assert encode_bwr(decode_bwr(frame)) == frame


def test_decode_length_error():
    with pytest.raises(BwrCodecError, match="length"):
        decode_bwr(bytes(79))


def test_decode_magic_error():
    frame = bytearray(encode_bwr(report()))
    frame[0] = 0x43
    with pytest.raises(BwrCodecError, match="magic"):
        decode_bwr(bytes(frame))


def test_decode_version_error():
    frame = bytearray(encode_bwr(report()))
    frame[2] = 9
    with pytest.raises(BwrCodecError, match="version"):
        decode_bwr(bytes(frame))


def test_decode_padding_error():
    frame = bytearray(encode_bwr(report()))
    frame[-1] = 1
    with pytest.raises(BwrCodecError, match="padding"):
        decode_bwr(bytes(frame))


@pytest.mark.parametrize("offset", range(36, BWR_FRAME_BYTES))
def test_a_nonzero_byte_anywhere_in_the_padding_is_refused(offset):
    frame = bytearray(encode_bwr(report()))
    frame[offset] = 1
    with pytest.raises(BwrCodecError, match="padding"):
        decode_bwr(bytes(frame))


def test_decode_mode_error():
    frame = bytearray(encode_bwr(report()))
    frame[15] = 2
    with pytest.raises(BwrCodecError, match="mode: 2 unknown"):
        decode_bwr(bytes(frame))


EXTREME_HEX = (
    "4257" "01" "ffff" "ffff" "ffffffffffffffff" "01"
    "ff" "ffffffff" "00" "00000000" "ff" "00000001" "03" "ffffffff"
    + "00" * 44
)


def test_extreme_frame_is_pinned():
    r = report(egress=2 ** 64 - 1, enb=0xFFFF, seq=0xFFFF, mode=BWR_MODE_PER_LCG,
               blocks=((0xFF, 0xFFFFFFFF), (0, 0), (0xFF, 1), (3, 0xFFFFFFFF)))
    frame = encode_bwr(r)
    assert frame.hex() == EXTREME_HEX
    assert decode_bwr(frame) == r


@pytest.mark.parametrize("mode", [BWR_MODE_BULK, BWR_MODE_PER_LCG])
def test_round_trip_at_every_field_extreme(mode):
    r = report(egress=2 ** 64 - 1, enb=0xFFFF, seq=0xFFFF, mode=mode,
               blocks=[(0xFF, 0xFFFFFFFF)] * 4)
    frame = encode_bwr(r)
    assert len(frame) == BWR_FRAME_BYTES
    assert decode_bwr(frame) == r
    assert encode_bwr(decode_bwr(frame)) == frame


def test_zero_blocks_valid():
    r = report(blocks=((0, 0), (1, 0), (2, 0), (3, 0)))
    assert decode_bwr(encode_bwr(r)).total_bytes() == 0


def test_report_field_validation():
    with pytest.raises(BwrCodecError, match="blocks"):
        encode_bwr(BandwidthReport(1, 0, 1000, ((0, 1),)))
    with pytest.raises(BwrCodecError, match="bytes"):
        encode_bwr(BandwidthReport(1, 0, 1000, ((0, 1 << 32), (1, 0), (2, 0), (3, 0))))
    with pytest.raises(BwrCodecError, match="sequence"):
        encode_bwr(BandwidthReport(1, 1 << 16, 1000, ((0, 1), (1, 0), (2, 0), (3, 0))))


def out_of_range(field, value):
    """report() with one field, or block 1's lcg_id or bytes, set to value."""
    if field in ("lcg_id", "bytes"):
        blocks = [(0, 300), (1, 0), (2, 0), (3, 0)]
        blocks[1] = (value, 0) if field == "lcg_id" else (1, value)
        return report(blocks=blocks)
    if field == "blocks":
        return report(blocks=[(g, 0) for g in range(value)])
    return report()._replace(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("enb_id", -1, "enb_id -1 unencodable"),
    ("enb_id", 0x10000, "enb_id 65536 unencodable"),
    ("sequence", -1, "sequence -1 unencodable"),
    ("sequence", 0x10000, "sequence 65536 unencodable"),
    ("egress_time", -1, "egress_time -1 unencodable"),
    ("egress_time", 2 ** 64, "egress_time 18446744073709551616 unencodable"),
    ("lcg_id", -1, "lcg_id -1 unencodable"),
    ("lcg_id", 0x100, "lcg_id 256 unencodable"),
    ("bytes", -1, "block bytes -1 unencodable"),
    ("bytes", 2 ** 32, "block bytes 4294967296 unencodable"),
    ("mode", 2, "mode 2 unknown"),
    ("blocks", 3, "blocks: expected 4 entries, got 3"),
    ("blocks", 5, "blocks: expected 4 entries, got 5"),
])
def test_an_unencodable_field_is_named(field, value, message):
    with pytest.raises(BwrCodecError) as info:
        encode_bwr(out_of_range(field, value))
    assert str(info.value) == message


def test_a_value_of_a_type_struct_refuses_raises_its_error():
    # a float is in range, so no check names it: struct refuses it
    with pytest.raises(struct.error):
        encode_bwr(report(enb=1.0))


@settings(max_examples=300, deadline=None)
@given(enb=st.integers(0, 0xFFFF), seq=st.integers(0, 0xFFFF),
       egress=st.integers(0, 2 ** 64 - 1),
       mode=st.sampled_from([BWR_MODE_BULK, BWR_MODE_PER_LCG]),
       sizes=st.lists(st.integers(0, 2 ** 32 - 1), min_size=4, max_size=4))
def test_round_trip_fuzz(enb, seq, egress, mode, sizes):
    r = BandwidthReport(enb, seq, egress,
                        tuple((g, sizes[g]) for g in range(4)), mode)
    assert decode_bwr(encode_bwr(r)) == r


# -- emitter -----------------------------------------------------------------

def make_emitter(out, period=2 * MS, lead=6 * MS):
    return BwrEmitter(1, period, lead, forward=out.append, collector=Collector("bwr"))


def test_emitter_ladder_egress_time():
    # grant issued at 13 ms, 4 ms to transmission, 2 ms decode: egress 19 ms
    out = []
    em = make_emitter(out)
    em.note_grant(60, 13 * MS + 4 * MS + 2 * MS)
    em.on_subframe(14 * MS)
    assert out[0].egress_time == 19 * MS
    assert (out[0].mode, out[0].blocks) == (BWR_MODE_BULK, ((0, 60), (1, 0), (2, 0), (3, 0)))


def test_emitter_aggregates_same_window():
    out = []
    em = make_emitter(out)
    em.note_grant(100, 19 * MS)
    em.note_grant(200, 19 * MS)
    em.on_subframe(14 * MS)
    assert len(out) == 1
    assert out[0].total_bytes() == 300


def test_emitter_empty_window_silent():
    out = []
    em = make_emitter(out)
    em.on_subframe(14 * MS)
    assert out == []


def test_emitter_defers_far_egress():
    # an announced retransmission 10 ms out waits for the matching tick
    out = []
    em = make_emitter(out)
    em.note_grant(60, 24 * MS)
    em.on_subframe(14 * MS)
    assert out == []
    em.on_subframe(16 * MS)
    assert out == []
    em.on_subframe(18 * MS)
    assert len(out) == 1 and out[0].egress_time == 24 * MS


def test_emitter_off_period_tick_ignored():
    out = []
    em = make_emitter(out)
    em.note_grant(60, 19 * MS)
    em.on_subframe(13 * MS)
    assert out == []


def test_emitter_sequence_increments():
    out = []
    em = make_emitter(out)
    for k in range(3):
        em.note_grant(10, 20 * MS + k * 2 * MS)
        em.on_subframe(14 * MS + k * 2 * MS)
    assert [r.sequence for r in out] == [0, 1, 2]


def test_emitter_reports_the_latest_egress_of_its_entries():
    # the grant goes at or after the report's egress, so that egress is the
    # one of its last bytes: an earlier one can grant bytes not yet there
    out = []
    em = make_emitter(out)
    em.note_grant(100, 14 * MS + 3 * MS)
    em.note_grant(200, 14 * MS + 5 * MS)
    em.on_subframe(14 * MS)
    assert len(out) == 1 and out[0].total_bytes() == 300
    assert out[0].egress_time == 14 * MS + 5 * MS


def filtering_emitter(out, **kwargs):
    """An emitter whose every build filters its entries (the slow twin)."""
    em = make_emitter(out, **kwargs)
    em.build = lambda t: filter_every_entry(em, t)
    return em


def announce_and_build(em):
    # fresh grants due at each build, beside a retransmission announced at
    # 15 ms for 24 ms: beyond the horizon of the 14 and 16 ms builds (lead
    # 6 ms), it is left behind until the 18 ms build takes it with the rest
    em.note_grant(100, 19 * MS)
    em.note_grant(80, 20 * MS)
    em.on_subframe(14 * MS)
    em.note_grant(70, 24 * MS)
    em.note_grant(200, 21 * MS)
    em.note_grant(40, 22 * MS)
    em.on_subframe(16 * MS)
    em.note_grant(90, 23 * MS)
    em.on_subframe(18 * MS)
    em.on_subframe(20 * MS)


def test_a_retransmission_beyond_the_horizon_builds_as_filtering_does():
    fast, slow = [], []
    em = make_emitter(fast)
    announce_and_build(em)
    announce_and_build(filtering_emitter(slow))
    assert fast == slow
    assert [(r.egress_time, r.total_bytes()) for r in fast] == [
        (20 * MS, 180), (22 * MS, 240), (24 * MS, 160)]
    assert em.entries == []


@pytest.mark.parametrize("emitter", [make_emitter, filtering_emitter])
def test_a_build_takes_the_entries_due_by_its_horizon(emitter):
    # with a lead beyond the 8 ms HARQ round trip (12 ms here), a
    # retransmission is announced with an egress before that of a fresh grant
    # already queued; the entries stay in egress order, and a build takes
    # those with egress at most t + 12 ms, the one on that horizon included
    out = []
    em = emitter(out, lead=12 * MS)
    for nbytes, egress in [(100, 21 * MS), (70, 20 * MS), (30, 26 * MS), (40, 22 * MS)]:
        em.note_grant(nbytes, egress)
        assert em.entries == sorted(em.entries)
    em.on_subframe(10 * MS)
    assert em.entries == [(26 * MS, 30)]
    em.on_subframe(12 * MS)
    em.on_subframe(14 * MS)
    assert em.entries == []
    assert [(r.egress_time, r.total_bytes()) for r in out] == [(22 * MS, 210), (26 * MS, 30)]


@pytest.mark.parametrize("emitter", [make_emitter, filtering_emitter])
@pytest.mark.parametrize("later", [None, 19 * MS, 30 * MS])
def test_a_build_raises_on_an_entry_not_in_the_future(emitter, later):
    # taken alone, or beside a later entry that is due too (the check reads
    # the earliest due egress, not the report's), or filtered out beside a
    # later one beyond the horizon
    em = emitter([])
    em.note_grant(60, 14 * MS)
    if later is not None:
        em.note_grant(60, later)
    with pytest.raises(BwrCodecError, match="not in the future"):
        em.on_subframe(14 * MS)


# -- transport in unsolicited grants ------------------------------------------

def build_docsis(ugs_phase=0):
    """A CMTS with unsolicited grants and a modem with eNB 1's data flow;
    also returns every MAP the modem gets."""
    sim = Simulator()
    cfg = SimConfig(ugs_grant_bytes=80, ugs_period_us=2 * MS, ugs_phase_us=ugs_phase,
                    duration_us=10 * SEC)
    collector = Collector("bwr")
    cmts = Cmts(sim, cfg, collector, True)
    cm = Cm(sim, cmts, cfg, collector, Rng(3))
    cm.add_flow(ServiceFlow(1))
    maps = record_maps(cm)
    sim.schedule_at(0, PRIO_SCHED, cmts.map_cycle)
    return sim, cmts, cm, collector, maps


def bwr_grants(maps):
    return [g for m in maps for g in m.grants if g.kind == "bwr"]


def test_forward_rides_next_ugs_grant():
    # ready at 13.1 ms with grants on even milliseconds: picked up at 14 ms
    # (nudged past the contention region), at the CMTS one framing time plus
    # the 80-byte serialization later
    sim, cmts, cm, collector, maps = build_docsis(ugs_phase=0)
    arrivals = []
    orig = cmts.on_bwr_frame
    cmts.on_bwr_frame = lambda frame: arrivals.append(sim.now) or orig(frame)
    sim.run_until(13 * MS + 100)
    cm.forward_report(cm.flows[1], report(egress=19 * MS))
    sim.run_until(20 * MS)
    region = region_duration(cmts.cfg)
    assert arrivals == [14 * MS + region + 1200 + 17]


def test_two_reports_queue_fifo():
    sim, cmts, cm, collector, maps = build_docsis(ugs_phase=0)
    arrivals = []
    orig = cmts.on_bwr_frame
    cmts.on_bwr_frame = lambda frame: arrivals.append(sim.now) or orig(frame)
    sim.run_until(13 * MS)
    cm.forward_report(cm.flows[1], report(egress=19 * MS, seq=1))
    cm.forward_report(cm.flows[1], report(egress=21 * MS, seq=2))
    sim.run_until(20 * MS)
    region = region_duration(cmts.cfg)
    # 80 B does not fit twice in one grant: strict FIFO to the next period
    assert arrivals == [14 * MS + region + 1217, 16 * MS + region + 1217]


def test_just_in_time_grant_at_egress():
    sim, cmts, cm, collector, maps = build_docsis(ugs_phase=0)
    pkt = Packet(0, 1, 1, 300)
    pkt.stamp_ue_arrival(0)
    sim.run_until(10 * MS)
    cm.forward_report(cm.flows[1], report(egress=20 * MS))
    sim.run_until(20 * MS)
    cm.enqueue_chunks(cm.flows[1], [(pkt, 300)], sim.now)
    assert cm.flows[1].req is None          # described bytes, no REQ
    sim.run_until(30 * MS)
    grants = bwr_grants(maps)
    assert len(grants) == 1
    assert grants[0].start >= 20 * MS            # at or after egress
    assert grants[0].start < 22 * MS             # inside the covering window
    assert list(collector.samples)[0].docsis_us < 1500


def test_zero_total_report_schedules_nothing():
    sim, cmts, cm, collector, maps = build_docsis()
    sim.run_until(10 * MS)
    cmts.on_bwr_frame(encode_bwr(report(blocks=((0, 0),) * 1 + tuple((g, 0) for g in range(1, 4)))))
    assert cmts.demand == []


def test_late_report_falls_back_to_next_window():
    sim, cmts, cm, collector, maps = build_docsis(ugs_phase=0)
    sim.run_until(19 * MS)
    # egress 20 ms: the MAP covering [20, 22) was generated at 18 ms
    cmts.on_bwr_frame(encode_bwr(report(egress=20 * MS)))
    sim.run_until(30 * MS)
    grants = bwr_grants(maps)
    assert len(grants) == 1
    assert 22 * MS <= grants[0].start < 24 * MS       # earliest feasible window


def test_harq_failure_wastes_grant_data_rides_fresh_report():
    sim, cmts, cm, collector, maps = build_docsis(ugs_phase=0)
    sim.run_until(10 * MS)
    # first report: data never arrives (failed transmission)
    cm.forward_report(cm.flows[1], report(egress=20 * MS, seq=0))
    sim.run_until(24 * MS)
    assert collector.counters.wasted_bwr_grant_bytes == 300
    # fresh report for the retransmission, 8 ms later
    cm.forward_report(cm.flows[1], report(egress=28 * MS, seq=1))
    sim.run_until(28 * MS)
    pkt = Packet(0, 1, 1, 300)
    pkt.stamp_ue_arrival(0)
    cm.enqueue_chunks(cm.flows[1], [(pkt, 300)], sim.now)
    assert cm.flows[1].req is None          # described credit still held
    sim.run_until(36 * MS)
    assert len(collector.samples) == 1
    assert list(collector.samples)[0].docsis_us < 2500


def arrive_at(t, egress, nbytes=300):
    """The data flow of a modem that forwards, at 10 ms, a 300-byte report
    with this egress, once nbytes reach it at t."""
    sim, cmts, cm, collector, maps = build_docsis()
    sim.run_until(10 * MS)
    cm.forward_report(cm.flows[1], report(egress=egress))
    sim.run_until(t)
    pkt = Packet(0, 1, 1, nbytes)
    pkt.stamp_ue_arrival(0)
    cm.enqueue_chunks(cm.flows[1], [(pkt, nbytes)], sim.now)
    return cm.flows[1]


def test_described_credit_expires():
    # the decode hands a block's bytes over at its announced egress or never:
    # credit covers bytes at the egress, and none a microsecond later
    assert arrive_at(12 * MS, egress=12 * MS).req is None
    flow = arrive_at(12 * MS + 1, egress=12 * MS)
    assert flow.req is not None                  # credit gone, REQ armed
    assert not flow.described


def test_failed_attempts_credit_covers_no_later_bytes():
    # the block announced for 20 ms failed, so its bytes never come; bytes
    # with no report of their own, 1 ms later, are requested
    flow = arrive_at(21 * MS, egress=20 * MS, nbytes=200)
    assert flow.uncovered_bytes == 200
    assert flow.req is not None


# -- described credit, at the flow ------------------------------------------------

def credited(*entries):
    """A data flow holding the given (egress, bytes) credit entries."""
    flow = ServiceFlow(1)
    flow.described.extend([egress, nbytes] for egress, nbytes in entries)
    return flow


def test_credit_is_consumed_across_entries():
    flow = credited((20 * MS, 100), (22 * MS, 300))
    assert flow.consume_described(250, 19 * MS) == 250
    assert list(flow.described) == [[20 * MS, 0], [22 * MS, 150]]
    assert flow.consume_described(500, 19 * MS) == 150


def test_spent_credit_leaves_the_front():
    flow = credited((20 * MS, 100), (22 * MS, 300))
    assert flow.consume_described(100, 19 * MS) == 100
    assert flow.consume_described(50, 19 * MS) == 50
    assert list(flow.described) == [[22 * MS, 250]]


def test_expired_credit_behind_the_front_is_skipped_in_place():
    # out of order: with grant_to_data_us + enb_decode_us above the 8 ms HARQ
    # round trip, a retransmission is due at the build after its decode, so
    # its report (egress 24 ms) can follow a fresh grant's (egress 30 ms)
    flow = credited((30 * MS, 100), (24 * MS, 200), (31 * MS, 300))
    assert flow.consume_described(350, 25 * MS) == 350
    assert list(flow.described) == [[30 * MS, 0], [24 * MS, 200], [31 * MS, 50]]
    # once at the front, the expired entry leaves with the spent one
    assert flow.consume_described(100, 31 * MS) == 50
    assert list(flow.described) == [[31 * MS, 0]]


def test_credit_covers_bytes_at_its_egress_but_not_after():
    assert credited((20 * MS, 100)).consume_described(100, 20 * MS) == 100
    flow = credited((20 * MS, 100))
    assert flow.consume_described(100, 20 * MS + 1) == 0
    assert not flow.described
