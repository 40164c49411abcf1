import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwrsim.bwr import (BWR_FRAME_BYTES, BWR_MODE_BULK, BWR_MODE_PER_LCG,
                        BandwidthReport, BwrCodecError, BwrEmitter, decode_bwr,
                        encode_bwr)
from bwrsim.config import SimConfig
from bwrsim.core import MS, PRIO_SCHED, SEC, Rng, Simulator
from bwrsim.docsis import (BE, UGS, ChannelLedger, Cm, Cmts, ServiceFlow,
                           region_duration)
from bwrsim.lte import Packet
from bwrsim.metrics import Collector

from run_checks import record_maps


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
        BandwidthReport(1, 0, 1000, ((0, 1),))
    with pytest.raises(BwrCodecError, match="bytes"):
        BandwidthReport(1, 0, 1000, ((0, 1 << 32), (1, 0), (2, 0), (3, 0)))
    with pytest.raises(BwrCodecError, match="sequence"):
        BandwidthReport(1, 1 << 16, 1000, ((0, 1), (1, 0), (2, 0), (3, 0)))


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

class StubCollector:
    def __init__(self):
        self.counters = {}

    def count(self, key, delta=1):
        self.counters[key] = self.counters.get(key, 0) + delta


def make_emitter(out, period=2 * MS, lead=6 * MS, per_lcg=False):
    return BwrEmitter(1, period, lead, per_lcg=per_lcg,
                      forward=out.append, collector=StubCollector())


def test_emitter_ladder_egress_time():
    # grant issued at 13 ms, 4 ms to transmission, 2 ms decode: egress 19 ms
    out = []
    em = make_emitter(out)
    em.note_grant({1: 60}, 13 * MS + 4 * MS + 2 * MS)
    em.on_subframe(14 * MS)
    assert out[0].egress_time == 19 * MS
    assert out[0].blocks == ((0, 60), (1, 0), (2, 0), (3, 0))


def test_emitter_aggregates_same_window():
    out = []
    em = make_emitter(out)
    em.note_grant({1: 100}, 19 * MS)
    em.note_grant({1: 200}, 19 * MS)
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
    em.note_grant({1: 60}, 24 * MS)
    em.on_subframe(14 * MS)
    assert out == []
    em.on_subframe(16 * MS)
    assert out == []
    em.on_subframe(18 * MS)
    assert len(out) == 1 and out[0].egress_time == 24 * MS


def test_emitter_off_period_tick_ignored():
    out = []
    em = make_emitter(out)
    em.note_grant({1: 60}, 19 * MS)
    em.on_subframe(13 * MS)
    assert out == []


def test_emitter_sequence_increments():
    out = []
    em = make_emitter(out)
    for k in range(3):
        em.note_grant({0: 10}, 20 * MS + k * 2 * MS)
        em.on_subframe(14 * MS + k * 2 * MS)
    assert [r.sequence for r in out] == [0, 1, 2]


def test_emitter_per_lcg_blocks():
    out = []
    em = make_emitter(out, per_lcg=True)
    em.note_grant({1: 100, 2: 50}, 19 * MS)
    em.on_subframe(14 * MS)
    assert out[0].mode == BWR_MODE_PER_LCG
    assert out[0].blocks == ((0, 0), (1, 100), (2, 50), (3, 0))


def test_emitter_reports_the_latest_egress_of_its_entries():
    # the grant goes at or after the report's egress, so that egress is the
    # one of its last bytes: an earlier one can grant bytes not yet there
    out = []
    em = make_emitter(out)
    em.note_grant({1: 100}, 14 * MS + 3 * MS)
    em.note_grant({1: 200}, 14 * MS + 5 * MS)
    em.on_subframe(14 * MS)
    assert len(out) == 1 and out[0].total_bytes() == 300
    assert out[0].egress_time == 14 * MS + 5 * MS


# -- transport over the unsolicited flow ---------------------------------------

def build_docsis(ugs_phase=0):
    """A CMTS and modem with data and UGS flows; also returns every MAP the
    modem gets."""
    sim = Simulator()
    cfg = SimConfig(ugs_grant_bytes=80, ugs_period_us=2 * MS, ugs_phase_us=ugs_phase)
    collector = Collector("bwr")
    cmts = Cmts(sim, cfg, ChannelLedger(10 * SEC), collector)
    cm = Cm(sim, cmts, cfg, collector, Rng(3))
    cm.add_flow(ServiceFlow("data", BE, owner_enb=1))
    cm.add_flow(ServiceFlow("ugs", UGS, owner_enb=1))
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
    cm.forward_report(encode_bwr(report(egress=19 * MS)))
    sim.run_until(20 * MS)
    region = region_duration(cmts.cfg)
    assert arrivals == [14 * MS + region + 1200 + 17]


def test_two_reports_queue_fifo():
    sim, cmts, cm, collector, maps = build_docsis(ugs_phase=0)
    arrivals = []
    orig = cmts.on_bwr_frame
    cmts.on_bwr_frame = lambda frame: arrivals.append(sim.now) or orig(frame)
    sim.run_until(13 * MS)
    cm.forward_report(encode_bwr(report(egress=19 * MS, seq=1)))
    cm.forward_report(encode_bwr(report(egress=21 * MS, seq=2)))
    sim.run_until(20 * MS)
    region = region_duration(cmts.cfg)
    # 80 B does not fit twice in one grant: strict FIFO to the next period
    assert arrivals == [14 * MS + region + 1217, 16 * MS + region + 1217]


def test_just_in_time_grant_at_egress():
    sim, cmts, cm, collector, maps = build_docsis(ugs_phase=0)
    pkt = Packet(0, 1, 1, 300, 1, "voip")
    pkt.set_stage("ue_arrival", 0)
    sim.run_until(10 * MS)
    cm.note_described(cm.flows["data"], 20 * MS, 300)
    cm.forward_report(encode_bwr(report(egress=20 * MS)))
    sim.run_until(20 * MS)
    cm.enqueue_chunks(cm.flows["data"], [(pkt, 300)], sim.now)
    assert cm.flows["data"].req is None          # described bytes, no REQ
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
    assert cmts.bwr_fifo == []


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
    cm.note_described(cm.flows["data"], 20 * MS, 300)
    cm.forward_report(encode_bwr(report(egress=20 * MS, seq=0)))
    sim.run_until(24 * MS)
    assert collector.counters.get("wasted_bwr_grant_bytes") == 300
    # fresh report for the retransmission, 8 ms later
    cm.note_described(cm.flows["data"], 28 * MS, 300)
    cm.forward_report(encode_bwr(report(egress=28 * MS, seq=1)))
    sim.run_until(28 * MS)
    pkt = Packet(0, 1, 1, 300, 1, "voip")
    pkt.set_stage("ue_arrival", 0)
    cm.enqueue_chunks(cm.flows["data"], [(pkt, 300)], sim.now)
    assert cm.flows["data"].req is None          # described credit still held
    sim.run_until(36 * MS)
    assert len(collector.samples) == 1
    assert list(collector.samples)[0].docsis_us < 2500


def test_described_credit_expires():
    sim, cmts, cm, collector, maps = build_docsis()
    sim.run_until(10 * MS)
    cm.note_described(cm.flows["data"], 12 * MS, 300)
    sim.run_until(15 * MS)                       # past egress + expiry slack
    pkt = Packet(0, 1, 1, 300, 1, "voip")
    pkt.set_stage("ue_arrival", 0)
    cm.enqueue_chunks(cm.flows["data"], [(pkt, 300)], sim.now)
    assert cm.flows["data"].req is not None      # credit gone, REQ armed
