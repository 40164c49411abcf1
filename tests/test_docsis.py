import numpy as np
import pytest

from bwrsim.core import MS, PRIO_SCHED, SEC, Rng, Simulator
from bwrsim.docsis import (BE, UGS, ChannelLedger, Cm, Cmts, DocsisError,
                           DocsisRequest, DocsisTimingProfile, Grant, ServiceFlow,
                           _Window, serialization_us)
from bwrsim.lte import Packet
from bwrsim.metrics import Collector


def build(profile=None, *, flows=("f1",), ugs=None, seed=3,
          lcg_differentiation=False):
    """A CMTS and modem with BE flows; also returns every MAP the modem gets."""
    sim = Simulator()
    prof = profile or DocsisTimingProfile()
    prof.validate()
    collector = Collector("baseline")
    cmts = Cmts(sim, prof, ChannelLedger(10 * SEC), collector,
                lcg_differentiation=lcg_differentiation)
    cm = Cm(sim, cmts, prof, collector, Rng(seed))
    for i, fid in enumerate(flows, start=1):
        cm.add_flow(ServiceFlow(fid, BE, owner_enb=i))
    if ugs is not None:
        cm.add_flow(ugs)
    maps = []
    on_map = cm.on_map

    def record(msg):
        maps.append(msg)
        on_map(msg)

    cm.on_map = record
    sim.schedule_at(0, PRIO_SCHED, cmts.map_cycle)
    return sim, cmts, cm, collector, maps


def grants_of(maps, kind):
    return [g for m in maps for g in m.grants if g.kind == kind]


def map_overlaps(m) -> bool:
    """True when a MAP's reservations overlap or leave its window."""
    spans = sorted([(m.region_start, m.region_start + m.region_duration)]
                   + [(g.start, g.start + g.duration) for g in m.grants])
    ends = [m.window_start] + [e for _, e in spans]
    return any(s < e for (s, _), e in zip(spans, ends)) or ends[-1] > m.window_end


def packet(pid, size=60, ue=1, enb=1):
    p = Packet(pid, ue, enb, size, 1, "voip")
    p.set_stage("ue_arrival", 0)
    p.lte_delivered = size
    return p


def inject(sim, cm, fid, pkt, t):
    """Deliver a whole packet to the modem at time t."""
    sim.run_until(t)
    cm.enqueue_chunks(fid, [(pkt, pkt.size_bytes, True)], t)


def test_serialization_arithmetic():
    # 60 B at 39 Mbps is 12.3 us on the wire, rounded up to whole us
    assert serialization_us(60, 39_000_000) == 13
    assert serialization_us(80, 39_000_000) == 17
    assert serialization_us(9750, 39_000_000) == 2000


def test_profile_floor():
    p = DocsisTimingProfile()
    assert p.req_grant_floor() == 4 * MS
    assert p.window_capacity_bytes() == 9750


def test_request_grant_floor_even_alignment():
    # arrival on an even millisecond rides the immediate contention region:
    # 4 ms request-grant + region offset + framing + serialization
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, "f1", pkt, 18 * MS)
    sim.run_until(40 * MS)
    assert collector.samples[0].docsis_us == 5245


def test_request_grant_odd_alignment_adds_one_ms():
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, "f1", pkt, 19 * MS)
    sim.run_until(40 * MS)
    assert collector.samples[0].docsis_us == 6245


def test_single_outstanding_request_piggybacks():
    # second packet arriving while the request is armed rides the same REQ
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, "f1", packet(0), 18 * MS)
    inject(sim, cm, "f1", packet(1), 18 * MS)   # same instant, REQ not yet sent
    sim.run_until(19 * MS)
    flow = cm.flows["f1"]
    delivered = [r for r in cmts.req_fifo]
    assert len(delivered) == 1
    assert delivered[0][3] == 120               # both packets in one REQ
    sim.run_until(40 * MS)
    assert len(collector.samples) == 2


def test_new_request_after_delivery():
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, "f1", packet(0), 18 * MS)
    sim.run_until(19 * MS)                      # REQ delivered in region at 18 ms
    inject(sim, cm, "f1", packet(1), 19 * MS)
    assert cm.flows["f1"].req is not None       # fresh REQ armed for new bytes
    sim.run_until(40 * MS)
    assert len(collector.samples) == 2


def test_ugs_flow_never_requests():
    ugs = ServiceFlow("ugs1", UGS, grant_size_bytes=80, grant_period=2 * MS,
                      grant_phase=MS)
    sim, cmts, cm, collector, maps = build(ugs=ugs)
    sim.run_until(5 * MS)
    cm.enqueue_chunks("ugs1", [(packet(0), 60, True)], sim.now)
    assert cm.flows["ugs1"].req is None
    sim.run_until(20 * MS)
    assert cm.flows["ugs1"].req is None


def test_ugs_grant_cadence_and_idle_waste():
    ugs = ServiceFlow("ugs1", UGS, grant_size_bytes=80, grant_period=2 * MS,
                      grant_phase=MS)
    sim, cmts, cm, collector, maps = build(ugs=ugs)
    sim.run_until(2 * MS + 2 * 10 ** 6)         # a full 2 s of covered windows
    grants = [g for g in grants_of(maps, "ugs")
              if 2 * MS <= g.start < 2 * MS + 2 * 10 ** 6]
    assert len(grants) == 1000                  # one per 2 ms period
    assert collector.counters["ugs_idle_grants"] >= 999
    assert "bwr_frames_sent" not in collector.counters   # nothing carried


def test_zero_byte_service_is_noop():
    sim, cmts, cm, collector, maps = build()
    cm.on_grant(Grant("f1", 2 * MS, 13, 60, "be"), 0)
    assert collector.counters.get("docsis_sent_bytes", 0) == 0


def test_fragmentation_last_byte_rule():
    # 3000 B packet over a 8 Mbps channel: window capacity 2000 B, so the
    # packet spans two grants 2 ms apart; latency runs to the last fragment
    prof = DocsisTimingProfile(upstream_bps=8_000_000)
    sim, cmts, cm, collector, maps = build(prof)
    pkt = packet(0, size=3000)
    inject(sim, cm, "f1", pkt, 18 * MS)
    sim.run_until(60 * MS)
    assert len(collector.samples) == 1
    s = collector.samples[0]
    first_possible = 4 * MS + prof.cm_framing   # if it fit one grant
    assert s.docsis_us > first_possible + 2 * MS  # second window was needed
    assert pkt.docsis_egressed == 3000


def test_duplicate_egress_rejected():
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, "f1", pkt, 18 * MS)
    sim.run_until(40 * MS)
    from bwrsim.metrics import MetricsError
    with pytest.raises(MetricsError):
        collector.record_egress(pkt)


def test_work_conservation_single_backlogged_flow():
    # one flow, huge backlog: every window past the ramp fills to capacity
    # minus the contention region
    sim, cmts, cm, collector, maps = build()
    sim.run_until(10 * MS)
    big = packet(0, size=200_000)
    cm.enqueue_chunks("f1", [(big, 200_000, True)], sim.now)
    sim.run_until(40 * MS)
    prof = cmts.profile
    cap = prof.window_capacity_bytes()
    region_bytes = prof.contention_slots * prof.slot_bytes
    filled = {}
    for g in grants_of(maps, "be"):
        win = g.start // prof.map_interval
        filled[win] = filled.get(win, 0) + g.nbytes
    busy = [b for _, b in sorted(filled.items())][1:-1]   # steady-state windows
    assert busy
    assert all(b >= cap - region_bytes - 64 for b in busy)


def test_map_windows_never_overcommit():
    sim, cmts, cm, collector, maps = build()
    for i in range(40):
        inject(sim, cm, "f1", packet(i, size=5000), 10 * MS + i * 100)
    sim.run_until(100 * MS)
    cap = cmts.profile.window_capacity_bytes()
    assert maps
    for m in maps:
        assert m.granted_bytes() <= cap
        assert not map_overlaps(m)


def test_grants_never_overlap_contention_region():
    sim, cmts, cm, collector, maps = build()
    for i in range(20):
        inject(sim, cm, "f1", packet(i, size=3000), 10 * MS + i * 500)
    sim.run_until(60 * MS)
    for m in maps:
        r0, r1 = m.region_start, m.region_start + m.region_duration
        for g in m.grants:
            assert g.start + g.duration <= r0 or g.start >= r1


@pytest.mark.parametrize("piece, message", [
    (lambda win, nbytes: (win.start, nbytes), "overlaps"),
    (lambda win, nbytes: (win.end - 1, nbytes), "overruns"),
], ids=["on-contention-region", "past-window-end"])
def test_overlap_raises_at_the_map(monkeypatch, piece, message):
    # the REQ delivered at 18 ms is placed by the MAP generated at 20 ms
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, "f1", packet(0), 18 * MS)
    sim.run_until(19 * MS)
    monkeypatch.setattr(_Window, "place",
                        lambda win, min_start, nbytes, bps: [piece(win, nbytes)])
    with pytest.raises(DocsisError, match=message):
        sim.run_until(40 * MS)
    assert sim.now == 20 * MS
    assert maps[-1].window_start == 20 * MS     # the faulty MAP never went out


# -- contention -----------------------------------------------------------------

def test_lone_request_always_delivered():
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, "f1", packet(0), 18 * MS)
    sim.run_until(19 * MS)
    assert collector.counters.get("reqs_delivered") == 1
    assert collector.counters.get("req_collisions") is None


def test_forced_collision_doubles_windows():
    sim, cmts, cm, collector, maps = build(flows=("f1", "f2"))
    sim.run_until(10 * MS)
    f1, f2 = cm.flows["f1"], cm.flows["f2"]
    for f in (f1, f2):
        f.uncovered_bytes = 60
        f.req = DocsisRequest(f.flow_id, 0, target_slot=6 * 8 + 3)
    cm.resolve_region(6)
    assert f1.backoff_window == 16 and f2.backoff_window == 16
    assert f1.req.target_slot >= 7 * 8
    assert collector.counters["req_collisions"] == 2


def test_backoff_truncates_and_resets():
    sim, cmts, cm, collector, maps = build(flows=("f1", "f2"))
    sim.run_until(10 * MS)
    f1, f2 = cm.flows["f1"], cm.flows["f2"]
    # repeated forced collisions: 8 -> 16 -> 32 -> 64, then capped at 64
    for round_no, region in enumerate(range(6, 12)):
        for f in (f1, f2):
            f.uncovered_bytes = 60
            f.req = DocsisRequest(f.flow_id, 0, target_slot=region * 8)
        cm.resolve_region(region)
        expected = min(8 * 2 ** (round_no + 1), 64)
        assert f1.backoff_window == expected
        assert f2.backoff_window == expected
    # a clean delivery resets the window to the initial value
    f1.req = DocsisRequest("f1", 0, target_slot=20 * 8)
    f2.req = None
    cm.resolve_region(20)
    assert f1.req is None
    assert f1.backoff_window == cmts.profile.backoff_init


def enumeration_expected_singletons(n_flows, n_slots):
    """Exact mean singleton count by brute force over all slot assignments."""
    total_assignments = n_slots ** n_flows
    singles_total = 0
    chunk = 1 << 20
    for base in range(0, total_assignments, chunk):
        ids = np.arange(base, min(base + chunk, total_assignments), dtype=np.int64)
        digits = np.empty((len(ids), n_flows), dtype=np.int8)
        x = ids.copy()
        for k in range(n_flows):
            digits[:, k] = x % n_slots
            x //= n_slots
        for s in range(n_slots):
            singles_total += int((( (digits == s).sum(axis=1)) == 1).sum())
    return singles_total / total_assignments


def test_contention_throughput_matches_enumeration():
    # 8 flows, 8 slots, window 8: brute-force expectation ~3.14 delivered
    expected = enumeration_expected_singletons(8, 8)
    assert expected == pytest.approx(8 * (7 / 8) ** 7, rel=1e-12)

    prof = DocsisTimingProfile()
    sim, cmts, cm, collector, maps = build(prof, flows=[f"f{i}" for i in range(8)])
    rng = Rng(5)
    trials = 4000
    delivered_total = 0
    for trial in range(trials):
        region = 10 + trial
        for f in cm.flows.values():
            f.backoff_window = 8
            f.uncovered_bytes = 60
            f.req = DocsisRequest(f.flow_id, 0,
                                  target_slot=region * 8 + rng.randbelow(8))
        before = collector.counters.get("reqs_delivered", 0)
        cm.resolve_region(region)
        delivered_total += collector.counters.get("reqs_delivered", 0) - before
        cmts.req_fifo.clear()
        for f in cm.flows.values():
            f.req = None
    mean = delivered_total / trials
    assert mean == pytest.approx(expected, abs=0.1)


# -- per-LCG differentiation -------------------------------------------------------

def test_lcg_differentiation_orders_blocks():
    from bwrsim.bwr import BWR_MODE_PER_LCG, BandwidthReport, encode_bwr
    prof = DocsisTimingProfile()
    sim, cmts, cm, collector, maps = build(prof, lcg_differentiation=True)
    report = BandwidthReport(1, 0, 30 * MS,
                             ((0, 0), (1, 500), (2, 1500), (3, 0)),
                             BWR_MODE_PER_LCG)
    sim.run_until(25 * MS)
    cmts.on_bwr_frame(encode_bwr(report), "ugs")
    assert [(e[2], e[5]) for e in cmts.bwr_fifo] == [(1, 500), (2, 1500)]
    sim.run_until(36 * MS)
    bwr_grants = grants_of(maps, "bwr")
    assert [g.nbytes for g in bwr_grants] == [500, 1500]   # low LCG placed first
    assert bwr_grants[0].start < bwr_grants[1].start


def test_idle_map_has_only_contention_region():
    sim, cmts, cm, collector, maps = build()
    sim.run_until(10 * MS)
    assert maps
    for m in maps:
        assert m.grants == []
        assert m.region_duration == cmts.profile.region_duration
