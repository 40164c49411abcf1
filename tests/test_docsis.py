from dataclasses import replace

import numpy as np
import pytest

from bwrsim.config import SimConfig, preset
from bwrsim.core import MS, PRIO_SCHED, SEC, Rng, Simulator
from bwrsim.docsis import (BE, UGS, ChannelLedger, Cm, Cmts, DocsisError, Grant,
                           ServiceFlow, _Window, open_window, region_duration,
                           serialization_us, window_capacity_bytes, window_layouts)
from bwrsim.lte import LteError, Packet
from bwrsim.metrics import Collector
from bwrsim.runner import run_single

from run_checks import map_overlaps, record_maps


def build(cfg=None, *, flows=("f1",), ugs=None, seed=3, end=10 * SEC):
    """A CMTS and modem with BE flows; also returns every MAP the modem gets."""
    sim = Simulator()
    cfg = cfg or SimConfig()
    cfg.validate()
    collector = Collector("baseline")
    cmts = Cmts(sim, cfg, ChannelLedger(end), collector)
    cm = Cm(sim, cmts, cfg, collector, Rng(seed))
    for i, fid in enumerate(flows, start=1):
        cm.add_flow(ServiceFlow(fid, BE, owner_enb=i))
    if ugs is not None:
        cm.add_flow(ugs)
    maps = record_maps(cm)
    sim.schedule_at(0, PRIO_SCHED, cmts.map_cycle)
    return sim, cmts, cm, collector, maps


def grants_of(maps, kind):
    return [g for m in maps for g in m.grants if g.kind == kind]


def packet(pid, size=60, ue=1, enb=1):
    p = Packet(pid, ue, enb, size, 1, "voip")
    p.set_stage("ue_arrival", 0)
    return p


def inject(sim, cm, fid, pkt, t):
    """Deliver a whole packet to the modem's flow fid at time t."""
    sim.run_until(t)
    cm.enqueue_chunks(cm.flows[fid], [(pkt, pkt.size_bytes)], t)


def test_serialization_arithmetic():
    # 60 B at 39 Mbps is 12.3 us on the wire, rounded up to whole us
    assert serialization_us(60, 39_000_000) == 13
    assert serialization_us(80, 39_000_000) == 17
    assert serialization_us(9750, 39_000_000) == 2000


def test_profile_floor():
    cfg = SimConfig()
    # shortest request-to-grant time: one MAP cycle plus the MAP advance
    assert (1 + cfg.maps_in_advance) * cfg.map_interval_us == 4 * MS
    assert window_capacity_bytes(cfg) == 9750


def test_request_grant_floor_even_alignment():
    # arrival on an even millisecond rides the immediate contention region:
    # 4 ms request-grant + region offset + framing + serialization
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, "f1", pkt, 18 * MS)
    sim.run_until(40 * MS)
    assert list(collector.samples)[0].docsis_us == 5245


def test_request_grant_odd_alignment_adds_one_ms():
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, "f1", pkt, 19 * MS)
    sim.run_until(40 * MS)
    assert list(collector.samples)[0].docsis_us == 6245


def test_single_outstanding_request_piggybacks():
    # second packet arriving while the request is armed rides the same REQ
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, "f1", packet(0), 18 * MS)
    inject(sim, cm, "f1", packet(1), 18 * MS)   # same instant, REQ not yet sent
    sim.run_until(19 * MS)
    flow = cm.flows["f1"]
    delivered = [r for r in cmts.req_fifo]
    assert len(delivered) == 1
    assert delivered[0][2] == 120               # both packets in one REQ
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
    cfg = SimConfig(ugs_grant_bytes=80, ugs_period_us=2 * MS, ugs_phase_us=MS)
    sim, cmts, cm, collector, maps = build(cfg, ugs=ServiceFlow("ugs1", UGS))
    sim.run_until(5 * MS)
    cm.enqueue_chunks(cm.flows["ugs1"], [(packet(0), 60)], sim.now)
    assert cm.flows["ugs1"].req is None
    sim.run_until(20 * MS)
    assert cm.flows["ugs1"].req is None


def test_ugs_grant_cadence_and_idle_waste():
    cfg = SimConfig(ugs_grant_bytes=80, ugs_period_us=2 * MS, ugs_phase_us=MS)
    sim, cmts, cm, collector, maps = build(cfg, ugs=ServiceFlow("ugs1", UGS))
    sim.run_until(2 * MS + 2 * 10 ** 6)         # a full 2 s of covered windows
    grants = [g for g in grants_of(maps, "ugs")
              if 2 * MS <= g.start < 2 * MS + 2 * 10 ** 6]
    assert len(grants) == 1000                  # one per 2 ms period
    assert collector.counters["ugs_idle_grants"] >= 999
    assert "bwr_frames_sent" not in collector.counters   # nothing carried


def test_zero_byte_service_is_noop():
    sim, cmts, cm, collector, maps = build()
    cm.on_grant(Grant(cm.flows["f1"], 2 * MS, 13, 60, "be"), 0)
    assert collector.counters.get("docsis_sent_bytes", 0) == 0


def test_fragmentation_last_byte_rule():
    # 3000 B packet over a 8 Mbps channel: window capacity 2000 B, so the
    # packet spans two grants 2 ms apart; latency runs to the last fragment
    cfg = SimConfig(upstream_bps=8_000_000)
    sim, cmts, cm, collector, maps = build(cfg)
    pkt = packet(0, size=3000)
    inject(sim, cm, "f1", pkt, 18 * MS)
    sim.run_until(60 * MS)
    assert len(collector.samples) == 1
    s = list(collector.samples)[0]
    first_possible = 4 * MS + cfg.cm_framing_us  # if it fit one grant
    assert s.docsis_us > first_possible + 2 * MS  # second window was needed
    assert pkt.docsis_egressed == 3000


def test_duplicate_egress_rejected():
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, "f1", pkt, 18 * MS)
    sim.run_until(40 * MS)
    assert collector.counters["egressed_packets"] == 1
    with pytest.raises(LteError):
        cmts.on_packet_egress(pkt, sim.now)
    assert collector.counters["egressed_packets"] == 1


@pytest.mark.parametrize("end, sampled", [(23_245, True), (23_244, False)])
def test_egress_cut_off_at_the_end_of_the_run(end, sampled):
    # the last byte completes at 18 ms + 5245 us; the packet egresses at its
    # grant when that is no later than the ledger's end, the run's last instant
    sim, cmts, cm, collector, maps = build(end=end)
    pkt = packet(0)
    inject(sim, cm, "f1", pkt, 18 * MS)
    sim.run_until(end)
    assert collector.counters.get("docsis_sent_bytes") == 60
    assert len(collector.samples) == collector.counters.get("egressed_packets", 0) == sampled
    assert pkt.cmts_egress == (23_245 if sampled else -1)


def test_work_conservation_single_backlogged_flow():
    # one flow, huge backlog: every window past the ramp fills to capacity
    # minus the contention region
    sim, cmts, cm, collector, maps = build()
    sim.run_until(10 * MS)
    big = packet(0, size=200_000)
    cm.enqueue_chunks(cm.flows["f1"], [(big, 200_000)], sim.now)
    sim.run_until(40 * MS)
    cfg = cmts.cfg
    cap = window_capacity_bytes(cfg)
    region_bytes = cfg.contention_slots * cfg.slot_bytes
    filled = {}
    for g in grants_of(maps, "be"):
        win = g.start // cfg.map_interval_us
        filled[win] = filled.get(win, 0) + g.nbytes
    busy = [b for _, b in sorted(filled.items())][1:-1]   # steady-state windows
    assert busy
    assert all(b >= cap - region_bytes - 64 for b in busy)


def test_map_windows_never_overcommit():
    sim, cmts, cm, collector, maps = build()
    for i in range(40):
        inject(sim, cm, "f1", packet(i, size=5000), 10 * MS + i * 100)
    sim.run_until(100 * MS)
    cap = window_capacity_bytes(cmts.cfg)
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
        r0, r1 = m.window_start, m.window_start + m.region_duration
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
        f.req = 6 * 8 + 3
    cm.resolve_region(6)
    assert f1.backoff_window == 16 and f2.backoff_window == 16
    assert f1.req >= 7 * 8
    assert collector.counters["req_collisions"] == 2


def test_backoff_truncates_and_resets():
    sim, cmts, cm, collector, maps = build(flows=("f1", "f2"))
    sim.run_until(10 * MS)
    f1, f2 = cm.flows["f1"], cm.flows["f2"]
    # repeated forced collisions: 8 -> 16 -> 32 -> 64, then capped at 64
    for round_no, region in enumerate(range(6, 12)):
        for f in (f1, f2):
            f.uncovered_bytes = 60
            f.req = region * 8
        cm.resolve_region(region)
        expected = min(8 * 2 ** (round_no + 1), 64)
        assert f1.backoff_window == expected
        assert f2.backoff_window == expected
    # a clean delivery resets the window to the initial value
    f1.req = 20 * 8
    f2.req = None
    cm.resolve_region(20)
    assert f1.req is None
    assert f1.backoff_window == cmts.cfg.backoff_init


def test_deferred_request_is_delivered_in_the_region_it_lands_in():
    # after a collision the backoff window is 64 slots, eight regions of 8:
    # a REQ can land several regions ahead and is delivered there
    cfg = SimConfig(backoff_init=32, backoff_max=64)
    sim, cmts, cm, collector, maps = build(cfg, flows=("f1", "f2"))
    delivered = []
    cmts.on_req_delivered = lambda flow, nbytes, t: delivered.append((t, flow.flow_id))
    sim.run_until(10 * MS)
    f1, f2 = cm.flows["f1"], cm.flows["f2"]
    for f in (f1, f2):
        f.uncovered_bytes = 60
        f.req = 6 * 8 + 3
    cm.resolve_region(6)
    landed = {f.flow_id: divmod(f.req, 8) for f in (f1, f2)}
    assert landed["f1"] != landed["f2"]
    assert max(region for region, _ in landed.values()) >= 6 + 3
    sim.run_until(40 * MS)
    slot_us = serialization_us(cfg.slot_bytes, cfg.upstream_bps)
    assert delivered == sorted((region * cfg.map_interval_us + slot * slot_us, fid)
                               for fid, (region, slot) in landed.items())
    assert f1.req is None and f2.req is None


def test_only_regions_holding_a_request_are_resolved():
    sim, cmts, cm, collector, maps = build()
    resolved = []
    resolve = cm.resolve_region

    def record(region_index):
        resolved.append(region_index)
        resolve(region_index)

    cm.resolve_region = record
    sim.run_until(100 * MS)
    assert len(maps) > 50
    assert resolved == []                       # no REQ, no region to resolve
    inject(sim, cm, "f1", packet(0), 100 * MS)
    sim.run_until(200 * MS)
    assert resolved == [50]                     # the region at 100 ms, once
    assert collector.counters["reqs_delivered"] == 1


def test_zero_byte_request_gets_no_grant_and_leaves_the_fifo():
    sim, cmts, cm, collector, maps = build()
    sim.run_until(10 * MS)
    cmts.on_req_delivered(cm.flows["f1"], 0, sim.now)
    # the MAPs at 12 and 14 ms both come after the request's cutoff
    sim.run_until(14 * MS)
    assert cmts.req_fifo == []
    assert [g for m in maps for g in m.grants] == []


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

    sim, cmts, cm, collector, maps = build(flows=[f"f{i}" for i in range(8)])
    rng = Rng(5)
    trials = 4000
    delivered_total = 0
    for trial in range(trials):
        region = 10 + trial
        for f in cm.flows.values():
            f.backoff_window = 8
            f.uncovered_bytes = 60
            f.req = region * 8 + rng.randbelow(8)
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
    sim, cmts, cm, collector, maps = build()
    report = BandwidthReport(1, 0, 30 * MS,
                             ((0, 0), (1, 500), (2, 1500), (3, 0)),
                             BWR_MODE_PER_LCG)
    sim.run_until(25 * MS)
    cmts.on_bwr_frame(encode_bwr(report))
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
        assert m.region_duration == region_duration(cmts.cfg)


def _map_grants(monkeypatch, cfg):
    with monkeypatch.context() as m:
        maps = record_maps(Cm, m.setattr)
        run_single(cfg, "bwr")
    return [[(g.kind, g.start, g.duration, g.nbytes) for g in msg.grants]
            for msg in maps]


def test_layouts_cut_short_by_the_run_match_fresh_windows(monkeypatch):
    # The layouts repeat every lcm(1999 us, 2 ms) = 3.998 s, longer than the
    # run: only the run's 151 windows are laid out, each indexed from the
    # first MAP's window. Every MAP must carry the grants of a window laid
    # out afresh (samples alone can agree with a wrongly indexed layout).
    cfg = replace(preset("scenario1"), duration_us=300 * MS, ugs_period_us=1999)
    assert len(window_layouts(cfg)) == 151
    shifted = _map_grants(monkeypatch, cfg)
    monkeypatch.setattr(Cmts, "_open_window", lambda cmts, start: open_window(
        start, cmts.cfg, cmts._ugs_flow))
    assert shifted == _map_grants(monkeypatch, cfg)
    assert sum(g[0] == "ugs" for msg in shifted for g in msg) > 100
