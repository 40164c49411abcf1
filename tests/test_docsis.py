import functools
import math
from dataclasses import replace

import pytest

from bwrsim import docsis
from bwrsim.bwr import BWR_MODE_BULK, BWR_MODE_PER_LCG, BandwidthReport, encode_bwr
from bwrsim.config import SimConfig, preset
from bwrsim.core import MS, PRIO_SCHED, SEC, Rng, Simulator
from bwrsim.docsis import (UGS, Cm, Cmts, DocsisError, Grant,
                           ServiceFlow, open_window, region_duration,
                           serialization_us, window_capacity_bytes, window_layouts)
from bwrsim.lte import LteError, Packet
from bwrsim.metrics import Collector, Counters
from bwrsim.runner import run_single

from run_checks import map_overlaps, outcome, record_maps, restore_evented_ugs


def build(cfg=None, *, flows=1, ugs=False, seed=3, end=10 * SEC):
    """A CMTS, with unsolicited grants when `ugs`, and a modem with the data
    flows of eNBs 1 to `flows`, for a run that ends at `end`; also returns
    every MAP the modem gets."""
    sim = Simulator()
    cfg = replace(cfg or SimConfig(), duration_us=end)
    collector = Collector("baseline")
    cmts = Cmts(sim, cfg, collector, ugs)
    cm = Cm(sim, cmts, cfg, collector, Rng(seed))
    for enb_id in range(1, flows + 1):
        cm.add_flow(ServiceFlow(enb_id))
    maps = record_maps(cm)
    sim.schedule_at(0, PRIO_SCHED, cmts.map_cycle)
    return sim, cmts, cm, collector, maps


def grants_of(maps, kind):
    return [g for m in maps for g in m.grants if g.kind == kind]


def packet(pid, size=60, ue=1, enb=1):
    p = Packet(pid, ue, enb, size)
    p.stamp_ue_arrival(0)
    return p


def inject(sim, cm, enb_id, pkt, t):
    """Deliver a whole packet to the modem's flow of enb_id at time t."""
    sim.run_until(t)
    cm.enqueue_chunks(cm.flows[enb_id], [(pkt, pkt.size_bytes)], t)


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
    inject(sim, cm, 1, pkt, 18 * MS)
    sim.run_until(40 * MS)
    assert list(collector.samples)[0].docsis_us == 5245


def test_request_grant_odd_alignment_adds_one_ms():
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, 1, pkt, 19 * MS)
    sim.run_until(40 * MS)
    assert list(collector.samples)[0].docsis_us == 6245


def test_single_outstanding_request_piggybacks():
    # second packet arriving while the request is armed rides the same REQ
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, 1, packet(0), 18 * MS)
    inject(sim, cm, 1, packet(1), 18 * MS)   # same instant, REQ not yet sent
    sim.run_until(19 * MS)
    flow = cm.flows[1]
    delivered = [r for r in cmts.demand]
    assert len(delivered) == 1
    assert delivered[0][4] == 120               # both packets in one REQ
    sim.run_until(40 * MS)
    assert len(collector.samples) == 2


def test_new_request_after_delivery():
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, 1, packet(0), 18 * MS)
    sim.run_until(19 * MS)                      # REQ delivered in region at 18 ms
    inject(sim, cm, 1, packet(1), 19 * MS)
    assert cm.flows[1].req is not None       # fresh REQ armed for new bytes
    sim.run_until(40 * MS)
    assert len(collector.samples) == 2


def ugs_run(cfg, end):
    """A CMTS with unsolicited grants and a modem, run to `end`, the run's
    end, with its UGS grants settled; returns the collector and every MAP."""
    sim, cmts, cm, collector, maps = build(cfg, ugs=True, end=end)
    sim.run_until(end)
    cm.settle_ugs_grants()
    return collector, maps


def test_ugs_grant_cadence_and_idle_waste(monkeypatch):
    # With no report to carry, the MAP cycle sleeps after its first MAP and
    # no UGS grant is an event: the grants that started in the run count as
    # idle once it ends. A MAP every interval, with an event for each of its
    # UGS grants, is the reference.
    cfg = SimConfig(ugs_grant_bytes=80, ugs_period_us=2 * MS, ugs_phase_us=MS)
    end = 2 * MS + 2 * 10 ** 6                  # a full 2 s of covered windows
    booked, maps = ugs_run(cfg, end)
    assert [m.window_start for m in maps] == [2 * MS]
    restore_evented_ugs(monkeypatch.setattr)
    evented, maps = ugs_run(cfg, end)
    grants = [g for g in grants_of(maps, "ugs") if g.start <= end]
    assert [g.start for g in grants] == list(range(3 * MS, end, 2 * MS))  # one per period
    # nothing carried
    assert booked.counters == evented.counters == Counters(ugs_idle_grants=1000,
                                                           ugs_wasted_bytes=80_000)


def test_zero_byte_service_is_noop():
    sim, cmts, cm, collector, maps = build()
    cm.on_grant(Grant(cm.flows[1], 2 * MS, 13, 60, "be"), 0)
    assert collector.counters.docsis_sent_bytes == 0


def test_fragmentation_last_byte_rule():
    # 3000 B packet over a 8 Mbps channel: window capacity 2000 B, so the
    # packet spans two grants 2 ms apart; latency runs to the last fragment
    cfg = SimConfig(upstream_bps=8_000_000)
    sim, cmts, cm, collector, maps = build(cfg)
    pkt = packet(0, size=3000)
    inject(sim, cm, 1, pkt, 18 * MS)
    sim.run_until(60 * MS)
    assert len(collector.samples) == 1
    s = list(collector.samples)[0]
    first_possible = 4 * MS + cfg.cm_framing_us  # if it fit one grant
    assert s.docsis_us > first_possible + 2 * MS  # second window was needed
    assert pkt.docsis_egressed == 3000


@pytest.mark.parametrize("propagation_us, framing_us", [(0, 1200), (700, 300)])
def test_a_lone_packets_egress_is_its_grant_start_plus_the_wire_time(propagation_us,
                                                                     framing_us):
    # one grant carries the whole packet: its last byte reaches the CMTS the
    # propagation and framing delays, and its serialisation, after the grant
    cfg = SimConfig(propagation_us=propagation_us, cm_framing_us=framing_us)
    sim, cmts, cm, collector, maps = build(cfg)
    pkt = packet(0, size=500)
    inject(sim, cm, 1, pkt, 18 * MS)
    sim.run_until(40 * MS)
    [grant] = grants_of(maps, "be")
    assert grant.nbytes == 500
    assert pkt.cmts_egress == (grant.start + propagation_us + framing_us
                               + serialization_us(500, cfg.upstream_bps))


@pytest.mark.parametrize("advance", [1, 3])
def test_a_request_is_first_placed_one_interval_plus_the_advance_after_it(advance):
    # A REQ delivered at r, a MAP instant: the MAP at r consumed only what
    # came by r - cmts_proc_us, so the MAP at r + map_interval_us places it,
    # in the window maps_in_advance intervals after that MAP.
    cfg = SimConfig(maps_in_advance=advance)
    mi = cfg.map_interval_us
    assert 0 < cfg.cmts_proc_us < mi
    sim, cmts, cm, collector, maps = build(cfg)
    r = 10 * mi
    sim.run_until(r)
    cmts.on_req_delivered(cm.flows[1], 300, r)
    sim.run_until(r + 8 * mi)
    assert [(m.window_start, [g.nbytes for g in m.grants]) for m in maps if m.grants] \
        == [(r + (1 + advance) * mi, [300])]


def test_duplicate_egress_rejected():
    sim, cmts, cm, collector, maps = build()
    pkt = packet(0)
    inject(sim, cm, 1, pkt, 18 * MS)
    sim.run_until(40 * MS)
    assert collector.counters.egressed_packets == 1
    with pytest.raises(LteError):
        cmts.on_packet_egress(pkt, sim.now)
    assert collector.counters.egressed_packets == 1


@pytest.mark.parametrize("end, sampled", [(23_245, True), (23_244, False)])
def test_egress_cut_off_at_the_end_of_the_run(end, sampled):
    # the last byte completes at 18 ms + 5245 us; the packet egresses at its
    # grant when that is no later than the run's end, its last instant; the
    # warm-up must end before the run does
    sim, cmts, cm, collector, maps = build(SimConfig(warmup_us=0), end=end)
    pkt = packet(0)
    inject(sim, cm, 1, pkt, 18 * MS)
    sim.run_until(end)
    assert collector.counters.docsis_sent_bytes == 60
    assert len(collector.samples) == collector.counters.egressed_packets == sampled
    assert pkt.cmts_egress == (23_245 if sampled else -1)


def test_work_conservation_single_backlogged_flow():
    # one flow, huge backlog: every window past the ramp fills to capacity
    # minus the contention region
    sim, cmts, cm, collector, maps = build()
    sim.run_until(10 * MS)
    big = packet(0, size=200_000)
    cm.enqueue_chunks(cm.flows[1], [(big, 200_000)], sim.now)
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
        inject(sim, cm, 1, packet(i, size=5000), 10 * MS + i * 100)
    sim.run_until(100 * MS)
    cap = window_capacity_bytes(cmts.cfg)
    assert maps
    for m in maps:
        assert sum(g.nbytes for g in m.grants) <= cap
        assert not map_overlaps(m)


def test_grants_never_overlap_contention_region():
    sim, cmts, cm, collector, maps = build()
    for i in range(20):
        inject(sim, cm, 1, packet(i, size=3000), 10 * MS + i * 500)
    sim.run_until(60 * MS)
    for m in maps:
        r0, r1 = m.window_start, m.window_start + m.region_duration
        for g in m.grants:
            assert g.start + g.duration <= r0 or g.start >= r1


@pytest.mark.parametrize("piece_start, message", [
    (lambda gaps: gaps[0][0] - 1, "overlaps"),
    (lambda gaps: gaps[-1][1] - 1, "overruns"),
], ids=["on-contention-region", "past-window-end"])
def test_overlap_raises_at_the_map(monkeypatch, piece_start, message):
    # the REQ delivered at 18 ms is placed by the MAP generated at 20 ms; the
    # cycle stays awake, so that the MAP at 18 ms goes out
    monkeypatch.setattr(Cmts, "idle", lambda cmts: False)
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, 1, packet(0), 18 * MS)
    sim.run_until(19 * MS)
    # the window's one gap runs from the end of its contention region to
    # the end of the window
    monkeypatch.setattr(docsis, "_fill", lambda gaps, min_start, nbytes, bps: [
        (piece_start(gaps), serialization_us(nbytes, bps), nbytes)])
    with pytest.raises(DocsisError, match=message):
        sim.run_until(40 * MS)
    assert sim.now == 20 * MS
    assert maps[-1].window_start == 20 * MS     # the faulty MAP never went out


def test_a_piece_over_a_ugs_grant_raises_at_its_map(monkeypatch):
    # The cycle sleeps while nothing is pending, UGS grants or not, and no
    # UGS grant is an event. The REQ delivered at 18 ms wakes it at 20 ms;
    # that MAP still lists its window's UGS grant, at 23 ms, and its checks
    # cover it: a piece laid over the grant raises there.
    cfg = SimConfig(ugs_grant_bytes=80, ugs_period_us=2 * MS, ugs_phase_us=MS)
    sim, cmts, cm, collector, maps = build(cfg, ugs=True)
    inject(sim, cm, 1, packet(0), 18 * MS)
    sim.run_until(19 * MS)
    # the window's first gap ends where the UGS grant starts
    monkeypatch.setattr(docsis, "_fill", lambda gaps, min_start, nbytes, bps: [
        (gaps[0][1] - 1, serialization_us(nbytes, bps), nbytes)])
    with pytest.raises(DocsisError, match=f"grant at {23 * MS} overlaps in the MAP "
                                          f"window at {22 * MS}"):
        sim.run_until(40 * MS)
    assert sim.now == 20 * MS
    assert [m.window_start for m in maps] == [2 * MS]   # slept, then raised


# -- contention -----------------------------------------------------------------

def test_lone_request_always_delivered():
    sim, cmts, cm, collector, maps = build()
    inject(sim, cm, 1, packet(0), 18 * MS)
    sim.run_until(19 * MS)
    assert collector.counters.reqs_delivered == 1
    assert collector.counters.req_collisions == 0


def test_forced_collision_doubles_windows():
    sim, cmts, cm, collector, maps = build(flows=2)
    sim.run_until(10 * MS)
    f1, f2 = cm.flows[1], cm.flows[2]
    for f in (f1, f2):
        f.uncovered_bytes = 60
        f.req = 6 * 8 + 3
    cm.resolve_region(6)
    assert f1.backoff_window == 16 and f2.backoff_window == 16
    assert f1.req >= 7 * 8
    assert collector.counters.req_collisions == 2


def test_backoff_truncates_and_resets():
    sim, cmts, cm, collector, maps = build(flows=2)
    sim.run_until(10 * MS)
    f1, f2 = cm.flows[1], cm.flows[2]
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
    sim, cmts, cm, collector, maps = build(cfg, flows=2)
    delivered = []
    cmts.on_req_delivered = lambda flow, nbytes, t: delivered.append((t, flow.enb_id))
    sim.run_until(10 * MS)
    f1, f2 = cm.flows[1], cm.flows[2]
    for f in (f1, f2):
        f.uncovered_bytes = 60
        f.req = 6 * 8 + 3
    cm.resolve_region(6)
    landed = {f.enb_id: divmod(f.req, 8) for f in (f1, f2)}
    assert landed[1] != landed[2]
    assert max(region for region, _ in landed.values()) >= 6 + 3
    sim.run_until(40 * MS)
    slot_us = serialization_us(cfg.slot_bytes, cfg.upstream_bps)
    assert delivered == sorted((region * cfg.map_interval_us + slot * slot_us, fid)
                               for fid, (region, slot) in landed.items())
    assert f1.req is None and f2.req is None


def test_only_regions_holding_a_request_are_resolved(monkeypatch):
    # the cycle stays awake, so that every window's MAP goes out
    monkeypatch.setattr(Cmts, "idle", lambda cmts: False)
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
    inject(sim, cm, 1, packet(0), 100 * MS)
    sim.run_until(200 * MS)
    assert resolved == [50]                     # the region at 100 ms, once
    assert collector.counters.reqs_delivered == 1


def test_idle_cmts_sleeps_until_a_request_or_report_arrives():
    # Without UGS grants, a MAP with nothing to place is not sent: the cycle
    # sleeps after the MAP at 0, and a delivery wakes it at the next boundary.
    sim, cmts, cm, collector, maps = build()
    sim.run_until(19 * MS)
    assert [m.window_start for m in maps] == [2 * MS]
    inject(sim, cm, 1, packet(0), 19 * MS)   # REQ in the region at 20 ms
    sim.run_until(25 * MS)
    # the MAP at 22 ms places the REQ in the window at 24 ms, then sleeps
    assert [(m.window_start, len(m.grants)) for m in maps] == [(2 * MS, 0), (24 * MS, 1)]
    assert list(collector.samples)[0].docsis_us == 6245   # as when always awake
    cmts.on_bwr_frame(encode_bwr(BandwidthReport(1, 0, 28 * MS, ((0, 500), (1, 0),
                                                                 (2, 0), (3, 0)))))
    sim.run_until(40 * MS)
    # the report, at 25 ms, wakes the cycle at 26 ms; its grant follows the
    # contention region that opens the window at its egress
    assert [(m.window_start, [(g.kind, g.start) for g in m.grants]) for m in maps[2:]] \
        == [(28 * MS, [("bwr", 28 * MS + region_duration(cmts.cfg))])]
    assert cmts.demand == [] and cmts.idle()


def test_zero_byte_request_gets_no_grant_and_leaves_the_fifo():
    sim, cmts, cm, collector, maps = build()
    sim.run_until(10 * MS)
    cmts.on_req_delivered(cm.flows[1], 0, sim.now)
    # the MAPs at 12 and 14 ms both come after the request's cutoff
    sim.run_until(14 * MS)
    assert cmts.demand == []
    assert [g for m in maps for g in m.grants] == []


def enumeration_expected_singletons(n_flows, n_slots):
    """Exact mean singleton count over all n_slots ** n_flows slot assignments,
    enumerated by occupancy: slot by slot, k of the flows left pick the slot
    in comb(left, k) ways."""
    @functools.cache
    def tally(slots, left):
        """(assignments, singleton slots summed over them) of `left` flows
        that all pick among `slots` slots."""
        if slots == 0:
            return (1, 0) if left == 0 else (0, 0)
        ways = singles = 0
        for k in range(left + 1):
            rest_ways, rest_singles = tally(slots - 1, left - k)
            ways += math.comb(left, k) * rest_ways
            singles += math.comb(left, k) * (rest_singles + (k == 1) * rest_ways)
        return ways, singles

    ways, singles = tally(n_slots, n_flows)
    assert ways == n_slots ** n_flows
    return singles / ways


def test_contention_throughput_matches_enumeration():
    # 8 flows, 8 slots, window 8: brute-force expectation ~3.14 delivered
    expected = enumeration_expected_singletons(8, 8)
    assert expected == pytest.approx(8 * (7 / 8) ** 7, rel=1e-12)

    sim, cmts, cm, collector, maps = build(flows=8)
    rng = Rng(5)
    trials = 4000
    delivered_total = 0
    for trial in range(trials):
        region = 10 + trial
        for f in cm.flows.values():
            f.backoff_window = 8
            f.uncovered_bytes = 60
            f.req = region * 8 + rng.randbelow(8)
        before = collector.counters.reqs_delivered
        cm.resolve_region(region)
        delivered_total += collector.counters.reqs_delivered - before
        cmts.demand.clear()
        for f in cm.flows.values():
            f.req = None
    mean = delivered_total / trials
    assert mean == pytest.approx(expected, abs=0.1)


# -- service order and cutoff ------------------------------------------------

@pytest.mark.parametrize("mode, blocks", [
    (BWR_MODE_BULK, ((0, 1200), (1, 0), (2, 0), (3, 0))),
    # out of LCG order on the wire, zero blocks between, and one LCG id twice
    (BWR_MODE_PER_LCG, ((3, 700), (0, 0), (1, 500), (2, 0))),
    (BWR_MODE_PER_LCG, ((2, 700), (0, 0), (2, 500), (1, 0))),
], ids=["bulk", "per_lcg", "per_lcg-repeated-id"])
def test_the_intake_queues_one_entry_of_each_reports_total(mode, blocks):
    sim, cmts, cm, collector, maps = build()
    sim.run_until(25 * MS)
    cmts.on_bwr_frame(encode_bwr(BandwidthReport(1, 0, 30 * MS, blocks, mode)))
    assert [(e[0], e[2], e[3], e[4], e[5]) for e in cmts.demand] \
        == [(25 * MS, cm.flows[1], 30 * MS, 1200, "bwr")]


def test_one_map_serves_a_report_before_an_earlier_request():
    # A 6000-byte REQ at 26 ms, then a 6000-byte report at 27 ms whose egress
    # opens the window [30, 32) ms: both miss the MAP at 26 ms and reach the
    # one at 28 ms, whose window has room for 9594 B after its contention
    # region. The report ranks first and is placed whole, in 1231 us; the REQ
    # takes the 737 us left, 3592 B, and its other 2408 B wait for the next
    # window.
    sim, cmts, cm, collector, maps = build(flows=2)
    sim.run_until(26 * MS)
    cmts.on_req_delivered(cm.flows[2], 6000, sim.now)
    sim.run_until(27 * MS)
    cmts.on_bwr_frame(encode_bwr(BandwidthReport(1, 0, 30 * MS, ((0, 6000), (1, 0),
                                                                 (2, 0), (3, 0)))))
    sim.run_until(31 * MS)
    assert [(m.window_start, [(g.flow.enb_id, g.kind, g.start, g.nbytes)
                              for g in m.grants])
            for m in maps if m.grants] \
        == [(30 * MS, [(1, "bwr", 30 * MS + 32, 6000),
                       (2, "be", 30 * MS + 32 + 1231, 3592)]),
            (32 * MS, [(2, "be", 32 * MS + 32, 2408)])]
    assert cmts.demand == []


@pytest.mark.parametrize("late_us, window_start", [(0, 22 * MS), (1, 24 * MS)],
                         ids=["at-the-cutoff", "1us-late"])
@pytest.mark.parametrize("kind", ["be", "bwr"])
def test_the_map_at_t_consumes_what_arrives_by_t_minus_cmts_proc_us(kind, late_us,
                                                                     window_start):
    # The MAP generated at 20 ms places a REQ or report that reached the CMTS
    # by 20 ms - cmts_proc_us; one that came 1 us later waits for the MAP at
    # 22 ms. The report's egress, 22 ms, is in either window.
    sim, cmts, cm, collector, maps = build()
    arrival = 20 * MS - cmts.cfg.cmts_proc_us + late_us
    sim.run_until(arrival)
    if kind == "be":
        cmts.on_req_delivered(cm.flows[1], 300, arrival)
    else:
        cmts.on_bwr_frame(encode_bwr(BandwidthReport(1, 0, 22 * MS, ((0, 300), (1, 0),
                                                                     (2, 0), (3, 0)))))
    sim.run_until(30 * MS)
    assert [(m.window_start, [(g.kind, g.nbytes) for g in m.grants])
            for m in maps if m.grants] == [(window_start, [(kind, 300)])]


def test_a_request_fills_the_free_time_before_a_mid_window_report_grant():
    # A report due at 31 ms, mid-way through the window [30, 32) ms, ranks
    # before a 6000-byte REQ, so the MAP generated at 28 ms places it first.
    # The REQ then takes the whole gap from the end of the contention region
    # (30.032 ms) to the report's grant, 968 us or 4719 B at 39 Mb/s, and its
    # other 1281 B from the end of that grant's 103 us on.
    sim, cmts, cm, collector, maps = build(flows=2)
    sim.run_until(25 * MS)
    cmts.on_bwr_frame(encode_bwr(BandwidthReport(1, 0, 31 * MS,
                                                 ((0, 0), (1, 500), (2, 0), (3, 0)),
                                                 BWR_MODE_PER_LCG)))
    sim.run_until(27 * MS)
    cmts.on_req_delivered(cm.flows[2], 6000, sim.now)
    sim.run_until(29 * MS)
    assert [(m.window_start, [(g.flow.enb_id, g.kind, g.start, g.nbytes)
                              for g in m.grants])
            for m in maps if m.grants] \
        == [(30 * MS, [(1, "bwr", 31 * MS, 500),
                       (2, "be", 30 * MS + 32, 4719),
                       (2, "be", 31 * MS + 103, 1281)])]
    assert cmts.demand == []


def test_nudged_ugs_grants_chain_until_they_catch_up():
    # A 17 us grant every 20 us from the window start: the contention region
    # (32 us) pushes the first grant back, each grant then waits for the one
    # before it, and the chain gains 3 us a period until the grant at 220 us
    # is on time again.
    cfg = replace(preset("scenario1"), ugs_period_us=20, ugs_phase_us=0)
    gaps, grants = open_window(2 * MS, cfg, True)
    assert [g.start - 2 * MS for g in grants] \
        == [32 + 17 * i for i in range(11)] + list(range(220, 2 * MS, 20))
    assert len(grants) == 100
    # free time is left only from 219 us on: 1 us before the grant at 220 us,
    # then 3 us after each grant
    assert gaps == [(2 * MS + 219, 2 * MS + 220)] + [(2 * MS + t + 17, 2 * MS + t + 20)
                                                     for t in range(220, 2 * MS, 20)]


def test_idle_map_has_only_contention_region():
    sim, cmts, cm, collector, maps = build()
    sim.run_until(10 * MS)
    assert maps
    for m in maps:
        assert m.grants == []
        assert m.region_duration == region_duration(cmts.cfg)


def _map_grants(monkeypatch, cfg):
    """The outcome of a bwr run and the grants of each MAP it sends."""
    with monkeypatch.context() as m:
        maps = record_maps(Cm, m.setattr)
        run = run_single(cfg, "bwr")
    return outcome(run), [[(g.kind, g.start, g.duration, g.nbytes) for g in msg.grants]
                          for msg in maps]


def test_layouts_cut_short_by_the_run_match_fresh_windows(monkeypatch):
    # The layouts repeat every lcm(1999 us, 2 ms) = 3.998 s, longer than the
    # run: only the run's 151 windows are laid out, each indexed from the
    # first MAP's window. With a MAP every interval and an event for each
    # UGS grant, every MAP must carry the grants of a window laid out afresh
    # (samples alone can agree with a wrongly indexed layout), and the UGS
    # grants booked from the layouts must give the same outcome.
    cfg = replace(preset("scenario1"), duration_us=300 * MS, ugs_period_us=1999)
    assert len(window_layouts(cfg)) == 151
    booked, _ = _map_grants(monkeypatch, cfg)
    restore_evented_ugs(monkeypatch.setattr)
    evented, shifted = _map_grants(monkeypatch, cfg)
    assert booked == evented
    monkeypatch.setattr(Cmts, "_open_window", lambda cmts, start: open_window(
        start, cmts.cfg, cmts.ugs))
    assert (evented, shifted) == _map_grants(monkeypatch, cfg)
    assert sum(g[0] == "ugs" for msg in shifted for g in msg) > 100


def fresh_ugs_starts(cfg):
    """The start of every UGS grant in each MAP window that opens by the
    run's end, each window laid out afresh."""
    mi = cfg.map_interval_us
    return [g.start for window in range(cfg.maps_in_advance * mi, cfg.duration_us + 1, mi)
            for g in open_window(window, cfg, True)[1]]


@pytest.mark.parametrize("overrides", [
    # lcm(1999 us, 2 ms) = 3.998 s: the run lays out only its own windows
    {"ugs_period_us": 1999, "duration_us": 300 * MS},
    # each grant is nudged past the 32 us contention region; the last one
    # starts exactly at the run's end
    {"ugs_phase_us": 0, "duration_us": 40 * MS + 32},
    # a round of 6 ms: three windows, one of them without a grant
    {"ugs_period_us": 3 * MS, "bwr_period_us": 4 * MS, "duration_us": 50 * MS},
    # a round of 4 ms: four windows, three without a grant, and the run's
    # last windows hold none
    {"map_interval_us": MS, "ugs_period_us": 4 * MS, "bwr_period_us": 4 * MS,
     "ugs_phase_us": 3500, "duration_us": 37 * MS},
    # 1.25 ms windows, where a 416 us contention region nudges some grants
    {"map_interval_us": 1250, "upstream_bps": 5_000_000, "contention_slots": 16,
     "ugs_period_us": MS, "bwr_period_us": MS, "ugs_phase_us": 800,
     "duration_us": 30 * MS},
    # the run's two windows end before the first grant: the round is empty
    {"map_interval_us": MS, "ugs_period_us": 4 * MS, "bwr_period_us": 4 * MS,
     "ugs_phase_us": 3500, "duration_us": MS},
], ids=["shorter-than-a-round", "grant-at-the-end", "rounds-3ms", "empty-windows",
        "frames-queue", "no-grant"])
def test_one_round_of_grant_starts_matches_fresh_windows(overrides):
    # ugs_grants_before and next_ugs_grant work from one sorted round of
    # grant starts; a count and a search over every window laid out afresh
    # are the reference, at every grant start and its neighbours, at every
    # window start and on a grid that runs two rounds past the last grant
    cfg = replace(preset("scenario1"), warmup_us=0, **overrides)
    cmts = Cmts(Simulator(), cfg, Collector("bwr"), True)
    starts = fresh_ugs_starts(cfg)
    mi, end = cfg.map_interval_us, cfg.duration_us
    round_us = math.lcm(cfg.ugs_period_us, mi)
    last = starts[-1] if starts else end
    times = {s + d for s in starts for d in (-1, 0, 1)} | {end, end + 1}
    times |= {w + d for w in range(0, end + mi, mi) for d in (-1, 0, 1) if w + d >= 0}
    times |= set(range(0, last + 2 * round_us, 97))
    for t in sorted(times):
        if t <= end + 1:
            assert cmts.ugs_grants_before(t) == sum(s < t for s in starts), t
        grant = cmts.next_ugs_grant(t)
        expected = next((s for s in starts if s >= t), None)
        assert (grant and grant.start) == expected, t
        if grant is not None:
            assert (grant.flow, grant.kind, grant.nbytes) == (None, UGS, cfg.ugs_grant_bytes)
    # past the last grant of a window that opens by the end, none would fire
    assert cmts.next_ugs_grant(last + 1) is None
