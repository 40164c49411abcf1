"""Cross-layer runs exercising both protocol stacks together."""

from dataclasses import replace

import pytest

from bwrsim.config import SimConfig, preset
from bwrsim.core import MS, SEC
from bwrsim.docsis import Cm, Cmts
from bwrsim.lte import MCS_MAX, MCS_MIN, Channel, Enb, tbs_bytes
from bwrsim.runner import paired_deltas, run_single

from run_checks import (cross_mode_failures, lte_pairs, outcome, placing_maps,
                        record_maps, restore_evented_ugs)


def test_no_requests_when_everything_is_described():
    # pipelined mode, clean VoIP: every byte is announced ahead of arrival,
    # so the best-effort flow never contends
    cfg = preset("scenario1")
    run = run_single(cfg, "bwr")
    assert run.collector.counters.reqs_delivered == 0
    assert run.collector.counters.req_collisions == 0
    assert len(run.collector.retained()) > 500


def test_high_bler_drops_are_counted_and_excluded():
    cfg = SimConfig(enb_count=1, ues_per_enb=6, traffic_case="voip",
                    harq_enabled=True, harq_bler=0.6, duration_us=1 * SEC,
                    warmup_us=0)
    run = run_single(cfg, "baseline")
    c = run.collector.counters
    # 0.6^5 ~ 7.8% of blocks exhaust all five attempts
    assert c.dropped_packets > 0
    assert c.harq_dropped_bytes == 60 * c.dropped_packets
    # conservation still holds with losses in flight
    cons = run.conservation()
    assert cons["admitted"] == (cons["ue_buffered"] + cons["lte_inflight"]
                                + cons["lte_egressed"] + cons["harq_dropped"])
    assert cons["lte_egressed"] == cons["cm_queued"] + cons["docsis_sent"]
    # every sampled packet really egressed whole
    assert c.egressed_packets == len(run.collector.samples)


def test_first_packet_per_ue_takes_full_ladder():
    # the first packet of each UE has no grant to piggyback on, so it pays
    # the full signaling ladder; later packets may ride in-service reports
    cfg = replace(preset("scenario1"), harq_enabled=False, warmup_us=0)
    run = run_single(cfg, "baseline")
    first_by_ue = {}
    # packet ids are assigned in arrival order
    for s in sorted(run.collector.samples, key=lambda s: s.packet_id):
        first_by_ue.setdefault(s.ue_id, s)
    assert len(first_by_ue) == 6
    for s in first_by_ue.values():
        assert 18_000 <= s.lte_us <= 24_000
    followups = [s for s in run.collector.samples
                 if s is not first_by_ue[s.ue_id]]
    assert any(s.lte_us < 18_000 for s in followups)   # piggyback path exists


def test_mcs_actually_evolves(monkeypatch):
    # the block sizes of every tick the run's grants read
    cfg = replace(preset("scenario2"), duration_us=500 * MS)
    ticks, draw = [], Channel.draw
    def recording_draw(channel, t):
        draw(channel, t)
        ticks.append([ue.tbs for ue in channel.ues])
    monkeypatch.setattr(Channel, "draw", recording_draw)
    run_single(cfg, "baseline")
    assert len(ticks) > 1
    assert len({tuple(tick) for tick in ticks}) > 1
    seen = {tbs for tick in ticks for tbs in tick}
    assert len(seen) > 1
    assert seen <= {tbs_bytes(m) for m in range(MCS_MIN, MCS_MAX + 1)}


def test_harq_off_removes_all_variation():
    cfg = replace(preset("scenario1"), harq_enabled=False)
    run = run_single(cfg, "baseline")
    docsis = {s.docsis_us for s in run.collector.retained()}
    # without retransmissions the only spread is grid alignment + coalescing
    assert min(docsis) == 5245
    assert max(docsis) <= 6300
    assert run.collector.counters.dropped_packets == 0


def test_background_flows_unaffected_by_pipelining_gain():
    cfg = preset("scenario2")
    base = run_single(cfg, "baseline")
    bwr = run_single(cfg, "bwr")
    from bwrsim.metrics import summarize
    for enb_id in (2, 3, 4):
        mb = summarize(base.collector.retained().select(enb_id), "docsis")
        mw = summarize(bwr.collector.retained().select(enb_id), "docsis")
        # background traffic keeps contending: no pipelining floor for them
        assert mw.min_us > 4_000
        assert mb.min_us > 4_000


def test_video_packets_segment_and_reassemble():
    cfg = replace(preset("scenario2"), duration_us=800 * MS)
    run = run_single(cfg, "bwr")
    eut_samples = [s for s in run.collector.retained() if s.enb_id == 1]
    assert eut_samples
    # any packet still buffered has a consistent residue; every sampled one
    # is fully closed out across all three byte ledgers
    for ue in run.ues:
        for pkt, remaining in ue.buffer:
            assert 0 < remaining <= pkt.size_bytes
    sampled = {s.packet_id for s in run.collector.samples}
    for flow in run.cm.flows.values():
        for pkt, _ in flow.queue:
            assert pkt.id not in sampled       # still crossing, not sampled


def test_loaded_scenario_rerun_is_identical():
    def run_once():
        cfg = replace(preset("scenario2"), duration_us=600 * MS)
        run = run_single(cfg, "bwr")
        return ([(s.packet_id, s.e2e_us) for s in run.collector.samples],
                run.sim.events_processed, run.collector.counters)
    assert run_once() == run_once()


@pytest.mark.parametrize("phase_us, duration_us, grant_at_end", [
    (None, 2 * SEC, False),
    (0, 2 * SEC, False),
    (0, 2 * SEC + 32, True),      # nudged past the contention region
    (None, 2 * SEC + MS, True),   # default phase: odd milliseconds
])
def test_ugs_occupancy_counts_grants_before_the_end(monkeypatch, phase_us,
                                                    duration_us, grant_at_end):
    # The occupancy is worked out from the layouts. A run whose MAP cycle
    # never sleeps, with an event for every UGS grant, lists each grant in
    # its MAP.
    cfg = replace(preset("scenario1"), ugs_phase_us=phase_us, duration_us=duration_us)
    occupancy = run_single(cfg, "bwr").cmts.ugs_occupancy_bps()
    restore_evented_ugs(monkeypatch.setattr)
    maps = record_maps(Cm, monkeypatch.setattr)
    run_single(cfg, "bwr")
    ugs = [g for m in maps for g in m.grants if g.kind == "ugs"]
    assert any(g.start == duration_us for g in ugs) == grant_at_end
    assert any(g.start > duration_us for g in ugs)
    granted = sum(g.nbytes for g in ugs if g.start < duration_us)
    assert occupancy == granted * 8 * 1_000_000 / duration_us


@pytest.mark.parametrize("overrides, depth", [
    ({}, 1),
    # 1.25 ms windows open with a 416 us contention region: the grant due at
    # 3.8 ms is nudged to 4.166 ms, past the build at 4 ms, so two frames
    # wait for it, and the second waits for the grant after it
    ({"map_interval_us": 1250, "upstream_bps": 5_000_000, "contention_slots": 16,
      "ugs_period_us": MS, "bwr_period_us": MS, "ugs_phase_us": 800}, 2),
], ids=["preset", "frames-queue"])
@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_booked_ugs_grants_deliver_each_report_when_evented_ones_do(monkeypatch, name,
                                                                   overrides, depth):
    # The modem books the UGS grant that carries a report, and the next one
    # while frames remain; with an event for every UGS grant of every MAP,
    # the first grant after the report's build carries it. Each frame must
    # reach the CMTS at the same instant.
    cfg = replace(preset(name), seed=3, duration_us=1 * SEC, **overrides)

    def deliveries():
        delivered, queued = [], []
        on_bwr_frame, forward_report = Cmts.on_bwr_frame, Cm.forward_report

        def record(cmts, frame):
            delivered.append((cmts.sim.now, frame))
            on_bwr_frame(cmts, frame)

        def forward(cm, flow, report):
            forward_report(cm, flow, report)
            queued.append(len(cm.report_frames))

        with monkeypatch.context() as m:
            m.setattr(Cmts, "on_bwr_frame", record)
            m.setattr(Cm, "forward_report", forward)
            run_single(cfg, "bwr")
        return delivered, max(queued)

    booked = deliveries()
    restore_evented_ugs(monkeypatch.setattr)
    assert booked == deliveries()
    assert len(booked[0]) > 200
    assert booked[1] == depth                   # the most frames queued at once


def _container_sizes(run):
    exempt = {"demand"}                  # REQs and reports not yet granted
    sizes = {}
    for owner in ("cmts", "cm", "collector"):
        for attr, value in vars(getattr(run, owner)).items():
            if attr not in exempt and isinstance(value, (list, dict, set, tuple)):
                sizes[f"{owner}.{attr}"] = len(value)
    return sizes


def test_docsis_state_does_not_grow_with_simulated_time():
    sizes = []
    for seconds in (1, 4):
        cfg = replace(preset("scenario1"), duration_us=seconds * SEC)
        sizes.append(_container_sizes(run_single(cfg, "bwr")))
    short, long = sizes
    assert short.keys() == long.keys()
    assert {k: v for k, v in long.items() if v > short[k]} == {}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_report_grant_never_precedes_its_bytes(seed):
    # The report lead (grant_to_data_us + enb_decode_us, 8 ms) outruns the MAP
    # lead (2 ms), so a report grant can land at the report's egress, and a
    # report covers up to 4 ms of egress times. A grant placed before some of
    # its bytes reach the modem strands them until the flow's next grant.
    cfg = replace(preset("scenario2"), enb_count=1, ues_per_enb=2, seed=seed,
                  upstream_bps=84_000_000, map_interval_us=MS, maps_in_advance=2,
                  bwr_period_us=4 * MS, grant_to_data_us=4 * MS,
                  enb_decode_us=4 * MS, duration_us=300 * MS, warmup_us=20 * MS)
    deltas = paired_deltas(run_single(cfg, "baseline"), run_single(cfg, "bwr"))
    assert len(deltas) > 50
    assert [(pid, b, w) for pid, _, b, w in deltas if w > b] == []


@pytest.mark.parametrize("seed", [40, 1])
def test_eut_unused_grant_bytes_are_the_wasted_report_grant_bytes(seed):
    # With HARQ off, a report announces each LTE grant of the eut's eNB, so
    # the bytes of a report grant that find nothing queued are the bytes the
    # eut's UEs left unused in their LTE grants (a stale BSR over-grants).
    # lte_grant_unused_bytes sums every eNB and cannot show it.
    cfg = replace(preset("scenario2"), duration_us=2 * SEC, harq_enabled=False,
                  seed=seed)
    c = run_single(cfg, "bwr").collector.counters
    assert c.wasted_bwr_grant_bytes > 0
    assert c.eut_grant_unused_bytes == c.wasted_bwr_grant_bytes
    assert c.lte_grant_unused_bytes > c.eut_grant_unused_bytes


@pytest.mark.parametrize("overrides", [
    {},
    {"map_interval_us": 1 * MS},          # every subframe is a MAP instant
    {"harq_bler": 0.5, "bwr_period_us": 4 * MS},
], ids=["preset", "map-1ms", "bler-4ms"])
@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_sleeping_subframe_tick_matches_ticking_every_subframe(monkeypatch, name,
                                                              overrides):
    # The tick sleeps while every eNB is idle; a tick every subframe is the
    # reference. Samples and counters must not change in either mode.
    for seed in (0, 5):
        cfg = replace(preset(name), seed=seed, duration_us=1 * SEC, **overrides)
        for mode in ("baseline", "bwr"):
            sleeping = outcome(run_single(cfg, mode))
            with monkeypatch.context() as m:
                m.setattr(Enb, "busy", lambda self: True)
                ticking = outcome(run_single(cfg, mode))
            assert sleeping == ticking, (seed, mode)
            assert len(sleeping[0]) > 100


def _placing_maps(cfg, mode, patch):
    """The outcome of a run, with the window and grants of every MAP that
    carries a non-UGS grant."""
    maps = record_maps(Cm, patch)
    return outcome(run_single(cfg, mode)), placing_maps(maps)


@pytest.mark.parametrize("overrides", [
    {},
    {"map_interval_us": 1 * MS},
    {"maps_in_advance": 3, "cmts_proc_us": 1500},
], ids=["preset", "map-1ms", "advance-3-proc-1500"])
@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_sleeping_map_cycle_matches_a_map_every_interval(monkeypatch, name, overrides):
    # The MAP cycle sleeps while no REQ or report is pending, and the modem
    # books the UGS grants that carry a report. A MAP every interval, with an
    # event for each of its UGS grants, is the reference. Samples, counters,
    # TB totals and every MAP that places a non-UGS grant must not change in
    # either mode.
    for seed in (0, 5):
        cfg = replace(preset(name), seed=seed, duration_us=1 * SEC, **overrides)
        for mode in ("baseline", "bwr"):
            with monkeypatch.context() as m:
                sleeping = _placing_maps(cfg, mode, m.setattr)
            with monkeypatch.context() as m:
                restore_evented_ugs(m.setattr)
                awake = _placing_maps(cfg, mode, m.setattr)
            assert sleeping == awake, (seed, mode)
            assert len(sleeping[0][0]) > 100 and len(sleeping[1]) > 100


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_lte_segment_is_the_same_in_both_modes(name, seed):
    # BWR changes only the DOCSIS side: a packet retained in both modes has
    # the same LTE-only latency, and nearly every packet pairs.
    cfg = replace(preset(name), seed=seed, duration_us=1 * SEC)
    base, bwr = (run_single(cfg, mode) for mode in ("baseline", "bwr"))
    paired = lte_pairs(base, bwr)
    assert cross_mode_failures(base, bwr) == []
    assert len(paired) >= 0.99 * min(len(run.collector.retained())
                                     for run in (base, bwr))
    assert len(paired) > 100
