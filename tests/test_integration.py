"""Cross-layer runs exercising both protocol stacks together."""

from dataclasses import replace

import pytest

from bwrsim.config import SimConfig, preset
from bwrsim.core import MS, SEC
from bwrsim.docsis import Cm
from bwrsim.lte import Enb
from bwrsim.runner import paired_deltas, run_single

from run_checks import cross_mode_failures, lte_pairs, record_maps


def test_no_requests_when_everything_is_described():
    # pipelined mode, clean VoIP: every byte is announced ahead of arrival,
    # so the best-effort flow never contends
    cfg = preset("scenario1")
    run = run_single(cfg, "bwr")
    assert run.collector.counters.get("reqs_delivered", 0) == 0
    assert run.collector.counters.get("req_collisions", 0) == 0
    assert len(run.collector.retained()) > 500


def test_high_bler_drops_are_counted_and_excluded():
    cfg = SimConfig(enb_count=1, ues_per_enb=6, traffic_case="voip",
                    harq_enabled=True, harq_bler=0.6, duration_us=1 * SEC,
                    warmup_us=0)
    run = run_single(cfg, "baseline")
    c = run.collector.counters
    # 0.6^5 ~ 7.8% of blocks exhaust all five attempts
    assert c.get("dropped_packets", 0) > 0
    assert c.get("harq_dropped_bytes", 0) == 60 * c["dropped_packets"]
    # conservation still holds with losses in flight
    cons = run.conservation()
    assert cons["admitted"] == (cons["ue_buffered"] + cons["lte_inflight"]
                                + cons["lte_egressed"] + cons["harq_dropped"])
    assert cons["lte_egressed"] == cons["cm_queued"] + cons["docsis_sent"]
    # every sampled packet really egressed whole
    assert c["egressed_packets"] == len(run.collector.samples)


def test_first_packet_per_ue_takes_full_ladder():
    # the first packet of each UE has no grant to piggyback on, so it pays
    # the full signaling ladder; later packets may ride in-service reports
    cfg = preset("scenario1")
    cfg.harq_enabled = False
    cfg.warmup_us = 0
    run = run_single(cfg, "baseline")
    first_by_ue = {}
    for s in sorted(run.collector.samples, key=lambda s: s.arrival_us):
        first_by_ue.setdefault(s.ue_id, s)
    assert len(first_by_ue) == 6
    for s in first_by_ue.values():
        assert 18_000 <= s.lte_us <= 24_000
    followups = [s for s in run.collector.samples
                 if s is not first_by_ue[s.ue_id]]
    assert any(s.lte_us < 18_000 for s in followups)   # piggyback path exists


def test_mcs_actually_evolves():
    cfg = preset("scenario2")
    cfg.duration_us = 500 * MS
    run = run_single(cfg, "baseline")
    seen = {ue.mcs for ue in run.ues}
    assert len(seen) > 1
    assert all(18 <= m <= 26 for m in seen)


def test_harq_off_removes_all_variation():
    cfg = preset("scenario1")
    cfg.harq_enabled = False
    run = run_single(cfg, "baseline")
    docsis = {s.docsis_us for s in run.collector.retained()}
    # without retransmissions the only spread is grid alignment + coalescing
    assert min(docsis) == 5245
    assert max(docsis) <= 6300
    assert run.collector.counters.get("dropped_packets", 0) == 0


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
    cfg = preset("scenario2")
    cfg.duration_us = 800 * MS
    run = run_single(cfg, "bwr")
    eut_samples = [s for s in run.collector.retained() if s.enb_id == 1]
    assert eut_samples
    # any packet still buffered has a consistent residue; every sampled one
    # is fully closed out across all three byte ledgers
    for ue in run.ues:
        for lcg_q in ue.buffers:
            for pkt, remaining in lcg_q:
                assert 0 < remaining <= pkt.size_bytes
    sampled = {s.packet_id for s in run.collector.samples}
    for flow in run.cm.flows.values():
        for pkt, _ in flow.queue:
            assert pkt.id not in sampled       # still crossing, not sampled


def test_loaded_scenario_rerun_is_identical():
    def run_once():
        cfg = preset("scenario2")
        cfg.duration_us = 600 * MS
        run = run_single(cfg, "bwr")
        return ([(s.packet_id, s.e2e_us) for s in run.collector.samples],
                run.sim.events_processed, dict(run.collector.counters))
    assert run_once() == run_once()


def test_per_lcg_mode_matches_bulk_for_single_class_traffic():
    # with one traffic class in play, per-block scheduling must not change
    # any packet's latency relative to bulk reporting
    cfg = preset("scenario1")
    bulk = run_single(cfg, "bwr")
    cfg_lcg = preset("scenario1")
    cfg_lcg.bwr_per_lcg = True
    split = run_single(cfg_lcg, "bwr")
    a = [(s.packet_id, s.docsis_us) for s in bulk.collector.retained()]
    b = [(s.packet_id, s.docsis_us) for s in split.collector.retained()]
    assert a == b


@pytest.mark.parametrize("phase_us, duration_us, grant_at_end", [
    (None, 2 * SEC, False),
    (0, 2 * SEC, False),
    (0, 2 * SEC + 32, True),      # nudged past the contention region
    (None, 2 * SEC + MS, True),   # default phase: odd milliseconds
])
def test_ugs_occupancy_counts_grants_before_the_end(monkeypatch, phase_us,
                                                    duration_us, grant_at_end):
    maps = record_maps(Cm, monkeypatch.setattr)
    cfg = preset("scenario1")
    cfg.ugs_phase_us = phase_us
    cfg.duration_us = duration_us
    run = run_single(cfg, "bwr")
    ugs = [g for m in maps for g in m.grants if g.kind == "ugs"]
    assert any(g.start == duration_us for g in ugs) == grant_at_end
    assert any(g.start > duration_us for g in ugs)
    granted = sum(g.nbytes for g in ugs if g.start < duration_us)
    assert run.ledger.occupancy_bps("ugs") == granted * 8 * 1_000_000 / duration_us


def _container_sizes(run):
    exempt = {"req_fifo", "bwr_fifo"}     # demand not yet granted
    sizes = {}
    for owner in ("cmts", "cm", "ledger", "collector"):
        for attr, value in vars(getattr(run, owner)).items():
            if attr not in exempt and isinstance(value, (list, dict, set, tuple)):
                sizes[f"{owner}.{attr}"] = len(value)
    return sizes


def test_docsis_state_does_not_grow_with_simulated_time():
    sizes = []
    for seconds in (1, 4):
        cfg = preset("scenario1")
        cfg.duration_us = seconds * SEC
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


def _outcome(cfg, mode):
    run = run_single(cfg, mode)
    c = run.collector
    return list(c.retained()), c.counters, c.tb_blocks, c.tb_carried


@pytest.mark.parametrize("overrides", [
    {},
    {"map_interval_us": 1 * MS},          # every subframe is a MAP instant
    {"harq_bler": 0.5, "bwr_per_lcg": True, "bwr_period_us": 4 * MS},
], ids=["preset", "map-1ms", "bler-per-lcg-4ms"])
@pytest.mark.parametrize("name", ["scenario1", "scenario2"])
def test_sleeping_subframe_tick_matches_ticking_every_subframe(monkeypatch, name,
                                                              overrides):
    # The tick sleeps while every eNB is idle; a tick every subframe is the
    # reference. Samples and counters must not change in either mode.
    for seed in (0, 5):
        cfg = replace(preset(name), seed=seed, duration_us=1 * SEC, **overrides)
        for mode in ("baseline", "bwr"):
            sleeping = _outcome(cfg, mode)
            with monkeypatch.context() as m:
                m.setattr(Enb, "busy", lambda self: True)
                ticking = _outcome(cfg, mode)
            assert sleeping == ticking, (seed, mode)
            assert len(sleeping[0]) > 100


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
