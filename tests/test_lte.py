import pytest

from bwrsim.bwr import BwrEmitter
from bwrsim.config import ConfigError, SimConfig
from bwrsim.core import MS, Rng, Simulator
from bwrsim.lte import (Channel, Enb, HARQ_RTT_US, LteError, Packet, SubframeTick,
                        TBS_MIN, Ue, draw_mcs, harq_grant_utilization, tbs_bytes)
from bwrsim.metrics import Counters


class StubCollector:
    def __init__(self):
        self.counters = Counters()
        self.tb_records = []

    def record_tb(self, *, attempts, success):
        self.tb_records.append((attempts, success))


def make_enb(sim, *, harq=False, bler=0.0, seed=1, decode=2 * MS):
    cfg = SimConfig(enb_decode_us=decode, harq_enabled=harq, harq_bler=bler,
                    harq_max_retx=4)
    return Enb(sim, 1, cfg, StubCollector(), Rng(seed))


def make_ue(sim, enb, ue_id=1, sr_phase=0):
    ue = Ue(sim, ue_id, enb, sr_phase)
    enb.ues.append(ue)
    return ue


def pkt(pid=0, size=60, ue_id=1):
    return Packet(pid, ue_id, 1, size)


class FailThenPass:
    """HARQ outcome stream: the first `fails` attempts fail."""

    def __init__(self, fails):
        self.fails = fails

    def bernoulli(self, p):
        if self.fails > 0:
            self.fails -= 1
            return False
        return True


# -- analytic utilization ---------------------------------------------------

def test_gutil_typical_point():
    assert harq_grant_utilization(4, 0.1) == pytest.approx(0.9482, abs=1e-4)


def test_gutil_single_term():
    assert harq_grant_utilization(0, 0.1) == pytest.approx(0.9, abs=1e-12)


def test_gutil_hand_computed():
    # 0.5*1 + 0.5*0.5/2 = 0.625
    assert harq_grant_utilization(1, 0.5) == pytest.approx(0.625, abs=1e-12)


def test_gutil_domain():
    with pytest.raises(ValueError):
        harq_grant_utilization(4, 1.0)
    with pytest.raises(ValueError):
        harq_grant_utilization(-1, 0.1)


# -- transport block sizing --------------------------------------------------

def test_tbs_monotone_and_example():
    values = [tbs_bytes(m) for m in range(18, 27)]
    assert values == sorted(values)
    assert tbs_bytes(18) < tbs_bytes(26)
    assert tbs_bytes(22) == 3300


def test_tbs_out_of_range():
    with pytest.raises(LteError):
        tbs_bytes(17)
    with pytest.raises(LteError):
        tbs_bytes(27)


# -- timing settings ----------------------------------------------------------

def test_profile_defaults_consistent():
    cfg = SimConfig()
    # grant ladder plus decode, without the SR wait
    assert (cfg.sr_to_bsr_grant_us + cfg.grant_to_bsr_us + cfg.bsr_to_data_grant_us
            + cfg.grant_to_data_us + cfg.enb_decode_us) == 18 * MS


def test_profile_rejects_nonpositive():
    with pytest.raises(ConfigError, match=r"^grant_to_data_us = 0: "):
        SimConfig(grant_to_data_us=0)


# -- packet stages ------------------------------------------------------------

STAGES = ("ue_arrival", "cm_arrival", "cmts_egress")


def stamp(p, stage, t):
    getattr(p, f"stamp_{stage}")(t)


def test_packet_stage_monotonic():
    # each stamp past the first refuses a time before the stage ahead of it,
    # and takes the same instant
    for i, stage in enumerate(STAGES[1:], start=1):
        p = pkt()
        for k, earlier in enumerate(STAGES[:i], start=1):
            stamp(p, earlier, 100 * k)
        prior = 100 * i
        with pytest.raises(LteError,
                           match=fr"^stage {stage}=50 precedes prior stage \({prior}\)$"):
            stamp(p, stage, 50)
        assert getattr(p, stage) == -1
        stamp(p, stage, prior)
        assert getattr(p, stage) == prior


def test_packet_stage_set_once():
    for i, stage in enumerate(STAGES):
        p = pkt()
        for earlier in STAGES[:i]:
            stamp(p, earlier, 100)
        stamp(p, stage, 200)
        with pytest.raises(LteError, match=f"^stage {stage} already set for packet 0$"):
            stamp(p, stage, 300)
        assert getattr(p, stage) == 200


def test_packet_stage_skips_an_unset_prior_stage():
    # a stage whose prior stage is unset is not bounded by it
    p = pkt()
    p.stamp_cmts_egress(50)
    assert p.cmts_egress == 50


def test_packet_has_no_undeclared_attribute():
    with pytest.raises(AttributeError):
        pkt().typo = 1


def test_packet_validation():
    with pytest.raises(LteError):
        Packet(0, 1, 1, 0)


# -- SR arming ----------------------------------------------------------------

def test_sr_fires_at_next_opportunity():
    # arrival at 0 with phase 0: the instant-0 opportunity is unusable, so the
    # request goes out at the next period boundary
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    captured = []
    enb.on_sr = lambda ue: captured.append((sim.now, ue.ue_id))
    ue.on_arrival(pkt())
    sim.run_until(20 * MS)
    assert captured == [(5 * MS, 1)]


def test_sr_wait_range_over_phases():
    for phase_ms in range(5):
        for arrival in (0, 1, 499, 500, 2600, 4999):
            sim = Simulator()
            enb = make_enb(sim)
            ue = make_ue(sim, enb, sr_phase=phase_ms * MS)
            times = []
            enb.on_sr = lambda ue: times.append(sim.now)
            sim.run_until(arrival)
            ue.on_arrival(pkt())
            sim.run_until(arrival + 20 * MS)
            wait = times[0] - arrival
            assert 500 <= wait <= 5500


def test_no_sr_while_grant_pending():
    # a grant issued for reported demand holds off the SR until it fires;
    # after that no report covers the buffer, and an arrival arms one
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    enb.on_bsr(ue, 60)
    sim.run_until(enb.cfg.bsr_to_data_grant_us)
    enb.on_subframe()
    assert ue.granted == 60
    ue.on_arrival(pkt(0))
    assert not ue.pending_sr
    sim.run_until(sim.now + enb.cfg.grant_to_data_us)   # the grant fires
    assert ue.granted == 0
    assert ue.buffer_bytes == 0
    ue.on_arrival(pkt(1))
    assert ue.pending_sr


def test_no_duplicate_sr():
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    ue.on_arrival(pkt(0))
    ue.on_arrival(pkt(1))
    assert ue.pending_sr
    # only one SR event queued
    assert sim.pending() == 1


def test_buffer_additivity():
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    ue.on_arrival(pkt(0, size=100))
    ue.on_arrival(pkt(1, size=200))
    assert ue.buffer_bytes == 300
    assert [remaining for _, remaining in ue.buffer] == [100, 200]


# -- control ladder timing ------------------------------------------------------

def test_sr_to_bsr_delivery_times():
    # request at 5 ms; report grant goes out 4 ms later and the report lands
    # at the scheduler 4 ms after that
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    ue.on_arrival(pkt())            # SR at 5 ms (phase 0)
    seen = []
    enb.on_bsr = lambda ue, nbytes: seen.append((sim.now, nbytes))
    sim.run_until(20 * MS)
    assert seen == [(13 * MS, 60)]


def test_two_srs_independent_grants():
    sim = Simulator()
    enb = make_enb(sim)
    ue1 = make_ue(sim, enb, ue_id=1)
    ue2 = make_ue(sim, enb, ue_id=2)
    seen = []
    enb.on_bsr = lambda ue, nbytes: seen.append((sim.now, ue.ue_id))
    ue1.on_arrival(pkt(0, ue_id=1))
    ue2.on_arrival(pkt(1, ue_id=2))
    sim.run_until(20 * MS)
    assert seen == [(13 * MS, 1), (13 * MS, 2)]


def test_zero_bsr_suppressed():
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    seen = []
    enb.on_bsr = lambda ue, nbytes: seen.append(nbytes)
    ue.emit_bsr()
    assert seen == []


def test_piggybacked_report_when_the_buffer_changed_or_the_last_is_stale():
    # A block carries the buffer state when it differs from what the latest
    # report left unsent, or once bsr_period_us has passed since that report;
    # the UE's first block always carries it. The SR ladder's report lands at
    # 13 ms, after the last block here.
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    reports = []
    orig = ue._attempt
    def spy(proc, report):
        reports.append(report)
        orig(proc, report)
    ue._attempt = spy
    period = enb.cfg.bsr_period_us
    for i, (t, size) in enumerate([(0, 100), (period - 1, 100), (period, 100),
                                   (period + 1, 300)]):
        sim.run_until(t)
        ue.on_arrival(pkt(i, size=size))
        ue.transmit(100)
    assert reports == [0, None, 0, 200]


# -- round-robin scheduling ------------------------------------------------------

def run_subframes(sim, enb, n):
    grants = []
    orig = enb._issue_data_grant
    def spy(ue, t):
        grants.append((t, ue.ue_id))
        orig(ue, t)
    enb._issue_data_grant = spy
    for i in range(n):
        enb.on_subframe()
        sim.run_until(sim.now + MS)
    return grants


def test_round_robin_rotation():
    sim = Simulator()
    enb = make_enb(sim)
    for uid in range(1, 7):
        ue = make_ue(sim, enb, ue_id=uid)
        enb._apply_demand(ue, 10_000)
    grants = run_subframes(sim, enb, 6)
    assert [uid for _, uid in grants] == [1, 2, 3, 4, 5, 6]


def test_round_robin_fairness():
    sim = Simulator()
    enb = make_enb(sim)
    for uid in range(1, 5):
        ue = make_ue(sim, enb, ue_id=uid)
        enb._apply_demand(ue, 10 ** 7)
    grants = run_subframes(sim, enb, 42)
    counts = {}
    for _, uid in grants:
        counts[uid] = counts.get(uid, 0) + 1
    assert max(counts.values()) - min(counts.values()) <= 1


def test_grant_segmentation():
    # 5000 B of demand at tbs 3300: two grants, 3300 then 1700
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    enb._apply_demand(ue, 5000)
    sizes = []
    orig = enb._issue_data_grant
    def spy(ue_, t):
        before = ue.demand
        orig(ue_, t)
        sizes.append(before - ue.demand)
    enb._issue_data_grant = spy
    for _ in range(3):
        enb.on_subframe()
        sim.run_until(sim.now + MS)
    assert sizes == [3300, 1700]


def test_under_capacity_single_grant():
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    enb._apply_demand(ue, 60)
    enb.on_subframe()
    assert ue.demand == 0
    assert ue not in enb.ready
    assert ue.granted == 60


def test_a_stale_report_over_grants_and_the_unused_bytes_are_counted():
    # A report of 100 B is granted at 4 ms and fires at 8 ms. A second
    # report of the same 100 B, made at 5 ms before that grant fired, is
    # applied at 9 ms, when nothing is granted: its grant of 100 B fires at
    # 13 ms and finds only the 40 B that arrived at 10 ms. Its other 60 B
    # are counted as unused, although the grant drained some bytes.
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    ue.pending_sr = True              # no SR ladder of its own
    ue.on_arrival(pkt(0, size=100))
    enb.on_bsr(ue, 100)
    for t in range(1, 16):
        sim.run_until(t * MS)
        if t == 5:
            enb.on_bsr(ue, 100)
        if t == 10:
            ue.on_arrival(pkt(1, size=40))
        enb.on_subframe()
    c = enb.collector.counters
    assert c.lte_granted_bytes == 200
    assert c.lte_egressed_bytes == 140
    assert c.lte_grant_unused_bytes == 60
    assert (ue.buffer_bytes, ue.demand, ue.granted) == (0, 0, 0)


# -- channel ---------------------------------------------------------------------

def test_channel_sigma_zero_constant():
    for _ in range(10):
        assert draw_mcs(22.0, 0.0, Rng(1)) == 22
    # a channel with sigma 0 takes nothing from its stream
    sim = Simulator()
    ue = make_ue(sim, make_enb(sim))
    rng = Rng(1)
    state = rng._r.getstate()
    channel = Channel(SimConfig(mcs_mean=24.0, mcs_sigma=0.0), rng, [ue])
    for t in (0, 35 * MS, 900 * MS):
        channel.draw(t)
        assert ue.tbs == tbs_bytes(24)
    assert rng._r.getstate() == state


def test_channel_clamp():
    class FixedRng:
        def __init__(self, v):
            self.v = v
        def normal(self, mean, sigma):
            return self.v
    assert draw_mcs(22.0, 2.0, FixedRng(27.4)) == 26
    assert draw_mcs(22.0, 2.0, FixedRng(11.0)) == 18
    # .5 ties round to even
    assert [draw_mcs(22.0, 2.0, FixedRng(v)) for v in (18.5, 19.5, 25.5)] \
        == [18, 20, 26]
    # clamped before rounding: a draw round() cannot take ends at a bound
    assert draw_mcs(22.0, 1e308, FixedRng(float("inf"))) == 26
    assert draw_mcs(22.0, 1e308, FixedRng(-1e308)) == 18
    assert type(draw_mcs(22.0, 2.0, FixedRng(21.7))) is int


def test_channel_distribution():
    rng = Rng(4)
    draws = [draw_mcs(22.0, 2.0, rng) for _ in range(100_000)]
    mean = sum(draws) / len(draws)
    assert 21.7 <= mean <= 22.3
    assert all(18 <= d <= 26 for d in draws)


def eager_mcs(seed, n_ues, tick):
    """Each UE's MCS in the given tick of a fresh stream that draws every
    tick, one normal per UE."""
    rng = Rng(seed)
    for _ in range(tick):
        for _ in range(n_ues):
            draw_mcs(22.0, 2.0, rng)
    return [draw_mcs(22.0, 2.0, rng) for _ in range(n_ues)]


def channel_enb(sim, seed, n_ues=2):
    """An eNB whose UEs share a channel on the stream Rng(seed)."""
    cfg = SimConfig(mcs_mean=22.0, mcs_sigma=2.0, channel_update_us=10 * MS)
    ues = []
    enb = Enb(sim, 1, cfg, StubCollector(), Rng(1), Channel(cfg, Rng(seed), ues))
    for ue_id in range(1, n_ues + 1):
        ues.append(make_ue(sim, enb, ue_id))
    return enb, ues


def test_a_grant_above_the_smallest_block_takes_its_ticks_block():
    # The first grant, at 25 ms, is in tick 2: the second UE's block is its
    # MCS in that tick, as if ticks 0 and 1 had been drawn as well. On this
    # stream it differs from the ticks around it, from the first UE's and
    # from the MCS of a UE no tick has set.
    sim = Simulator()
    enb, (first, second) = channel_enb(sim, seed=1)
    mcs = eager_mcs(1, 2, tick=2)
    assert mcs[1] not in {eager_mcs(1, 2, 1)[1], eager_mcs(1, 2, 3)[1], mcs[0], 22}
    sim.run_until(25 * MS)
    enb._apply_demand(second, 5000)
    enb.on_subframe()
    assert second.granted == tbs_bytes(mcs[1])
    assert first.tbs == tbs_bytes(mcs[0])


def test_a_demand_that_fits_the_smallest_block_reads_no_channel():
    sim = Simulator()
    enb, (ue, _) = channel_enb(sim, seed=9)
    sim.run_until(25 * MS)
    enb._apply_demand(ue, TBS_MIN)
    enb.on_subframe()
    assert ue.granted == TBS_MIN == 2700
    assert enb.channel.ticks == 0


def test_an_enb_without_a_channel_keeps_mcs_22():
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    grants = []
    for t in range(0, 40 * MS, MS):
        sim.run_until(t)
        enb._apply_demand(ue, 5000)
        before = ue.granted
        enb.on_subframe()
        grants.append(ue.granted - before)
        ue.granted = 0
    assert grants == [tbs_bytes(22)] * 40


# -- HARQ ---------------------------------------------------------------------------

def drive_one_tb(sim, enb, ue, size=600):
    """Push one packet through SR ladder + grant; returns the collector."""
    ue.on_arrival(pkt(0, size=size))
    end = 40 * MS
    t = 0
    while t < end:
        enb.on_subframe()
        t += MS
        sim.run_until(t)
    return enb.collector


def test_bler_zero_first_attempt_success():
    sim = Simulator()
    enb = make_enb(sim, harq=True, bler=0.0)
    ue = make_ue(sim, enb)
    sink = []
    enb.egress_sink = lambda chunks, t: sink.append((t, sum(n for _, n in chunks)))
    drive_one_tb(sim, enb, ue)
    assert sink == [(23 * MS, 600)]
    assert enb.collector.tb_records == [(1, True)]


def test_retx_spacing_is_8ms():
    sim = Simulator()
    enb = make_enb(sim, harq=True, bler=0.1)
    enb.harq_rng = FailThenPass(2)
    ue = make_ue(sim, enb)
    tx_times = []
    orig = ue._attempt
    def spy(proc, report):
        tx_times.append(sim.now)
        orig(proc, report)
    ue._attempt = spy
    sink = []
    enb.egress_sink = lambda chunks, t: sink.append(t)
    drive_one_tb(sim, enb, ue)
    assert tx_times == [21 * MS, 29 * MS, 37 * MS]
    assert all((b - a) == HARQ_RTT_US for a, b in zip(tx_times, tx_times[1:]))
    assert all((t - tx_times[0]) % HARQ_RTT_US == 0 for t in tx_times)
    assert enb.collector.tb_records == [(3, True)]


def test_exhaustion_drops_block():
    class AlwaysFail:
        def bernoulli(self, p):
            return False
    sim = Simulator()
    enb = make_enb(sim, harq=True, bler=0.5)
    enb.harq_rng = AlwaysFail()
    ue = make_ue(sim, enb)
    sink = []
    enb.egress_sink = lambda chunks, t: sink.append(t)
    collector = drive_one_tb(sim, enb, ue)
    sim.run_until(80 * MS)
    assert sink == []
    assert collector.tb_records == [(5, False)]      # 1 + max_retx attempts
    assert collector.counters.dropped_packets == 1
    assert collector.counters.harq_dropped_bytes == 600


def test_first_attempt_success_rate_monte_carlo():
    rng = Rng(13)
    n = 100_000
    hits = sum(rng.bernoulli(0.9) for _ in range(n))
    assert 0.895 <= hits / n <= 0.905


def test_mc_utilization_matches_closed_form():
    # independent re-simulation of the attempt chain, 1e5 blocks
    rng = Rng(21)
    bler, max_retx = 0.1, 4
    total = 0.0
    n = 100_000
    for _ in range(n):
        for attempt in range(max_retx + 1):
            if rng.bernoulli(1.0 - bler):
                total += 1.0 / (attempt + 1)
                break
    assert abs(total / n - harq_grant_utilization(4, 0.1)) < 0.005


def test_byte_conservation_through_ladder():
    sim = Simulator()
    enb = make_enb(sim, harq=True, bler=0.1)
    ue = make_ue(sim, enb)
    chunks_out = []
    enb.egress_sink = lambda chunks, t: chunks_out.extend(chunks)
    for i in range(20):
        ue.on_arrival(pkt(i, size=500))
    t = 0
    while t < 200 * MS:
        enb.on_subframe()
        t += MS
        sim.run_until(t)
    c = enb.collector.counters
    egressed = sum(n for _, n in chunks_out)
    assert c.admitted_bytes == (egressed + ue.buffer_bytes + c.lte_inflight_bytes
                                + c.harq_dropped_bytes)


# -- sleeping subframe tick ------------------------------------------------------------

def start_ticks(sim, enb):
    """Start a SubframeTick over enb at 0; returns the instants it ticks at."""
    ticks = []
    orig = enb.on_subframe
    def spy():
        ticks.append(sim.now)
        orig()
    enb.on_subframe = spy
    SubframeTick(sim, [enb]).wake(0)
    return ticks


@pytest.mark.parametrize("report_at, served_at", [(3 * MS, 7 * MS),
                                                  (3 * MS + 500, 8 * MS)])
def test_sleeping_tick_serves_demand_at_the_first_boundary(report_at, served_at):
    # demand becomes schedulable 4 ms after the report; applied exactly on a
    # boundary it precedes that boundary's tick and is served by it
    sim = Simulator()
    enb = make_enb(sim)
    ue = make_ue(sim, enb)
    ticks = start_ticks(sim, enb)
    issued = []
    orig = enb._issue_data_grant
    def spy(ue, t):
        issued.append(t)
        orig(ue, t)
    enb._issue_data_grant = spy
    sim.run_until(report_at)
    enb.on_bsr(ue, 60)
    sim.run_until(20 * MS)
    assert issued == [served_at]
    assert ticks == [0, served_at]


def test_retransmission_announced_at_a_boundary_wakes_the_next_tick():
    # grant at 17 ms, first attempt at 21 ms fails at its 23 ms decode, which
    # follows the (sleeping) 23 ms tick; the retransmission at 29 ms egresses
    # at 31 ms and is reported by the 25 ms build, as with a tick every 1 ms
    sim = Simulator()
    enb = make_enb(sim, harq=True, bler=0.1)
    enb.harq_rng = FailThenPass(1)
    ue = make_ue(sim, enb)
    reports = []
    lead = enb.cfg.grant_to_data_us + enb.cfg.enb_decode_us
    enb.bwr_emitter = BwrEmitter(1, MS, lead, forward=reports.append,
                                 collector=enb.collector)
    ticks = start_ticks(sim, enb)
    ue.on_arrival(pkt(0, size=600))
    sim.run_until(60 * MS)
    assert ticks == [0, 17 * MS, 24 * MS, 25 * MS]
    assert [(r.egress_time, r.total_bytes()) for r in reports] == [
        (23 * MS, 600), (31 * MS, 600)]
    assert enb.collector.tb_records == [(2, True)]
