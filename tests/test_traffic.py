import itertools
import math
from dataclasses import replace

import pytest

from bwrsim.config import SimConfig
from bwrsim.core import MS, SEC, RngStreams, Simulator
from bwrsim.lte import Ue
from bwrsim.runner import run_single
from bwrsim.traffic import (Trace, TraceSource, TrafficError, packetize, read_trace,
                            synth_video, write_trace)


class SinkUe:
    """Collects arrivals; quacks enough like a Ue for the sources."""

    class _Enb:
        enb_id = 1

    enb = _Enb()

    def __init__(self, ue_id=1):
        self.ue_id = ue_id
        self.packets = []

    def on_arrival(self, pkt):
        self.packets.append(pkt)


VOIP = Trace([(0, 60)], 20 * MS)                # one 60-byte packet every 20 ms


def test_voip_count_over_run():
    sim = Simulator()
    ue = SinkUe()
    # start 13 ms into the 20 ms loop: the first packet comes at 7 ms
    TraceSource(sim, itertools.count(), ue, VOIP, start_offset=13 * MS,
                mtu=60).start()
    sim.run_until(7 * MS - 1)
    assert not ue.packets
    sim.run_until(2 * SEC - 1)
    assert len(ue.packets) == 100               # floor(2 s / 20 ms)
    assert all(p.size_bytes == 60 for p in ue.packets)


def test_voip_six_sources_total():
    sim = Simulator()
    ues = [SinkUe(i) for i in range(6)]
    for i, ue in enumerate(ues):
        TraceSource(sim, itertools.count(), ue, VOIP,
                    start_offset=-i * 3 * MS % VOIP.duration, mtu=60).start()
    sim.run_until(2 * SEC - 1)
    assert sum(len(u.packets) for u in ues) == 600


class PhaseDraws:
    """The phases stream: each UE's SR phase draw is 0, and its arrival
    phase draw (below the default 20 ms VoIP period) the next given one."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def randbelow(self, n):
        return next(self.draws) if n == 20 * MS else 0


def test_voip_run_replays_one_unsplit_packet_per_period(monkeypatch):
    # a VoIP packet larger than packet_mtu still arrives whole
    draws = [0, 1, 7 * MS, 20 * MS - 1]
    stream = RngStreams.stream
    monkeypatch.setattr(RngStreams, "stream", lambda streams, label: (
        PhaseDraws(draws) if label == "phases" else stream(streams, label)))
    admitted = []
    on_arrival = Ue.on_arrival
    monkeypatch.setattr(Ue, "on_arrival", lambda ue, pkt: admitted.append(pkt)
                        or on_arrival(ue, pkt))
    cfg = SimConfig(ues_per_enb=len(draws), voip_bytes=300, packet_mtu=200,
                    duration_us=100 * MS, warmup_us=0)
    run_single(cfg, "baseline")
    assert {p.size_bytes for p in admitted} == {300}
    # the UE whose draw is p gets a packet at p, p + 20 ms, ...
    for ue_id, p in enumerate(draws, start=1):
        assert [pkt.ue_arrival for pkt in admitted if pkt.ue_id == ue_id] == list(
            range(p, cfg.duration_us + 1, 20 * MS))


def test_trace_validation():
    with pytest.raises(TrafficError):
        Trace([], 100)
    with pytest.raises(TrafficError):
        Trace([(0, 100), (0, 100)], 1000)        # offsets not increasing
    with pytest.raises(TrafficError):
        Trace([(0, 0)], 1000)                    # empty record
    with pytest.raises(TrafficError):
        Trace([(500, 10)], 400)                  # duration too short


def test_degenerate_trace_loops():
    sim = Simulator()
    ue = SinkUe()
    trace = Trace([(0, 1000)], 100 * MS)
    TraceSource(sim, itertools.count(), ue, trace, start_offset=0,
                mtu=1400).start()
    sim.run_until(1 * SEC - 1)
    assert len(ue.packets) == 10                 # 1000 B every 100 ms
    assert all(p.size_bytes == 1000 for p in ue.packets)


def test_trace_full_loops_byte_exact():
    sim = Simulator()
    ue = SinkUe()
    trace = Trace([(0, 500), (40 * MS, 700), (70 * MS, 300)], 100 * MS)
    TraceSource(sim, itertools.count(), ue, trace, start_offset=40 * MS,
                mtu=1400).start()
    sim.run_until(2 * SEC - 1)                   # 20 full loops
    assert sum(p.size_bytes for p in ue.packets) == 20 * trace.total_bytes()


def test_trace_start_offset_rotates_order():
    sim = Simulator()
    ue = SinkUe()
    trace = Trace([(0, 100), (50 * MS, 200)], 100 * MS)
    TraceSource(sim, itertools.count(), ue, trace, start_offset=50 * MS,
                mtu=1400).start()
    sim.run_until(120 * MS)
    assert [p.size_bytes for p in ue.packets[:3]] == [200, 100, 200]


def test_packetize_mtu():
    assert packetize(3000, 1400) == [1400, 1400, 200]
    assert packetize(1400, 1400) == [1400]
    assert packetize(60, 1400) == [60]


def test_trace_emission_packetizes():
    sim = Simulator()
    ue = SinkUe()
    trace = Trace([(0, 3000)], 50 * MS)
    TraceSource(sim, itertools.count(), ue, trace, 0, mtu=1400).start()
    sim.run_until(10 * MS)
    assert [p.size_bytes for p in ue.packets] == [1400, 1400, 200]


def test_synth_constant_when_burstiness_zero():
    trace = synth_video(1_292_000, 33 * MS, 0.0, seed=5, duration=4 * SEC)
    sizes = {b for _, b in trace.records}
    assert len(sizes) == 1


def test_synth_constant_when_burstiness_rounds_away():
    # 1 + 1e-9 ** 2 is 1.0: sigma 0, the constant trace of burstiness 0
    trace = synth_video(1_292_000, 33 * MS, 1e-9, seed=5, duration=4 * SEC)
    assert trace == synth_video(1_292_000, 33 * MS, 0.0, seed=5, duration=4 * SEC)


def test_synth_realized_bitrate_within_two_percent():
    target = 1_292_000.0
    trace = synth_video(target, 33 * MS, 0.5, seed=9, duration=10 * SEC)
    assert trace.mean_bitrate_bps() == pytest.approx(target, rel=0.02)


def test_synth_deterministic():
    a = synth_video(1_000_000, 33 * MS, 0.5, seed=3, duration=2 * SEC)
    b = synth_video(1_000_000, 33 * MS, 0.5, seed=3, duration=2 * SEC)
    assert a.records == b.records
    c = synth_video(1_000_000, 33 * MS, 0.5, seed=4, duration=2 * SEC)
    assert a.records != c.records


def test_synth_rejects_bad_parameters():
    with pytest.raises(TrafficError):
        synth_video(0, 33 * MS, 0.5, 1, SEC)
    with pytest.raises(TrafficError):
        synth_video(1e6, 33 * MS, -1.0, 1, SEC)


@pytest.mark.parametrize("rate_bps, burstiness, name", [
    # NaN used to pass both checks
    (math.nan, 0.5, "mean_bitrate_bps"), (math.inf, 0.5, "mean_bitrate_bps"),
    (1e6, math.nan, "burstiness"), (1e6, math.inf, "burstiness"),
])
def test_synth_rejects_non_finite_parameters(rate_bps, burstiness, name):
    with pytest.raises(TrafficError, match=f"^{name} = "):
        synth_video(rate_bps, 33 * MS, burstiness, 1, SEC)


def test_trace_file_round_trip(tmp_path):
    trace = synth_video(1_292_000, 33 * MS, 0.5, seed=7, duration=2 * SEC)
    path = tmp_path / "t.trace"
    write_trace(trace, str(path))
    back = read_trace(str(path))
    assert back.records == trace.records
    assert back.duration == trace.duration


def test_trace_file_errors(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("not a header\n0,100\n")
    with pytest.raises(TrafficError, match=":1:"):
        read_trace(str(bad))
    bad.write_text("#bwr-trace v1\n0,abc\n")
    with pytest.raises(TrafficError, match=":2:"):
        read_trace(str(bad))


def test_offered_load_scenario2_default():
    # 24 looping sources at the default per-UE rate: ~31 Mb/s aggregate
    from bwrsim.config import preset
    from bwrsim.runner import run_single
    cfg = preset("scenario2")
    run = run_single(cfg, "baseline")
    admitted = run.collector.counters.admitted_bytes
    offered_mbps = admitted * 8 / (cfg.duration_us / 1e6) / 1e6
    assert offered_mbps == pytest.approx(31.0, abs=1.0)
    assert offered_mbps / 39.0 == pytest.approx(0.80, abs=0.03)


def test_default_seed_gives_distinct_ue_phases(monkeypatch):
    from bwrsim.config import preset
    from bwrsim.runner import run_single
    cfg = replace(preset("scenario1"), duration_us=100 * MS, warmup_us=0)
    firsts = {}                     # each UE's first arrival
    on_arrival = Ue.on_arrival

    def record(ue, pkt):
        firsts.setdefault(ue.ue_id, ue.sim.now)
        on_arrival(ue, pkt)

    monkeypatch.setattr(Ue, "on_arrival", record)
    run = run_single(cfg, "baseline")
    assert sorted(firsts) == [ue.ue_id for ue in run.ues]
    assert len(set(firsts.values())) == 6
