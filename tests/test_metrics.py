import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwrsim.core import SEC, Simulator
from bwrsim.config import SimConfig
from bwrsim.docsis import ChannelLedger, Cmts
from bwrsim.lte import LteError, Packet
from bwrsim.metrics import (Collector, LatencySample, MetricsError,
                            bwr_overhead_bps, cdf, grant_utilization,
                            summarize, write_cdf_csv, write_samples_csv)


def sample(pid=0, e2e=11_445, lte=6_200, docsis=5_245, arrival=0):
    return LatencySample(pid, 1, 1, "voip", "baseline", arrival, e2e, lte, docsis)


def samples_us(values, segment="docsis"):
    out = []
    for i, v in enumerate(values):
        kw = {"e2e": v + 1000, "lte": 1000, "docsis": v}
        out.append(sample(i, kw["e2e"], kw["lte"], kw["docsis"]))
    return out


def test_summary_arithmetic():
    s = summarize(samples_us([5200, 5950, 6200]), "docsis")
    assert s.min_us == 5200 and s.max_us == 6200
    assert s.avg_us == pytest.approx((5200 + 5950 + 6200) / 3)
    assert s.avg_ms == pytest.approx(5.783333, abs=1e-4)


def test_summary_single_sample():
    s = summarize(samples_us([777]), "docsis")
    assert s.min_us == s.max_us == s.avg_us == 777


def test_summary_empty_errors():
    with pytest.raises(MetricsError):
        summarize([], "docsis")
    with pytest.raises(MetricsError):
        summarize(samples_us([1]), "bogus")


def test_cdf_basic():
    pts = cdf(samples_us([1000, 2000, 3000]), "docsis")
    assert pts == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
                   (3.0, pytest.approx(1.0))]


def test_cdf_all_equal_single_step():
    pts = cdf(samples_us([5000, 5000, 5000]), "docsis")
    assert pts == [(5.0, 1.0)]


def test_cdf_endpoints_match_summary():
    vals = [3100, 900, 4400, 900, 2750]
    s = summarize(samples_us(vals), "docsis")
    pts = cdf(samples_us(vals), "docsis")
    assert pts[0][0] == s.min_ms
    assert pts[-1][0] == s.max_ms
    assert pts[-1][1] == 1.0


# microsecond values; a narrow range draws duplicates often
US_LISTS = st.lists(st.integers(min_value=0, max_value=60), min_size=1,
                    max_size=40).map(lambda xs: [x * 250 for x in xs])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values=US_LISTS)
@example(values=[777])
@example(values=[3000, 1000, 3000, 2000, 1000])
def test_summarize_matches_reference(values):
    s = summarize(samples_us(values), "docsis")
    assert (s.min_us, s.avg_us, s.max_us, s.count) == (
        min(values), sum(values) / len(values), max(values), len(values))


def reference_cdf(values):
    n = len(values)
    return [(v / 1000, sum(1 for x in values if x <= v) / n)
            for v in sorted(set(values))]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values=US_LISTS)
@example(values=[777])
@example(values=[3000, 1000, 3000, 2000, 1000])
def test_cdf_matches_reference(values):
    pts = cdf(samples_us(values), "docsis")
    assert pts == reference_cdf(values)   # exact floats, one point per distinct value
    assert len(pts) == len(set(values))
    assert pts[-1][1] == 1.0
    # each segment reads its own field (e2e is docsis + 1000 us here)
    assert cdf(samples_us(values), "e2e") == reference_cdf([v + 1000 for v in values])


def test_cdf_empty_errors():
    with pytest.raises(MetricsError):
        cdf([], "docsis")


def test_segment_additivity_enforced():
    collector = Collector("baseline")
    p = Packet(1, 1, 1, 60, 1, "voip")
    p.ue_arrival, p.cm_arrival, p.cmts_egress = 0, 20_000, 25_245
    collector.record_egress(p)
    s = collector.samples[0]
    assert s.e2e_us == s.lte_us + s.docsis_us


def test_duplicate_packet_rejected():
    # a second egress fails on the stage stamp, before the collector sees it
    collector = Collector("baseline")
    cmts = Cmts(Simulator(), SimConfig(), ChannelLedger(SEC), collector)
    p = Packet(1, 1, 1, 60, 1, "voip")
    p.ue_arrival, p.cm_arrival = 0, 20_000
    cmts.on_packet_egress(p, 25_245)
    with pytest.raises(LteError):
        cmts.on_packet_egress(p, 25_245)
    assert len(collector.samples) == collector.counters["egressed_packets"] == 1


def test_dropped_packet_not_sampled():
    collector = Collector("baseline")
    p = Packet(1, 1, 1, 60, 1, "voip")
    p.ue_arrival, p.cm_arrival, p.cmts_egress = 0, 20_000, 25_245
    p.dropped = True
    collector.record_egress(p)
    assert collector.samples == []


def test_warmup_exclusion():
    # every egress is counted; only packets arriving after the warm-up are kept
    collector = Collector("baseline", warmup_us=100_000)
    for arrival in (0, 99_999, 100_000, 150_000):
        p = Packet(arrival, 1, 1, 60, 1, "voip")
        p.ue_arrival, p.cm_arrival, p.cmts_egress = arrival, arrival + 1, arrival + 2
        collector.record_egress(p)
    assert [s.arrival_us for s in collector.retained()] == [100_000, 150_000]
    assert collector.retained() is collector.samples
    assert collector.counters["egressed_packets"] == 4


def test_grant_utilization_values():
    assert grant_utilization(0, 0) == 1.0
    assert grant_utilization(100, 80) == pytest.approx(0.8)
    with pytest.raises(MetricsError):
        grant_utilization(10, 20)


def test_overhead_values():
    assert bwr_overhead_bps(80, 1000) == pytest.approx(640_000)
    assert bwr_overhead_bps(80, 2000) == pytest.approx(320_000)
    with pytest.raises(MetricsError):
        bwr_overhead_bps(80, 0)


def test_mean_tb_utilization():
    collector = Collector("bwr")
    collector.record_tb(attempts=1, success=True)
    collector.record_tb(attempts=2, success=True)
    collector.record_tb(attempts=5, success=False)
    assert collector.mean_tb_grant_utilization() == pytest.approx((1.0 + 0.5 + 0.0) / 3)
    with pytest.raises(MetricsError):
        Collector("bwr").mean_tb_grant_utilization()


def test_csv_outputs(tmp_path):
    rows = samples_us([5200, 6200])
    spath = tmp_path / "samples.csv"
    write_samples_csv(str(spath), rows)
    text = spath.read_text().splitlines()
    assert text[0] == "packet_id,ue,enb,class,mode,e2e_ms,lte_ms,docsis_ms"
    assert text[1] == "0,1,1,voip,baseline,6.200,1.000,5.200"
    cpath = tmp_path / "cdf.csv"
    write_cdf_csv(str(cpath), cdf(rows, "docsis"))
    lines = cpath.read_text().splitlines()
    assert lines[0] == "latency_ms,cum_frac"
    assert lines[1] == "5.200,0.500000"
