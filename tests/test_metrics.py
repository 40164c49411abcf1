import gc
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwrsim.core import Simulator
from bwrsim.config import SimConfig
from bwrsim.docsis import Cmts
from bwrsim.lte import LteError, Packet
from bwrsim.metrics import (Collector, Counters, MetricsError, cdf,
                            grant_utilization, segment_columns, summarize,
                            write_cdf_csv, write_samples_csv)

from egress import record


def samples_us(values):
    """A store of one sample per value: docsis-only us, 1 ms lte-only."""
    collector = Collector("baseline")
    for pid, v in enumerate(values):
        record(collector, pid, lte=1000, docsis=v)
    return collector.retained()


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
        summarize(samples_us([]), "docsis")
    with pytest.raises(MetricsError):
        summarize(samples_us([1]), "bogus")


def test_cdf_basic():
    pts = list(cdf(samples_us([1000, 2000, 3000]), "docsis"))
    assert pts == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)),
                   (3.0, pytest.approx(1.0))]


def test_cdf_all_equal_single_step():
    pts = list(cdf(samples_us([5000, 5000, 5000]), "docsis"))
    assert pts == [(5.0, 1.0)]


def test_cdf_endpoints_match_summary():
    vals = [3100, 900, 4400, 900, 2750]
    s = summarize(samples_us(vals), "docsis")
    pts = list(cdf(samples_us(vals), "docsis"))
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
    pts = list(cdf(samples_us(values), "docsis"))
    assert pts == reference_cdf(values)   # exact floats, one point per distinct value
    assert len(pts) == len(set(values))
    assert pts[-1][1] == 1.0
    # each segment reads its own field (e2e is docsis + 1000 us here)
    assert list(cdf(samples_us(values), "e2e")) == reference_cdf([v + 1000 for v in values])


def test_cdf_empty_errors():
    with pytest.raises(MetricsError):
        cdf(samples_us([]), "docsis")


def test_segment_additivity_enforced():
    collector = Collector("baseline")
    p = Packet(1, 1, 1, 60)
    p.ue_arrival, p.cm_arrival, p.cmts_egress = 0, 20_000, 25_245
    collector.record_egress(p)
    [s] = collector.retained()
    assert s.e2e_us == s.lte_us + s.docsis_us


def test_duplicate_packet_rejected():
    # a second egress fails on the stage stamp, before the collector sees it
    collector = Collector("baseline")
    cmts = Cmts(Simulator(), SimConfig(), collector, False)
    p = Packet(1, 1, 1, 60)
    p.ue_arrival, p.cm_arrival = 0, 20_000
    cmts.on_packet_egress(p, 25_245)
    with pytest.raises(LteError):
        cmts.on_packet_egress(p, 25_245)
    assert len(collector.samples) == collector.counters.egressed_packets == 1


def test_counters_are_declared_fields():
    # a count is an attribute update; a name that is not declared raises on
    # update and on get, so a misspelt counter cannot start a new one
    c = Counters()
    c.admitted_bytes += 60
    assert c.get("admitted_bytes") == c.get("admitted_bytes", 0) == 60
    assert c.get("req_collisions") == 0
    with pytest.raises(AttributeError):
        c.typo += 1
    with pytest.raises(AttributeError):
        c.get("typo")
    with pytest.raises(AttributeError):
        c.get("typo", 0)
    assert c == Counters(admitted_bytes=60)


def test_dropped_packet_not_sampled():
    collector = Collector("baseline")
    p = Packet(1, 1, 1, 60)
    p.ue_arrival, p.cm_arrival, p.cmts_egress = 0, 20_000, 25_245
    p.dropped = True
    collector.record_egress(p)
    assert list(collector.retained()) == []


def test_warmup_exclusion():
    # every egress is counted; only packets arriving after the warm-up are
    # kept (each packet's id here is its arrival time)
    collector = Collector("baseline", warmup_us=100_000)
    for arrival in (0, 99_999, 100_000, 150_000):
        p = Packet(arrival, 1, 1, 60)
        p.ue_arrival, p.cm_arrival, p.cmts_egress = arrival, arrival + 1, arrival + 2
        collector.record_egress(p)
    retained = collector.retained()
    assert [s.packet_id for s in retained] == [100_000, 150_000]
    assert collector.counters.egressed_packets == 4
    # the collector's own store, not a copy: a later egress shows in it
    record(collector, 4, lte=1, docsis=1, arrival=200_000)
    assert list(retained.packet_id) == [100_000, 150_000, 4]


def test_grant_utilization_values():
    assert grant_utilization(0, 0) == 1.0
    assert grant_utilization(100, 80) == pytest.approx(0.8)
    with pytest.raises(MetricsError):
        grant_utilization(10, 20)


def _reachable(obj) -> int:
    """How many objects the garbage collector reaches from obj, types aside."""
    seen, stack = {}, [obj]
    while stack:
        o = stack.pop()
        if id(o) not in seen and not isinstance(o, type):
            seen[id(o)] = o
            stack.extend(gc.get_referents(o))
    return len(seen)


def _egress_many(collector, first, n):
    for pid in range(first, first + n):
        record(collector, pid, ue=pid % 24, enb=pid % 4 + 1, arrival=pid * 997,
               lte=20_000 + pid % 7_000, docsis=5_000 + pid % 11_000)


def test_a_retained_sample_costs_under_80_bytes():
    collector = Collector("baseline")
    _egress_many(collector, 0, 1)         # the first sample sets up the store
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _egress_many(collector, 1, 10_000)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(collector.retained()) == 10_001
    assert grown / 10_000 <= 80


def test_the_sample_store_holds_no_object_per_sample():
    stores = []
    for n in (10, 10_000):
        collector = Collector("baseline")
        _egress_many(collector, 0, n)
        stores.append(collector.retained())
    assert [len(s) for s in stores] == [10, 10_000]
    assert _reachable(stores[0]) == _reachable(stores[1])


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
    write_samples_csv(str(spath), rows, segment_columns(rows)["e2e"], "voip")
    text = spath.read_text().splitlines()
    assert text[0] == "packet_id,ue,enb,class,mode,e2e_ms,lte_ms,docsis_ms"
    assert text[1] == "0,1,1,voip,baseline,6.200,1.000,5.200"
    assert spath.read_bytes().endswith(b"5.200\r\n1,1,1,voip,baseline,7.200,1.000,6.200\r\n")
    cpath = tmp_path / "cdf.csv"
    write_cdf_csv(str(cpath), cdf(rows, "docsis"))
    lines = cpath.read_text().splitlines()
    assert lines[0] == "latency_ms,cum_frac"
    assert lines[1] == "5.200,0.500000"
