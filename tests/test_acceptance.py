"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Scenario fixtures are shared across criteria, so the whole suite stays well
inside the per-run wall-time budget it asserts.
"""

import bisect
import time
from operator import attrgetter

import pytest

from bwrsim.bwr import BWR_FRAME_BYTES, BandwidthReport, decode_bwr, encode_bwr
from bwrsim.cli import main
from bwrsim.config import SimConfig, preset
from bwrsim.core import MS, SEC, Rng, RngStreams
from bwrsim.docsis import Cm, window_capacity_bytes
from bwrsim.lte import harq_grant_utilization
from bwrsim.metrics import summarize
from bwrsim.runner import paired_deltas, run_scenario, run_single

from run_checks import conservation_failures, map_overlaps, record_maps


def _criterion(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def scenario1_pair():
    cfg = preset("scenario1")
    t0 = time.monotonic()
    base = run_single(cfg, "baseline")
    bwr = run_single(cfg, "bwr")
    elapsed = time.monotonic() - t0
    return base, bwr, elapsed


@pytest.fixture(scope="module")
def scenario2_runs():
    """Five seeds in both modes, with every MAP each run's modem received."""
    runs, maps = {}, {}
    t0 = time.monotonic()
    with pytest.MonkeyPatch.context() as mp:
        seen = record_maps(Cm, mp.setattr)
        for seed in range(1, 6):
            cfg = preset("scenario2")
            cfg.seed = seed
            pair = []
            for mode in ("baseline", "bwr"):
                pair.append(run_single(cfg, mode))
                maps[seed, mode] = list(seen)
                seen.clear()
            runs[seed] = tuple(pair)
    elapsed = time.monotonic() - t0
    return runs, elapsed, maps


def test_c1_analytic_harq_utilization(capsys):
    main(["gutil", "4", "0.1"])
    printed = float(capsys.readouterr().out.strip())
    with capsys.disabled():
        _criterion("C1 analytic HARQ utilization",
                   abs(printed - 0.9482) <= 1e-4 and (1 - printed) < 0.06,
                   f"gutil(4, 0.1) prints {printed:.4f}, waste {1 - printed:.4f}")


class ForcedDraws:
    """A stream whose randbelow returns the given draws in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def randbelow(self, n):
        draw = next(self.draws)
        assert 0 <= draw < n
        return draw


def test_c2_lte_ladder_floor(capsys, monkeypatch):
    stream = RngStreams.stream
    latencies = []
    for phase_ms in range(5):
        for arrival in (0, 700, 2_500, 4_321, 11_111):
            # the one UE draws its SR phase (in subframes), then its arrival phase
            monkeypatch.setattr(RngStreams, "stream", lambda streams, label: (
                ForcedDraws([phase_ms, arrival]) if label == "phases"
                else stream(streams, label)))
            cfg = SimConfig(enb_count=1, ues_per_enb=1, traffic_case="voip",
                            harq_enabled=False, duration_us=80 * MS,
                            warmup_us=0, voip_period_us=60 * MS)
            run = run_single(cfg, "baseline")
            assert len(run.collector.samples) == 1
            latencies.append(list(run.collector.samples)[0].lte_us)
    ok = all(18_000 <= v <= 24_000 for v in latencies)
    with capsys.disabled():
        _criterion("C2 LTE ladder floor", ok,
                   f"25-point sr-phase sweep, lte-only in "
                   f"[{min(latencies) / 1000:.3f}, {max(latencies) / 1000:.3f}] ms")


def test_c3_scenario1_baseline_docsis(scenario1_pair, capsys):
    base, _, _ = scenario1_pair
    s = summarize(base.collector.retained(), "docsis")
    ok = 5.0 <= s.min_ms <= 5.4 and 6.0 <= s.max_ms <= 6.4
    with capsys.disabled():
        _criterion("C3 scenario-1 baseline DOCSIS-only", ok,
                   f"min {s.min_ms:.3f} avg {s.avg_ms:.3f} max {s.max_ms:.3f} ms "
                   f"(n={s.count})")


def test_c4_scenario1_bwr_docsis(scenario1_pair, capsys):
    _, bwr, _ = scenario1_pair
    s = summarize(bwr.collector.retained(), "docsis")
    ok = 1.0 <= s.min_ms <= 1.4 and 2.0 <= s.max_ms <= 2.4
    with capsys.disabled():
        _criterion("C4 scenario-1 BWR DOCSIS-only", ok,
                   f"min {s.min_ms:.3f} avg {s.avg_ms:.3f} max {s.max_ms:.3f} ms "
                   f"(n={s.count})")


def test_c5_constant_improvement(scenario1_pair, capsys):
    base, bwr, _ = scenario1_pair
    deltas = paired_deltas(base, bwr)
    exact = sum(1 for _, _, b, w in deltas if b - w == 4000)
    frac = exact / len(deltas)
    with capsys.disabled():
        _criterion("C5 constant 4 ms improvement", frac >= 0.99,
                   f"{exact}/{len(deltas)} paired packets at exactly 4.000 ms "
                   f"({frac * 100:.2f}%)")


def test_c6_bwr_overhead(capsys):
    results = []
    for period_ms, target_bps in ((2, 320_000), (1, 640_000)):
        cfg = preset("scenario1")
        cfg.ugs_period_us = period_ms * MS
        cfg.bwr_period_us = max(cfg.bwr_period_us, cfg.ugs_period_us)
        if period_ms == 1:
            cfg.bwr_period_us = MS
        # one report frame per unsolicited grant
        target = BWR_FRAME_BYTES * 8 * 1_000_000 / cfg.ugs_period_us
        assert target == target_bps
        run = run_single(cfg, "bwr")
        occ = run.ledger.occupancy_bps("ugs")
        results.append((period_ms, occ, abs(occ - target) / target))
    ok = all(err <= 0.01 for _, _, err in results)
    with capsys.disabled():
        _criterion("C6 report-carrier overhead", ok,
                   "; ".join(f"{p} ms period: {o / 1000:.2f} kbps "
                             f"(err {e * 100:.2f}%)" for p, o, e in results))


def _ecdf_dominates(winner, loser, segment="docsis"):
    value = attrgetter(f"{segment}_us")
    wv = sorted(map(value, winner))
    lv = sorted(map(value, loser))
    for x in sorted(set(wv) | set(lv)):
        if bisect.bisect_right(wv, x) / len(wv) < bisect.bisect_right(lv, x) / len(lv):
            return False
    return True


def test_c7_scenario2_properties(scenario2_runs, capsys):
    runs, elapsed, _ = scenario2_runs
    pooled_base, pooled_bwr = [], []
    mins, max_ratios, dominance = [], [], []
    for seed, (base, bwr) in runs.items():
        eb, ew = base.eut_samples(), bwr.eut_samples()
        pooled_base.extend(eb.docsis_us)
        pooled_bwr.extend(ew.docsis_us)
        sb, sw = summarize(eb, "docsis"), summarize(ew, "docsis")
        mins.append(sw.min_us)
        max_ratios.append(sw.max_us / sb.max_us)
        dominance.append(_ecdf_dominates(ew, eb))
    avg_ratio = ((sum(pooled_bwr) / len(pooled_bwr))
                 / (sum(pooled_base) / len(pooled_base)))
    min_ms = min(mins) / 1000
    a = avg_ratio <= 0.5
    b = max(max_ratios) <= 0.5
    c = 1.0 <= min_ms <= 1.4
    d = all(dominance)
    with capsys.disabled():
        _criterion("C7 scenario-2 loaded-upstream properties", a and b and c and d,
                   f"5 seeds: avg ratio {avg_ratio:.3f} (a<=0.5), "
                   f"worst max ratio {max(max_ratios):.3f} (b<=0.5), "
                   f"bwr min {min_ms:.3f} ms (c), "
                   f"cdf dominance {sum(dominance)}/5 (d); "
                   f"10 runs in {elapsed:.1f} s")


def test_c8_wasted_grant_convergence(capsys):
    cfg = preset("scenario1")
    cfg.duration_us = 80 * SEC                 # ~24k transport blocks
    run = run_single(cfg, "bwr")
    blocks = run.collector.tb_blocks
    util = run.collector.mean_tb_grant_utilization()
    target = 1 - harq_grant_utilization(4, 0.1)
    ok = blocks >= 10_000 and abs((1 - util) - target) <= 0.01
    with capsys.disabled():
        _criterion("C8 wasted-grant convergence", ok,
                   f"{blocks} blocks, wasted fraction {1 - util:.4f} vs "
                   f"closed form {target:.4f}")


def test_c9a_determinism(tmp_path, capsys):
    reports, events, csvs = [], [], []
    for tag in ("a", "b"):
        cfg = preset("scenario1")
        cfg.mode = "both"
        out = tmp_path / tag
        rep = run_scenario(cfg, str(out))
        # the emitted csv paths differ by construction; drop that line
        reports.append("\n".join(line for line in rep.render().splitlines()
                                 if not line.startswith("csv: ")))
        events.append([run.sim.events_processed for run in rep.runs])
        csvs.append((out / "samples_baseline.csv").read_bytes()
                    + (out / "samples_bwr.csv").read_bytes()
                    + (out / "deltas.csv").read_bytes())
    ok = reports[0] == reports[1] and events[0] == events[1] and csvs[0] == csvs[1]
    with capsys.disabled():
        _criterion("C9a re-run determinism", ok,
                   f"reports ({len(reports[0])} B), event counts {events[0]}, "
                   f"and CSVs byte-identical")


def test_c9b_segment_additivity(scenario1_pair, scenario2_runs, capsys):
    checked = 0
    bad = 0
    for run in [scenario1_pair[0], scenario1_pair[1],
                *[r for pair in scenario2_runs[0].values() for r in pair]]:
        for s in run.collector.samples:
            checked += 1
            if s.e2e_us != s.lte_us + s.docsis_us or s.lte_us < 0 or s.docsis_us < 0:
                bad += 1
    with capsys.disabled():
        _criterion("C9b segment additivity", bad == 0,
                   f"{checked} samples, {bad} violations")


def test_c9c_byte_conservation(scenario1_pair, scenario2_runs, capsys):
    failures = []
    for run in [scenario1_pair[0], scenario1_pair[1],
                *[r for pair in scenario2_runs[0].values() for r in pair]]:
        failures += conservation_failures(run)
    with capsys.disabled():
        _criterion("C9c byte conservation", not failures,
                   f"12 ledgers checked, {len(failures)} violations")


def test_c9d_map_non_overcommitment(scenario2_runs, capsys):
    runs, _, maps = scenario2_runs
    worst = 0.0
    windows = 0
    overlapping = 0
    for seed, (base, bwr) in runs.items():
        for run in (base, bwr):
            cap = window_capacity_bytes(run.cfg)
            for m in maps[seed, run.mode]:
                windows += 1
                worst = max(worst, m.granted_bytes() / cap)
                overlapping += map_overlaps(m)
    overlaps = (f"{overlapping} MAPs with channel overlaps" if overlapping
                else "no channel overlaps")
    with capsys.disabled():
        _criterion("C9d MAP non-overcommitment", worst <= 1.0 and not overlapping,
                   f"{windows} windows, worst fill {worst * 100:.1f}% of capacity, "
                   f"{overlaps}")


def test_c9e_codec_round_trip(capsys):
    rng = Rng(1234)
    bad = 0
    n = 10_000
    for _ in range(n):
        r = BandwidthReport(
            rng.randbelow(1 << 16), rng.randbelow(1 << 16),
            rng.randbelow(1 << 40),
            tuple((g, rng.randbelow(1 << 32)) for g in range(4)),
            rng.randbelow(2))
        if decode_bwr(encode_bwr(r)) != r:
            bad += 1
    with capsys.disabled():
        _criterion("C9e codec round-trip", bad == 0,
                   f"{n} randomized frames, {bad} mismatches")


def test_c9f_backoff_truncation(capsys):
    # sustained forced contention: windows must stay within the cap
    from bwrsim.docsis import BE, ChannelLedger, Cm, Cmts, ServiceFlow
    from bwrsim.core import Simulator, PRIO_SCHED
    from bwrsim.metrics import Collector
    sim = Simulator()
    cfg = SimConfig()
    cmts = Cmts(sim, cfg, ChannelLedger(10 * MS), Collector("baseline"))
    cm = Cm(sim, cmts, cfg, Collector("baseline"), Rng(8))
    flows = [ServiceFlow(f"f{i}", BE, owner_enb=i) for i in range(1, 13)]
    for f in flows:
        cm.add_flow(f)
    sim.schedule_at(0, PRIO_SCHED, cmts.map_cycle)
    sim.run_until(10 * MS)
    overflow = False
    for region in range(6, 300):
        for f in flows:
            if f.req is None:
                f.uncovered_bytes = 60
                f.req = region * 8 + cm.rng.randbelow(8)
        cm.resolve_region(region)
        overflow |= any(f.backoff_window > cfg.backoff_max for f in flows)
    with capsys.disabled():
        _criterion("C9f backoff truncation", not overflow,
                   f"294 contention rounds with 12 flows, windows within "
                   f"[{cfg.backoff_init}, {cfg.backoff_max}]")


def test_scenario_wall_time(scenario1_pair, capsys):
    _, _, elapsed = scenario1_pair
    per_run = elapsed / 2
    with capsys.disabled():
        _criterion("scenario wall time", per_run < 10.0,
                   f"2 simulated seconds in {per_run:.2f} s per run")
