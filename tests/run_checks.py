"""What a correct run is: the checks that every test of whole runs shares.

They are the benchmark's correctness gate (`check_outputs` in bench/child.py)
stated once for the tests, plus the row-based reference of the columnar
result processing and of the CSV writers (`csv.writer` over LatencySample
rows). Each `*_failures` check returns a list of failures, empty when the run
passes. `outcome` is what a run gives that a fast path and its slow twin
must agree on. `map_overlaps` checks one MAP, `record_maps` collects the
MAPs a modem receives for such checks, and `placing_maps` states the ones
that carry a non-UGS grant in comparable form. `report_path_failures` checks that the
report path conserves the bytes that `record_announced` sees announced.
`reference_fill` is the slow twin of MAP window placement (`docsis._fill`),
`scan_every_ue` that of the eNB's ready set (`Enb.on_subframe`),
`filter_every_entry` that of the report build (`BwrEmitter.build`),
`EAGER_CHANNEL` the patches that draw every channel tick and read the channel
on every grant, and `EVENTED_UGS` the patches that restore evented UGS grants
and a MAP cycle that never sleeps.
"""

import csv
import itertools
import os
import tempfile
from operator import attrgetter

from bwrsim import lte
from bwrsim.bwr import BandwidthReport, BwrCodecError, BwrEmitter, decode_bwr
from bwrsim.core import PRIO_SERVICE
from bwrsim.docsis import UGS, Cm, Cmts, serialization_us
from bwrsim.lte import HARQ_PROCESSES, SUBFRAME_US, Channel, draw_mcs, tbs_bytes
from bwrsim.metrics import SEGMENTS, Summary, cdf, summarize
from bwrsim.runner import _table_header, _table_row, write_csvs


def conservation_failures(run) -> list[str]:
    """Bytes are neither made nor lost on either side of the CM."""
    c = run.conservation()
    fails = []
    if c["admitted"] != (c["ue_buffered"] + c["lte_inflight"]
                         + c["lte_egressed"] + c["harq_dropped"]):
        fails.append(f"{run.mode}: LTE byte conservation {c}")
    if c["lte_egressed"] != c["cm_queued"] + c["docsis_sent"]:
        fails.append(f"{run.mode}: DOCSIS byte conservation {c}")
    return fails


def lte_ledger_failures(run) -> list[str]:
    """No UE ends a run with negative demand or granted bytes: a grant's
    bytes leave `granted` once, when the grant fires. A UE is in its eNB's
    ready set exactly when it has demand."""
    fails = []
    bad = [ue.ue_id for ue in run.ues if ue.demand < 0 or ue.granted < 0]
    if bad:
        fails.append(f"{run.mode}: negative LTE demand or granted bytes on ues {bad}")
    stray = [ue.ue_id for ue in run.ues if (ue in ue.enb.ready) != (ue.demand > 0)]
    if stray:
        fails.append(f"{run.mode}: ready set disagrees with the demand of ues {stray}")
    return fails


def record_announced(patch) -> list[int]:
    """Wrap `BwrEmitter.note_grant` with `patch`, a monkeypatch's setattr, so
    that the bytes of every grant an emitter announces are appended to the
    returned list."""
    announced = []
    note_grant = BwrEmitter.note_grant

    def record(emitter, nbytes, egress_time):
        announced.append(nbytes)
        note_grant(emitter, nbytes, egress_time)

    patch(BwrEmitter, "note_grant", record)
    return announced


def report_path_failures(run, announced: int, maps) -> list[str]:
    """The report path conserves bytes: the bytes a bwr run's emitter
    announced equal the report-grant bytes of the MAPs its modem got (grants
    that start after the run's end included), the entries not yet built, the
    frames queued at the modem, the frames in flight to the CMTS (their
    `Cmts.on_bwr_frame` events still in the heap), and the report demand the
    CMTS holds. `maps` may hold a baseline run's MAPs too: they carry no
    report grant."""
    emitter = next(ue.enb.bwr_emitter for ue in run.ues
                   if ue.enb.bwr_emitter is not None)
    on_bwr_frame = run.cmts.on_bwr_frame
    parts = {
        "granted": sum(g.nbytes for m in maps for g in m.grants if g.kind == "bwr"),
        "unbuilt": sum(nbytes for _, nbytes in emitter.entries),
        "queued": sum(decode_bwr(frame).total_bytes() for frame in run.cm.report_frames),
        "in_flight": sum(decode_bwr(args[0]).total_bytes()
                         for *_, fn, args in run.sim._heap if fn == on_bwr_frame),
        "pending": sum(entry[4] for entry in run.cmts.demand if entry[5] == "bwr"),
    }
    residual = announced - sum(parts.values())
    if residual:
        return [f"{run.mode}: {announced} B announced, {residual} B unaccounted "
                f"for by {parts}"]
    return []


def outcome(run) -> tuple:
    """What a run gives that a fast path must not change: its retained
    samples (row by row), counters and transport-block totals."""
    c = run.collector
    return list(c.retained()), c.counters, c.tb_blocks, c.tb_carried


def lte_pairs(base, bwr) -> list[tuple[int, int]]:
    """(baseline, bwr) LTE-only latency of each packet retained in both modes."""
    lte_base = {s.packet_id: s.lte_us for s in base.collector.retained()}
    return [(lte_base[s.packet_id], s.lte_us) for s in bwr.collector.retained()
            if s.packet_id in lte_base]


def cross_mode_failures(base, bwr) -> list[str]:
    """Reports change only the DOCSIS side: a packet retained in both modes
    has the same LTE-only latency."""
    paired = lte_pairs(base, bwr)
    mismatched = sum(b != w for b, w in paired)
    if mismatched:
        return [f"cross-mode: {mismatched}/{len(paired)} packets differ in "
                f"LTE-only latency"]
    return []


def reference_summary(rows, segment) -> Summary:
    """`summarize` over LatencySample rows, one Python object per sample."""
    values = list(map(attrgetter(f"{segment}_us"), rows))
    return Summary(min(values), sum(values) / len(values), max(values), len(values))


def reference_cdf(rows, segment) -> list[tuple[float, float]]:
    """`cdf` over LatencySample rows."""
    values = sorted(map(attrgetter(f"{segment}_us"), rows))
    n = len(values)
    nexts = values[1:]
    nexts.append(None)
    return [(v / 1000, i / n)
            for i, v, nxt in zip(itertools.count(1), values, nexts) if v != nxt]


def reference_deltas(base_rows, bwr_rows, traffic_class) -> list[tuple]:
    """`paired_deltas` as a dict join on packet id over LatencySample rows;
    every packet has the run's traffic_class."""
    base_by_id = {s.packet_id: s.docsis_us for s in base_rows}
    return [(s.packet_id, traffic_class, base_by_id[s.packet_id], s.docsis_us)
            for s in bwr_rows if s.packet_id in base_by_id]


def columnar_failures(report) -> list[str]:
    """The summaries, per-eNB selections, CDFs and paired deltas taken from
    the sample columns equal their row-based references."""
    fails = []
    rows_of = []
    for run in report.runs:
        store = run.collector.retained()
        rows = list(store)
        rows_of.append(rows)
        for enb_id in range(1, report.cfg.enb_count + 1):
            if list(store.select(enb_id)) != [s for s in rows if s.enb_id == enb_id]:
                fails.append(f"{run.mode}: samples of enb{enb_id} differ")
        if not rows:
            continue
        for segment in SEGMENTS:
            if summarize(store, segment) != reference_summary(rows, segment):
                fails.append(f"{run.mode}: {segment} summary differs")
            if list(cdf(store, segment)) != reference_cdf(rows, segment):
                fails.append(f"{run.mode}: {segment} CDF differs")
    if list(report.deltas) != reference_deltas(*rows_of, report.cfg.traffic_case):
        fails.append("paired deltas differ from the join on packet id")
    return fails


def reference_table(report) -> list[str]:
    """The summary rows of `RunReport.render`, each eNB's from its own rows."""
    lines = []
    for run in report.runs:
        rows = list(run.collector.retained())
        groups = [(run.mode, rows)]
        if report.cfg.enb_count > 1:
            groups += [(f"  enb{enb_id}{' eut' if enb_id == report.cfg.eut_enb else ''}",
                        [s for s in rows if s.enb_id == enb_id])
                       for enb_id in range(1, report.cfg.enb_count + 1)]
        for label, group in groups:
            lines.append(_table_row(label, {
                segment: list(map(attrgetter(f"{segment}_us"), group))
                for segment in SEGMENTS}))
    return lines


def table_failures(report) -> list[str]:
    """The rendered summary table equals its row-based reference."""
    lines = report.text.splitlines()
    start = lines.index(_table_header()) + 1
    expected = reference_table(report)
    if lines[start:start + len(expected)] != expected:
        return ["report table differs from its row-based reference"]
    return []


def reference_write_csvs(report, out_dir: str) -> None:
    """`runner.write_csvs` row by row: csv.writer over LatencySample rows, the
    reference CDFs and the reference join."""
    klass = report.cfg.traffic_case
    rows_of = []
    for run in report.runs:
        rows = list(run.collector.retained())
        rows_of.append(rows)
        path = os.path.join(out_dir, f"samples_{run.mode}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["packet_id", "ue", "enb", "class", "mode",
                        "e2e_ms", "lte_ms", "docsis_ms"])
            for s in rows:
                w.writerow([s.packet_id, s.ue_id, s.enb_id, klass, s.mode,
                            f"{s.e2e_us / 1000:.3f}", f"{s.lte_us / 1000:.3f}",
                            f"{s.docsis_us / 1000:.3f}"])
        if not rows:
            continue
        for segment in ("docsis", "e2e"):
            path = os.path.join(out_dir, f"cdf_{segment}_{run.mode}.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["latency_ms", "cum_frac"])
                for value_ms, frac in reference_cdf(rows, segment):
                    w.writerow([f"{value_ms:.3f}", f"{frac:.6f}"])
    deltas = reference_deltas(*rows_of, klass) if len(rows_of) == 2 else []
    if deltas:
        path = os.path.join(out_dir, "deltas.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["packet_id", "class", "baseline_docsis_ms",
                        "bwr_docsis_ms", "delta_ms"])
            for pid, klass, b, v in deltas:
                w.writerow([pid, klass, f"{b / 1000:.3f}", f"{v / 1000:.3f}",
                            f"{(b - v) / 1000:.3f}"])


def csv_failures(report) -> list[str]:
    """`runner.write_csvs` writes the same files, byte for byte, as its
    reference twin."""
    with tempfile.TemporaryDirectory() as tmp:
        fast, ref = os.path.join(tmp, "fast"), os.path.join(tmp, "ref")
        os.mkdir(fast)
        os.mkdir(ref)
        written = sorted(map(os.path.basename, write_csvs(report, fast)))
        reference_write_csvs(report, ref)
        names = sorted(os.listdir(ref))
        if written != names or sorted(os.listdir(fast)) != names:
            return [f"CSV files {written} differ from the reference's {names}"]
        fails = []
        for name in names:
            with open(os.path.join(fast, name), "rb") as a, \
                    open(os.path.join(ref, name), "rb") as b:
                if a.read() != b.read():
                    fails.append(f"{name} differs from its reference")
        return fails


def report_failures(report) -> list[str]:
    """Every check above on a baseline+bwr report."""
    base, bwr = report.runs
    return (conservation_failures(base) + conservation_failures(bwr)
            + lte_ledger_failures(base) + lte_ledger_failures(bwr)
            + cross_mode_failures(base, bwr) + columnar_failures(report)
            + table_failures(report) + csv_failures(report))


def map_overlaps(m) -> bool:
    """True when a MAP's reservations overlap or leave its window. Windows
    are disjoint, so no MAP doing so means no channel overlap at all."""
    spans = sorted([(m.window_start, m.window_start + m.region_duration)]
                   + [(g.start, g.start + g.duration) for g in m.grants])
    ends = [m.window_start] + [e for _, e in spans]
    return any(s < e for (s, _), e in zip(spans, ends)) or ends[-1] > m.window_end


def record_maps(target, patch=setattr) -> list:
    """Wrap `on_map` of one modem or of the Cm class so that every MAP it
    receives is also appended to the returned list. Patch the class with a
    monkeypatch's setattr as `patch`, so that the wrapper goes when the test
    ends."""
    maps = []
    on_map = target.on_map

    def record(*args):              # (msg) on a modem, (cm, msg) on the class
        maps.append(args[-1])
        on_map(*args)

    patch(target, "on_map", record)
    return maps


def placing_maps(maps) -> list:
    """The window and grants of every MAP that carries a non-UGS grant. A MAP
    cycle kept awake also sends MAPs that carry UGS grants alone, or none,
    which these leave out."""
    return [(m.window_start, [(g.flow and g.flow.enb_id, g.kind, g.start, g.duration,
                               g.nbytes) for g in m.grants])
            for m in maps if any(g.kind != UGS for g in m.grants)]


def emit_every_grant(cmts, msg, grant) -> None:
    """`Cmts._emit_grant` with evented UGS grants: every grant of every MAP,
    UGS grants included, is scheduled through `Cm.on_grant`."""
    msg.grants.append(grant)
    cmts.sim.schedule_at(grant.start, PRIO_SERVICE, cmts.cm.on_grant, grant,
                         cmts.grants_emitted)
    cmts.grants_emitted += 1


# The twin of UGS grants booked on demand: a MAP every interval, each UGS
# grant of each MAP an event whether or not it carries a frame, no booking,
# and no count of idle grants after the run (each counts as it fires).
EVENTED_UGS = {
    (Cmts, "idle"): lambda cmts: False,
    (Cmts, "_emit_grant"): emit_every_grant,
    (Cm, "_book_ugs"): lambda cm, t: None,
    (Cm, "settle_ugs_grants"): lambda cm: None,
}


def restore_evented_ugs(patch) -> None:
    """Apply EVENTED_UGS with `patch`, a monkeypatch's setattr."""
    for (cls, name), twin in EVENTED_UGS.items():
        patch(cls, name, twin)


def draw_every_tick(channel, t: int) -> None:
    """`Channel.draw` without skipping: each tick from the first not drawn
    to the one that holds t draws its normals, one UE at a time."""
    last = t // channel.period
    for _ in range(channel.ticks, last + 1):
        for ue in channel.ues:
            ue.tbs = tbs_bytes(draw_mcs(channel.mean, channel.sigma, channel.rng))
    channel.ticks = last + 1
    channel.tick_end = channel.ticks * channel.period


# The eager channel: every grant reads it (no demand is at or below a
# threshold of 0), and every tick up to the one read is drawn.
EAGER_CHANNEL = {
    (lte, "TBS_MIN"): 0,
    (Channel, "draw"): draw_every_tick,
}


def scan_every_ue(enb) -> None:
    """`Enb.on_subframe` without the ready set: every tick walks the UEs in
    round-robin order and sums each one's demand."""
    t = enb.sim.now
    ues = enb.ues
    n = len(ues)
    served = None
    for step in range(1, n + 1):
        idx = (enb.rr_index + step) % n
        ue = ues[idx]
        if ue.demand <= 0:
            continue
        if enb.cfg.harq_enabled:
            pid = ((t + enb.cfg.grant_to_data_us) // SUBFRAME_US) % HARQ_PROCESSES
            if pid in ue.harq:
                continue
        served = idx
        enb._issue_data_grant(ue, t)
        break
    if served is not None:
        enb.rr_index = served
    if enb.bwr_emitter is not None:
        enb.bwr_emitter.on_subframe(t)


def filter_every_entry(emitter, t: int):
    """`BwrEmitter.build` without the egress order: every build filters every
    entry, twice, and takes the due ones' extremes afresh."""
    due = [e for e in emitter.entries if e[0] <= t + emitter.report_lead]
    if not due:
        return None
    emitter.entries = [e for e in emitter.entries if e[0] > t + emitter.report_lead]
    first, egress = min(e for e, _ in due), max(e for e, _ in due)
    if first <= t:
        raise BwrCodecError(f"egress_time {first} not in the future at {t}")
    blocks = tuple((g, sum(nbytes for _, nbytes in due) if g == 0 else 0) for g in range(4))
    report = BandwidthReport(emitter.enb_id, emitter.sequence, egress, blocks)
    emitter.sequence = (emitter.sequence + 1) & 0xFFFF
    emitter.collector.counters.bwr_reports_built += 1
    emitter.forward(report)
    return report


def reference_fill(gaps, min_start, nbytes, bps) -> list[tuple[int, int, int]]:
    """`docsis._fill` over the window's reserved spans: the window runs from
    its first gap's start to its last gap's end, and the time between two
    gaps is reserved. Each call works out the free time afresh from the
    spans, and each piece joins them and re-sorts them; gaps then become the
    time the spans leave."""
    if not gaps:
        return []
    start, end = gaps[0][0], gaps[-1][1]
    occupied = [(e, s) for (_, e), (s, _) in zip(gaps, gaps[1:])]
    pieces = []
    cursor = max(start, min_start)
    remaining = nbytes
    idx = 0
    while remaining > 0 and cursor < end:
        while idx < len(occupied) and occupied[idx][1] <= cursor:
            idx += 1
        gap_end = occupied[idx][0] if idx < len(occupied) and occupied[idx][0] > cursor else None
        if gap_end is None and idx < len(occupied):
            cursor = occupied[idx][1]
            continue
        gap_end = min(gap_end if gap_end is not None else end, end)
        fit = min(remaining, (gap_end - cursor) * bps // 8_000_000)
        if fit > 0:
            dur = serialization_us(fit, bps)
            occupied.append((cursor, cursor + dur))
            occupied.sort()
            pieces.append((cursor, dur, fit))
            remaining -= fit
            cursor += dur
        else:
            cursor = gap_end
    free = start
    gaps.clear()
    for s, e in occupied:
        if s > free:
            gaps.append((free, s))
        free = e
    if free < end:
        gaps.append((free, end))
    return pieces
