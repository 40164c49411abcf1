"""Scenario orchestration: builds one simulation instance from a SimConfig,
runs it, and renders reports and CSV artifacts."""

from __future__ import annotations

import functools
import os
from array import array
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import sub
from typing import Optional

from . import metrics
from .bwr import BwrEmitter
from .config import SimConfig, dump_config
from .core import PRIO_CONTROL, PRIO_SCHED, RngStreams, Simulator, derive_seed
from .docsis import Cm, Cmts, ServiceFlow
from .lte import Enb, SUBFRAME_US, SubframeTick, Ue
from .metrics import Collector
from .traffic import Trace, TraceSource, read_trace, synth_video


@dataclass
class SimRun:
    """One completed simulation instance and handles into its state."""

    cfg: SimConfig
    mode: str
    sim: Simulator
    collector: Collector
    cmts: Cmts
    cm: Cm
    ues: list[Ue]

    def eut_samples(self) -> metrics.Samples:
        return self.collector.retained().select(self.cfg.eut_enb)

    def conservation(self) -> dict[str, int]:
        c = self.collector.counters
        buffered = sum(ue.buffer_bytes for ue in self.ues)
        cm_queued = sum(f.queue_bytes for f in self.cm.flows.values())
        return {
            "admitted": c.admitted_bytes,
            "ue_buffered": buffered,
            "lte_inflight": c.lte_inflight_bytes,
            "lte_egressed": c.lte_egressed_bytes,
            "harq_dropped": c.harq_dropped_bytes,
            "cm_queued": cm_queued,
            "docsis_sent": c.docsis_sent_bytes,
        }


def build_trace(cfg: SimConfig) -> Trace:
    """The trace each UE of a run of cfg replays: one VoIP packet per period,
    or the video trace of its file or drawn from its seed."""
    if cfg.traffic_case == "voip":
        return Trace([(0, cfg.voip_bytes)], cfg.voip_period_us)
    if cfg.trace_path is not None:
        return read_trace(cfg.trace_path)
    return synth_video(cfg.video_rate_bps, cfg.video_frame_period_us,
                       cfg.video_burstiness, derive_seed(cfg.seed, "trace"),
                       cfg.trace_duration_us)


def run_single(cfg: SimConfig, mode: str) -> SimRun:
    """Build, wire, and run one instance to cfg.duration_us."""
    if mode not in ("baseline", "bwr"):
        raise ValueError(f"run mode must be baseline or bwr, got {mode!r}")
    sim = Simulator()
    streams = RngStreams(cfg.seed)
    collector = Collector(mode, cfg.warmup_us)
    cmts = Cmts(sim, cfg, collector, mode == "bwr")
    cm = Cm(sim, cmts, cfg, collector, streams.stream("contention"))
    packet_ids = count()

    trace = build_trace(cfg)
    # a VoIP packet never splits
    voip = cfg.traffic_case == "voip"
    lcg, mtu = (cfg.lcg_voip, cfg.voip_bytes) if voip else (cfg.lcg_video, cfg.packet_mtu)
    enbs: list[Enb] = []
    ues: list[Ue] = []
    sources = []
    phases = streams.stream("phases")
    next_ue_id = 1

    for enb_id in range(1, cfg.enb_count + 1):
        flow = ServiceFlow(enb_id)
        cm.add_flow(flow)
        enb = Enb(sim, enb_id, cfg, collector, streams.stream("harq"))
        enb.egress_sink = functools.partial(cm.enqueue_chunks, flow)
        if mode == "bwr" and enb_id == cfg.eut_enb:
            enb.bwr_emitter = BwrEmitter(
                enb_id, cfg.bwr_period_us, cfg.grant_to_data_us + cfg.enb_decode_us,
                lcg=lcg, per_lcg=cfg.bwr_per_lcg,
                forward=functools.partial(cm.forward_report, flow), collector=collector)
        enbs.append(enb)
        for _ in range(cfg.ues_per_enb):
            sr_phase = phases.randbelow(cfg.sr_period_us // SUBFRAME_US) * SUBFRAME_US
            ue = Ue(sim, next_ue_id, enb, sr_phase)
            enb.ues.append(ue)
            ues.append(ue)
            next_ue_id += 1
            # a VoIP UE's draw is its first packet's time; a video UE's, the
            # trace offset it starts from
            draw = phases.randbelow(trace.duration)
            start = -draw % trace.duration if voip else draw
            sources.append(TraceSource(sim, packet_ids, ue, trace, start, mtu))

    for source in sources:
        source.start()

    subframes = SubframeTick(sim, enbs)
    channel = streams.stream("channel")

    def channel_tick():
        for ue in ues:
            ue.channel_update(cfg.mcs_mean, cfg.mcs_sigma, channel)
        sim.schedule_in(cfg.channel_update_us, PRIO_CONTROL, channel_tick)

    sim.schedule_at(0, PRIO_CONTROL, channel_tick)
    subframes.wake(0)
    sim.schedule_at(0, PRIO_SCHED, cmts.map_cycle)
    sim.run_until(cfg.duration_us)
    cm.settle_ugs_grants()
    return SimRun(cfg, mode, sim, collector, cmts, cm, ues)


@dataclass
class PairedDeltas:
    """Per-packet DOCSIS-only latency in baseline and in bwr, as columns.
    Iterating yields (packet id, class, baseline us, bwr us) tuples; every
    packet of a run has the run's traffic class."""

    traffic_class: str
    packet_id: array
    base_us: array
    bwr_us: array

    def __len__(self) -> int:
        return len(self.packet_id)

    def __iter__(self):
        return zip(self.packet_id, repeat(self.traffic_class), self.base_us, self.bwr_us)


def paired_deltas(base: SimRun, bwr: SimRun) -> PairedDeltas:
    """Per-packet DOCSIS-only latency (baseline, bwr) joined on packet id, in
    bwr's order. Packet ids are dense, so the join looks baseline up in an
    array indexed by id (-1: not retained)."""
    b, w = base.collector.retained(), bwr.collector.retained()
    base_of = array("q", [-1]) * (max(chain(b.packet_id, w.packet_id), default=-1) + 1)
    for pid, us in zip(b.packet_id, b.docsis_us):
        base_of[pid] = us
    base_us = array("q", map(base_of.__getitem__, w.packet_id))
    keep = bytes(map((0).__le__, base_us))
    return PairedDeltas(bwr.cfg.traffic_case, array("q", compress(w.packet_id, keep)),
                        array("q", compress(base_us, keep)),
                        array("q", compress(w.docsis_us, keep)))


@dataclass
class RunReport:
    cfg: SimConfig
    runs: list[SimRun]
    deltas: PairedDeltas | list = field(default_factory=list)
    csv_paths: list[str] = field(default_factory=list)
    text: str = ""          # the rendered report, set by run_scenario
    # the segment columns of each run's samples, e2e built once per run
    columns: list[dict[str, array]] = field(init=False)

    def __post_init__(self):
        self.columns = [metrics.segment_columns(run.collector.retained())
                        for run in self.runs]

    def render(self) -> str:
        lines = ["bwrsim run report", "=" * 60]
        dur_s = self.cfg.duration_us / 1_000_000
        lines.append(f"seed={self.cfg.seed} duration={dur_s:g}s "
                     f"enbs={self.cfg.enb_count} ues_per_enb={self.cfg.ues_per_enb} "
                     f"traffic={self.cfg.traffic_case} "
                     f"harq={'on' if self.cfg.harq_enabled else 'off'}")
        lines.append("")
        lines.append(_table_header())
        for run, columns in zip(self.runs, self.columns):
            lines.append(_table_row(run.mode, columns))
            if self.cfg.enb_count > 1:
                enb_of = run.collector.retained().enb_id
                # an eNB without samples keeps its row of "-" cells
                for enb_id in range(1, self.cfg.enb_count + 1):
                    tag = " eut" if enb_id == self.cfg.eut_enb else ""
                    keep = bytes(map(enb_id.__eq__, enb_of))
                    lines.append(_table_row(f"  enb{enb_id}{tag}", {
                        segment: list(compress(values, keep))
                        for segment, values in columns.items()}))
        lines.append("")
        for run in self.runs:
            c = run.collector.counters
            extras = [f"{run.mode}:",
                      f"packets={c.egressed_packets}",
                      f"drops={c.dropped_packets}",
                      f"req_collisions={c.req_collisions}",
                      f"wasted_bwr_grant_bytes={c.wasted_bwr_grant_bytes}"]
            if run.mode == "bwr":
                occ = run.cmts.ugs_occupancy_bps()
                extras.append(f"ugs_occupancy_kbps={occ / 1000:.1f}")
            lines.append("  ".join(extras))
        if self.deltas:
            vals = array("q", map(sub, self.deltas.base_us, self.deltas.bwr_us))
            exact = vals.count(4000)
            lines.append("")
            lines.append(f"paired docsis delta: packets={len(vals)} "
                         f"mean_ms={sum(vals) / len(vals) / 1000:.3f} "
                         f"exactly_4ms={exact / len(vals) * 100:.2f}%")
        if self.csv_paths:
            lines.append("")
            lines.append("csv: " + " ".join(self.csv_paths))
        lines.append("")
        lines.append(dump_config(self.cfg))
        return "\n".join(lines) + "\n"


def _table_header() -> str:
    return (f"{'':14s}  {'end-to-end (ms)':>26s}  {'lte-only (ms)':>26s}  "
            f"{'docsis-only (ms)':>26s}  {'count':>7s}")


def _table_row(label: str, columns: dict) -> str:
    def cell(segment):
        if not columns[segment]:
            return f"{'-':>8s} {'-':>8s} {'-':>8s}"
        s = metrics.summary(columns[segment])
        return f"{s.min_ms:8.3f} {s.avg_ms:8.3f} {s.max_ms:8.3f}"
    return (f"{label:14s}  {cell('e2e')}  {cell('lte')}  {cell('docsis')}  "
            f"{len(columns['lte']):7d}")


def write_csvs(report: RunReport, out_dir: str) -> list[str]:
    """Write each run's samples and CDFs and the paired deltas to out_dir;
    returns the paths written."""
    paths = []
    for run, columns in zip(report.runs, report.columns):
        retained = run.collector.retained()
        path = os.path.join(out_dir, f"samples_{run.mode}.csv")
        metrics.write_samples_csv(path, retained, columns["e2e"], report.cfg.traffic_case)
        paths.append(path)
        if not retained:
            continue
        for segment in ("docsis", "e2e"):
            path = os.path.join(out_dir, f"cdf_{segment}_{run.mode}.csv")
            metrics.write_cdf_csv(path, metrics.cdf_steps(columns[segment]))
            paths.append(path)
    if report.deltas:
        path = os.path.join(out_dir, "deltas.csv")
        metrics.write_deltas_csv(path, report.deltas)
        paths.append(path)
    return paths


def run_scenario(cfg: SimConfig, out_dir: Optional[str] = None) -> RunReport:
    """Run the configured mode(s) and render the report once; write the CSVs
    and report.txt when out_dir is given."""
    modes = ["baseline", "bwr"] if cfg.mode == "both" else [cfg.mode]
    runs = [run_single(cfg, mode) for mode in modes]
    deltas = paired_deltas(runs[0], runs[1]) if len(runs) == 2 else []
    report = RunReport(cfg, runs, deltas)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        report.csv_paths = write_csvs(report, out_dir)
    report.text = report.render()
    if out_dir is not None:
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.text)
    return report
