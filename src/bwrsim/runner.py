"""Scenario orchestration: builds one simulation instance from a SimConfig,
runs it, and renders reports and CSV artifacts."""

from __future__ import annotations

import csv
import functools
import os
from array import array
from dataclasses import dataclass, field
from itertools import chain
from operator import sub
from typing import Optional

from . import metrics
from .bwr import BwrEmitter, encode_bwr
from .config import SimConfig, dump_config
from .core import PRIO_CONTROL, PRIO_SCHED, RngStreams, Simulator, derive_seed
from .docsis import BE, UGS, ChannelLedger, Cm, Cmts, ServiceFlow
from .lte import Enb, Packet, SUBFRAME_US, SubframeTick, Ue
from .metrics import Collector
from .traffic import PacketFactory, TraceSource, VideoTrace, VoipSource, read_trace, synth_video


@dataclass
class SimRun:
    """One completed simulation instance and handles into its state."""

    cfg: SimConfig
    mode: str
    sim: Simulator
    collector: Collector
    ledger: ChannelLedger
    cmts: Cmts
    cm: Cm
    ues: list[Ue]

    def eut_samples(self) -> metrics.Samples:
        return self.collector.retained().select(self.cfg.eut_enb)

    def conservation(self) -> dict[str, int]:
        c = self.collector.counters
        buffered = sum(sum(ue.buffer_bytes) for ue in self.ues)
        cm_queued = sum(f.queue_bytes for f in self.cm.flows.values())
        return {
            "admitted": c.get("admitted_bytes", 0),
            "ue_buffered": buffered,
            "lte_inflight": c.get("lte_inflight_bytes", 0),
            "lte_egressed": c.get("lte_egressed_bytes", 0),
            "harq_dropped": c.get("harq_dropped_bytes", 0),
            "cm_queued": cm_queued,
            "docsis_sent": c.get("docsis_sent_bytes", 0),
        }


def _build_trace(cfg: SimConfig) -> VideoTrace:
    if cfg.trace_path is not None:
        return read_trace(cfg.trace_path)
    return synth_video(cfg.video_rate_bps, cfg.video_frame_period_us,
                       cfg.video_burstiness, derive_seed(cfg.seed, "trace"),
                       cfg.trace_duration_us)


def run_single(cfg: SimConfig, mode: str) -> SimRun:
    """Build, wire, and run one instance to cfg.duration_us."""
    cfg.validate()
    if mode not in ("baseline", "bwr"):
        raise ValueError(f"run mode must be baseline or bwr, got {mode!r}")
    sim = Simulator()
    streams = RngStreams(cfg.seed)
    collector = Collector(mode, cfg.warmup_us)
    ledger = ChannelLedger(cfg.duration_us)
    cmts = Cmts(sim, cfg, ledger, collector)
    cm = Cm(sim, cmts, cfg, collector, streams.stream("contention"))
    factory = PacketFactory(Packet)

    data_flows = [ServiceFlow(f"enb{enb_id}-data", BE, owner_enb=enb_id)
                  for enb_id in range(1, cfg.enb_count + 1)]
    for flow in data_flows:
        cm.add_flow(flow)
    if mode == "bwr":
        cm.add_flow(ServiceFlow("bwr-ugs", UGS, owner_enb=cfg.eut_enb))

    trace = _build_trace(cfg) if cfg.traffic_case == "video" else None
    enbs: list[Enb] = []
    ues: list[Ue] = []
    sources = []
    phases = streams.stream("phases")
    next_ue_id = 1

    for enb_id, flow in enumerate(data_flows, start=1):
        enb = Enb(sim, enb_id, cfg, collector, streams.stream("harq"))
        enb.egress_sink = functools.partial(cm.enqueue_chunks, flow)
        if mode == "bwr" and enb_id == cfg.eut_enb:
            def forward(report, _flow=flow):
                frame = encode_bwr(report)
                cm.note_described(_flow, report.egress_time, report.total_bytes())
                cm.forward_report(frame)
            enb.bwr_emitter = BwrEmitter(
                enb_id, cfg.bwr_period_us, cfg.grant_to_data_us + cfg.enb_decode_us,
                per_lcg=cfg.bwr_per_lcg, forward=forward, collector=collector)
        enbs.append(enb)
        for _ in range(cfg.ues_per_enb):
            sr_phase = phases.randbelow(cfg.sr_period_us // SUBFRAME_US) * SUBFRAME_US
            ue = Ue(sim, next_ue_id, enb, sr_phase)
            enb.ues.append(ue)
            ues.append(ue)
            next_ue_id += 1
            if cfg.traffic_case == "voip":
                phase = phases.randbelow(cfg.voip_period_us)
                sources.append(VoipSource(sim, factory, ue, cfg.lcg_voip,
                                          cfg.voip_bytes, cfg.voip_period_us, phase))
            else:
                start = phases.randbelow(trace.duration)
                sources.append(TraceSource(sim, factory, ue, cfg.lcg_video,
                                           trace, start, cfg.packet_mtu))

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
    return SimRun(cfg, mode, sim, collector, ledger, cmts, cm, ues)


class PairedDeltas:
    """Per-packet DOCSIS-only latency in baseline and in bwr, as columns.
    Iterating yields (packet id, class, baseline us, bwr us) tuples."""

    def __init__(self, classes: list[str]):
        self.classes = classes              # traffic class of each code
        self.class_code = bytearray()
        self.packet_id = array("q")
        self.base_us = array("q")
        self.bwr_us = array("q")

    def __len__(self) -> int:
        return len(self.packet_id)

    def __iter__(self):
        return zip(self.packet_id, map(self.classes.__getitem__, self.class_code),
                   self.base_us, self.bwr_us)


def paired_deltas(base: SimRun, bwr: SimRun) -> PairedDeltas:
    """Per-packet DOCSIS-only latency (baseline, bwr) joined on packet id, in
    bwr's order. Packet ids are dense, so the join looks baseline up in an
    array indexed by id (-1: not retained)."""
    b, w = base.collector.retained(), bwr.collector.retained()
    base_us = array("q", [-1]) * (max(chain(b.packet_id, w.packet_id), default=-1) + 1)
    for pid, us in zip(b.packet_id, b.docsis_us):
        base_us[pid] = us
    out = PairedDeltas(list(w.classes))
    for pid, code, us in zip(w.packet_id, w.class_code, w.docsis_us):
        b_us = base_us[pid]
        if b_us >= 0:
            out.packet_id.append(pid)
            out.class_code.append(code)
            out.base_us.append(b_us)
            out.bwr_us.append(us)
    return out


@dataclass
class RunReport:
    cfg: SimConfig
    runs: list[SimRun]
    deltas: PairedDeltas | list = field(default_factory=list)
    csv_paths: list[str] = field(default_factory=list)
    text: str = ""          # the rendered report, set by run_scenario

    def render(self) -> str:
        lines = ["bwrsim run report", "=" * 60]
        dur_s = self.cfg.duration_us / 1_000_000
        lines.append(f"seed={self.cfg.seed} duration={dur_s:g}s "
                     f"enbs={self.cfg.enb_count} ues_per_enb={self.cfg.ues_per_enb} "
                     f"traffic={self.cfg.traffic_case} "
                     f"harq={'on' if self.cfg.harq_enabled else 'off'}")
        lines.append("")
        lines.append(_table_header())
        for run in self.runs:
            retained = run.collector.retained()
            lines.append(_table_row(run.mode, retained))
            if self.cfg.enb_count > 1:
                # an eNB without samples keeps its row of "-" cells
                for enb_id in range(1, self.cfg.enb_count + 1):
                    tag = " eut" if enb_id == self.cfg.eut_enb else ""
                    lines.append(_table_row(f"  enb{enb_id}{tag}",
                                            retained.select(enb_id)))
        lines.append("")
        for run in self.runs:
            c = run.collector.counters
            extras = [f"{run.mode}:",
                      f"packets={c.get('egressed_packets', 0)}",
                      f"drops={c.get('dropped_packets', 0)}",
                      f"req_collisions={c.get('req_collisions', 0)}",
                      f"wasted_bwr_grant_bytes={c.get('wasted_bwr_grant_bytes', 0)}"]
            if run.mode == "bwr":
                occ = run.ledger.occupancy_bps("ugs")
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


def _table_row(label: str, samples) -> str:
    def cell(segment):
        if not samples:
            return f"{'-':>8s} {'-':>8s} {'-':>8s}"
        s = metrics.summarize(samples, segment)
        return f"{s.min_ms:8.3f} {s.avg_ms:8.3f} {s.max_ms:8.3f}"
    return (f"{label:14s}  {cell('e2e')}  {cell('lte')}  {cell('docsis')}  "
            f"{len(samples):7d}")


def run_scenario(cfg: SimConfig, out_dir: Optional[str] = None) -> RunReport:
    """Run the configured mode(s) and render the report once; write the CSVs
    and report.txt when out_dir is given."""
    modes = ["baseline", "bwr"] if cfg.mode == "both" else [cfg.mode]
    runs = [run_single(cfg, mode) for mode in modes]
    deltas = paired_deltas(runs[0], runs[1]) if len(runs) == 2 else []
    report = RunReport(cfg, runs, deltas)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for run in runs:
            retained = run.collector.retained()
            path = os.path.join(out_dir, f"samples_{run.mode}.csv")
            metrics.write_samples_csv(path, retained)
            report.csv_paths.append(path)
            for segment in ("docsis", "e2e"):
                path = os.path.join(out_dir, f"cdf_{segment}_{run.mode}.csv")
                if retained:
                    metrics.write_cdf_csv(path, metrics.cdf(retained, segment))
                    report.csv_paths.append(path)
        if deltas:
            path = os.path.join(out_dir, "deltas.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = csv.writer(fh)
                w.writerow(["packet_id", "class", "baseline_docsis_ms",
                            "bwr_docsis_ms", "delta_ms"])
                for pid, klass, b, v in deltas:
                    w.writerow([pid, klass, f"{b / 1000:.3f}", f"{v / 1000:.3f}",
                                f"{(b - v) / 1000:.3f}"])
            report.csv_paths.append(path)
    report.text = report.render()
    if out_dir is not None:
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.text)
    return report
