"""Scenario orchestration: builds one simulation instance from a SimConfig,
runs it, and renders reports and CSV artifacts."""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Optional

from . import metrics
from .bwr import BwrEmitter, encode_bwr
from .config import SimConfig
from .core import PRIO_CONTROL, PRIO_SCHED, RngStreams, Simulator, derive_seed
from .docsis import BE, UGS, ChannelLedger, Cm, Cmts, ServiceFlow
from .lte import Enb, Packet, SUBFRAME_US, Ue
from .metrics import Collector
from .traffic import PacketFactory, TraceSource, VideoTrace, VoipSource, read_trace, synth_video


def data_flow_id(enb_id: int) -> str:
    return f"enb{enb_id}-data"


UGS_FLOW_ID = "bwr-ugs"


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
    enbs: list[Enb]
    ues: list[Ue]
    factory: PacketFactory

    def eut_samples(self):
        return [s for s in self.collector.retained() if s.enb_id == self.cfg.eut_enb]

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
    lte_profile = cfg.lte_profile()
    docsis_profile = cfg.docsis_profile()
    cmts = Cmts(sim, docsis_profile, ledger, collector,
                lcg_differentiation=cfg.bwr_per_lcg)
    cm = Cm(sim, cmts, docsis_profile, collector, streams.stream("contention"),
            cfg.described_expiry_us)
    factory = PacketFactory(Packet)

    for enb_id in range(1, cfg.enb_count + 1):
        cm.add_flow(ServiceFlow(data_flow_id(enb_id), BE, owner_enb=enb_id))
    if mode == "bwr":
        cm.add_flow(ServiceFlow(UGS_FLOW_ID, UGS, owner_enb=cfg.eut_enb,
                                grant_size_bytes=cfg.ugs_grant_bytes,
                                grant_period=cfg.ugs_period_us,
                                grant_phase=cfg.ugs_phase()))

    trace = _build_trace(cfg) if cfg.traffic_case == "video" else None
    enbs: list[Enb] = []
    ues: list[Ue] = []
    sources = []
    phases = streams.stream("phases")
    next_ue_id = 1

    for enb_id in range(1, cfg.enb_count + 1):
        enb = Enb(sim, enb_id, lte_profile, collector, streams.stream("harq"),
                  harq_enabled=cfg.harq_enabled, bler=cfg.harq_bler,
                  max_retx=cfg.harq_max_retx, tbs_table=cfg.tbs_dict())
        flow_id = data_flow_id(enb_id)
        enb.egress_sink = functools.partial(cm.enqueue_chunks, flow_id)
        if mode == "bwr" and enb_id == cfg.eut_enb:
            def forward(report, _fid=flow_id):
                frame = encode_bwr(report)
                cm.note_described(_fid, report.egress_time, report.total_bytes())
                cm.forward_report(UGS_FLOW_ID, frame)
            enb.bwr_emitter = BwrEmitter(
                enb_id, cfg.bwr_period_us,
                lte_profile.grant_to_data + lte_profile.enb_decode,
                per_lcg=cfg.bwr_per_lcg, forward=forward, collector=collector)
        enbs.append(enb)
        for _ in range(cfg.ues_per_enb):
            if cfg.sr_phase_us is not None:
                sr_phase = cfg.sr_phase_us
            else:
                sr_phase = phases.randbelow(cfg.sr_period_us // SUBFRAME_US) * SUBFRAME_US
            ue = Ue(sim, next_ue_id, enb, lte_profile, sr_phase)
            enb.add_ue(ue)
            ues.append(ue)
            next_ue_id += 1
            if cfg.traffic_case == "voip":
                if cfg.arrival_phase_us is not None:
                    phase = cfg.arrival_phase_us
                else:
                    phase = phases.randbelow(cfg.voip_period_us)
                sources.append(VoipSource(sim, factory, ue, cfg.lcg_voip,
                                          cfg.voip_bytes, cfg.voip_period_us, phase))
            else:
                start = phases.randbelow(trace.duration)
                sources.append(TraceSource(sim, factory, ue, cfg.lcg_video,
                                           trace, start, cfg.packet_mtu))

    for source in sources:
        source.start()

    def subframe_tick():
        for enb in enbs:
            enb.on_subframe()
        sim.schedule_in(SUBFRAME_US, PRIO_SCHED, subframe_tick)

    channel = streams.stream("channel")

    def channel_tick():
        for ue in ues:
            ue.channel_update(cfg.mcs_mean, cfg.mcs_sigma, channel)
        sim.schedule_in(cfg.channel_update_us, PRIO_CONTROL, channel_tick)

    sim.schedule_at(0, PRIO_CONTROL, channel_tick)
    sim.schedule_at(0, PRIO_SCHED, subframe_tick)
    sim.schedule_at(0, PRIO_SCHED, cmts.map_cycle)
    sim.run_until(cfg.duration_us)
    return SimRun(cfg, mode, sim, collector, ledger, cmts, cm, enbs, ues, factory)


def paired_deltas(base: SimRun, bwr: SimRun, segment: str = "docsis"):
    """Per-packet latency difference (baseline - bwr) joined on packet id."""
    base_by_id = {s.packet_id: s for s in base.collector.retained()}
    out = []
    for s in bwr.collector.retained():
        b = base_by_id.get(s.packet_id)
        if b is not None:
            out.append((s.packet_id, s.traffic_class,
                        b.value(segment), s.value(segment)))
    return out


@dataclass
class RunReport:
    cfg: SimConfig
    runs: list[SimRun]
    deltas: list = field(default_factory=list)
    csv_paths: list[str] = field(default_factory=list)

    def render(self) -> str:
        from .config import dump_config
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
                for enb_id in range(1, self.cfg.enb_count + 1):
                    tag = " eut" if enb_id == self.cfg.eut_enb else ""
                    rows = [s for s in retained if s.enb_id == enb_id]
                    lines.append(_table_row(f"  enb{enb_id}{tag}", rows))
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
            vals = [b - w for _, _, b, w in self.deltas]
            exact = sum(1 for v in vals if v == 4000)
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
    """Run the configured mode(s); write CSVs when out_dir is given."""
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
            import csv as _csv
            path = os.path.join(out_dir, "deltas.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                w = _csv.writer(fh)
                w.writerow(["packet_id", "class", "baseline_docsis_ms",
                            "bwr_docsis_ms", "delta_ms"])
                for pid, klass, b, v in deltas:
                    w.writerow([pid, klass, f"{b / 1000:.3f}", f"{v / 1000:.3f}",
                                f"{(b - v) / 1000:.3f}"])
            report.csv_paths.append(path)
        with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.render())
    return report
