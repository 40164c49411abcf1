"""LTE uplink models: UE buffering and SR/BSR signaling, round-robin eNB
scheduling, slow-fading MCS evolution, transport-block sizing, and synchronous
HARQ with fixed 8 ms retransmission spacing.

Control-plane timing follows a fixed turnaround ladder:

    arrival -> SR opportunity (sr_phase grid, >= arrival + sr_encode)
    SR      -> BSR grant issued        (+ sr_to_bsr_grant)
    grant   -> BSR delivered at eNB    (+ grant_to_bsr)
    BSR     -> demand schedulable      (+ bsr_to_data_grant)
    tick    -> data grant issued; UL transmission (+ grant_to_data)
    UL tx   -> decoded, egressed to CM (+ enb_decode)

All control signaling is error-free; HARQ applies to data transport blocks
only. The eNB serves one transport block (one UE) per subframe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import MS, PRIO_CONTROL, PRIO_DATA, Rng, Simulator

NUM_LCGS = 4
MCS_MIN = 18
MCS_MAX = 26
HARQ_PROCESSES = 8
HARQ_RTT_US = 8 * MS
SUBFRAME_US = MS

# Default MCS -> transport block bytes per subframe: linear 150 B per index.
# Replaceable through SimConfig for standard-derived tables.
DEFAULT_TBS_TABLE = {mcs: 150 * mcs for mcs in range(MCS_MIN, MCS_MAX + 1)}


class LteError(Exception):
    pass


@dataclass
class LteTimingProfile:
    """Uplink control-plane turnaround times, in microseconds."""

    sr_period: int = 5 * MS
    sr_encode: int = 500          # floor between data arrival and SR transmission
    sr_to_bsr_grant: int = 4 * MS
    grant_to_bsr: int = 4 * MS
    bsr_to_data_grant: int = 4 * MS
    grant_to_data: int = 4 * MS
    enb_decode: int = 2 * MS      # configurable within the 1.5-2.5 ms estimate
    bsr_period: int = 10 * MS

    def validate(self) -> None:
        for name in ("sr_period", "sr_to_bsr_grant", "grant_to_bsr",
                     "bsr_to_data_grant", "grant_to_data", "enb_decode",
                     "bsr_period"):
            if getattr(self, name) <= 0:
                raise LteError(f"timing profile field {name} must be positive")
        if self.sr_encode < 0:
            raise LteError("sr_encode must be >= 0")
        if self.sr_period % SUBFRAME_US != 0:
            raise LteError("sr_period must be a whole number of subframes")

    def ladder_total(self) -> int:
        """Turnaround sum excluding the SR wait (grant ladder + decode)."""
        return (self.sr_to_bsr_grant + self.grant_to_bsr
                + self.bsr_to_data_grant + self.grant_to_data + self.enb_decode)


def tbs_bytes(mcs: int, table: Optional[dict[int, int]] = None) -> int:
    """Transport block capacity in bytes for one subframe at the given MCS."""
    tab = table if table is not None else DEFAULT_TBS_TABLE
    if mcs not in tab:
        raise LteError(f"mcs {mcs} outside supported range [{MCS_MIN}, {MCS_MAX}]")
    return tab[mcs]


def harq_grant_utilization(n_max: int, bler: float) -> float:
    """Expected fraction of granted resources carrying a first transmission.

    Closed form: sum_{k=0}^{n_max} (1/(k+1)) * (1-bler) * bler^k. Blocks that
    exhaust all retransmissions contribute nothing (no renormalization).
    """
    if n_max < 0:
        raise ValueError(f"n_max={n_max} must be >= 0")
    if not 0.0 <= bler < 1.0:
        raise ValueError(f"bler={bler} must be in [0, 1)")
    return sum((1.0 / (k + 1)) * (1.0 - bler) * bler ** k for k in range(n_max + 1))


_PKT_SEQ_FIELDS = ("ue_arrival", "enb_egress", "cm_arrival", "cmts_egress")


@dataclass
class Packet:
    """A unit of user traffic tracked from UE arrival to CMTS egress."""

    id: int
    ue_id: int
    enb_id: int
    size_bytes: int
    lcg: int
    traffic_class: str
    ue_arrival: int = -1
    enb_egress: int = -1
    cm_arrival: int = -1
    cmts_egress: int = -1
    dropped: bool = False
    # transport bookkeeping
    ue_remaining: int = 0         # bytes not yet drained into a transport block
    lte_delivered: int = 0        # bytes decoded at the eNB
    cm_received: int = 0          # bytes that have reached the CM
    docsis_egressed: int = 0      # bytes that have fully crossed the upstream

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise LteError("packet size must be positive")
        if not 0 <= self.lcg < NUM_LCGS:
            raise LteError(f"lcg {self.lcg} outside [0, {NUM_LCGS})")
        self.ue_remaining = self.size_bytes

    def set_stage(self, name: str, t: int) -> None:
        prev = -1
        for f in _PKT_SEQ_FIELDS:
            if f == name:
                break
            prev = getattr(self, f)
        if getattr(self, name) >= 0:
            raise LteError(f"stage {name} already set for packet {self.id}")
        if prev >= 0 and t < prev:
            raise LteError(f"stage {name}={t} precedes prior stage ({prev})")
        setattr(self, name, t)


@dataclass
class LteGrant:
    """An uplink data allocation: issued now, transmitted grant_to_data later."""

    ue_id: int
    grant_bytes: int
    lcg_bytes: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.grant_bytes <= 0:
            raise LteError("data grant must carry a positive byte count")


class HarqProcess:
    """One synchronous HARQ process: retransmissions exactly 8 ms apart."""

    __slots__ = ("process_id", "tb_bytes", "attempt", "next_tx", "chunks", "lcg_bytes")

    def __init__(self, process_id: int, tb_bytes: int, first_tx: int,
                 chunks, lcg_bytes):
        self.process_id = process_id
        self.tb_bytes = tb_bytes
        self.attempt = 0
        self.next_tx = first_tx
        self.chunks = chunks          # [(packet, nbytes, completes_packet)]
        self.lcg_bytes = lcg_bytes


class Ue:
    """User equipment: per-LCG buffers, SR arming, transmission, HARQ."""

    def __init__(self, sim: Simulator, ue_id: int, enb: "Enb",
                 profile: LteTimingProfile, sr_phase: int):
        self.sim = sim
        self.ue_id = ue_id
        self.enb = enb
        self.profile = profile
        self.sr_phase = sr_phase
        self.mcs = 22
        self.buffers: list[list] = [[] for _ in range(NUM_LCGS)]  # [packet, remaining]
        self.buffer_bytes = [0] * NUM_LCGS
        self.pending_sr = False
        self.pending_grants = 0       # issued, not yet transmitted
        self.last_report_total = 0    # bytes covered by the latest BSR
        self.sent_since_report = 0
        self.last_report_time = -1
        self.harq: dict[int, HarqProcess] = {}

    # -- arrivals ---------------------------------------------------------

    def on_arrival(self, pkt: Packet) -> None:
        t = self.sim.now
        pkt.set_stage("ue_arrival", t)
        self.buffers[pkt.lcg].append([pkt, pkt.size_bytes])
        self.buffer_bytes[pkt.lcg] += pkt.size_bytes
        self.enb.collector.count("admitted_bytes", pkt.size_bytes)
        self.enb.collector.count("admitted_packets", 1)
        if self._needs_sr():
            self._arm_sr(t)

    def _needs_sr(self) -> bool:
        if self.pending_sr or self.pending_grants > 0:
            return False
        covered = max(0, self.last_report_total - self.sent_since_report)
        return covered == 0

    def _arm_sr(self, t: int) -> None:
        self.pending_sr = True
        ready = t + self.profile.sr_encode
        period, phase = self.profile.sr_period, self.sr_phase
        k = -((phase - ready) // period)          # ceil((ready - phase) / period)
        sr_time = phase + k * period
        self.sim.schedule_at(sr_time, PRIO_CONTROL, self.enb.on_sr, self.ue_id)

    # -- reporting --------------------------------------------------------

    def buffer_snapshot(self) -> list[int]:
        return list(self.buffer_bytes)

    def emit_bsr(self) -> None:
        """Standalone BSR on a BSR-purpose grant (end of the SR ladder)."""
        self.pending_sr = False
        self._record_report()
        if sum(self.buffer_bytes) == 0:
            return                    # zero report: nothing to transmit
        self.enb.on_bsr(self.ue_id, self.buffer_snapshot())

    def _record_report(self) -> None:
        self.last_report_total = sum(self.buffer_bytes)
        self.sent_since_report = 0
        self.last_report_time = self.sim.now

    # -- transmission -----------------------------------------------------

    def transmit(self, grant: LteGrant) -> None:
        """Fire an UL grant: drain buffers into one transport block."""
        t = self.sim.now
        self.pending_grants -= 1
        chunks, lcg_bytes, total = self._drain(grant.grant_bytes)
        if total == 0:
            self.enb.collector.count("lte_grant_unused_bytes", grant.grant_bytes)
            return
        self.sent_since_report += total
        # Buffer state rides along with the transport block (refreshed at
        # most every bsr_period when the occupancy is unchanged).
        report = None
        changed = sum(self.buffer_bytes) != max(0, self.last_report_total - self.sent_since_report)
        stale = (self.last_report_time < 0
                 or t - self.last_report_time >= self.profile.bsr_period)
        if changed or stale:
            self._record_report()
            report = self.buffer_snapshot()
        if self.enb.harq_enabled:
            pid = (t // SUBFRAME_US) % HARQ_PROCESSES
            proc = HarqProcess(pid, total, t, chunks, lcg_bytes)
            if pid in self.harq:
                raise LteError(f"HARQ process {pid} already active on ue {self.ue_id}")
            self.harq[pid] = proc
            self._attempt(proc, report)
        else:
            self.enb.collector.count("lte_inflight_bytes", total)
            self.enb.collector.record_tb(attempts=1, success=True)
            self.sim.schedule_in(self.profile.enb_decode, PRIO_DATA,
                                 self.enb.on_tb_decoded, self.ue_id, chunks,
                                 lcg_bytes, total, report)

    def _drain(self, budget: int):
        chunks = []
        lcg_bytes: dict[int, int] = {}
        total = 0
        for lcg in range(NUM_LCGS):
            queue = self.buffers[lcg]
            while queue and budget > 0:
                entry = queue[0]
                take = min(entry[1], budget)
                entry[1] -= take
                budget -= take
                total += take
                self.buffer_bytes[lcg] -= take
                lcg_bytes[lcg] = lcg_bytes.get(lcg, 0) + take
                completes = entry[1] == 0
                chunks.append((entry[0], take, completes))
                entry[0].ue_remaining -= take
                if completes:
                    queue.pop(0)
            if budget == 0:
                break
        return chunks, lcg_bytes, total

    def _attempt(self, proc: HarqProcess, report) -> None:
        """One HARQ transmission attempt; outcome drawn per attempt."""
        t = self.sim.now
        proc.next_tx = t + HARQ_RTT_US
        if proc.attempt == 0:
            self.enb.collector.count("lte_inflight_bytes", proc.tb_bytes)
        ok = self.enb.harq_rng.bernoulli(1.0 - self.enb.bler)
        self.sim.schedule_in(self.profile.enb_decode, PRIO_DATA,
                             self._on_decode, proc, ok, report)

    def _on_decode(self, proc: HarqProcess, ok: bool, report) -> None:
        if ok:
            del self.harq[proc.process_id]
            self.enb.collector.record_tb(attempts=proc.attempt + 1, success=True)
            self.enb.on_tb_decoded(self.ue_id, proc.chunks, proc.lcg_bytes,
                                   proc.tb_bytes, report)
            return
        if proc.attempt < self.enb.max_retx:
            proc.attempt += 1
            self.enb.note_retx(proc.lcg_bytes, proc.next_tx)
            self.sim.schedule_at(proc.next_tx, PRIO_DATA, self._retransmit, proc)
            # The piggybacked buffer report still reaches the scheduler.
            if report is not None:
                self.enb.on_bsr(self.ue_id, report)
            return
        # Retransmission budget exhausted: the block is lost.
        del self.harq[proc.process_id]
        self.enb.collector.record_tb(attempts=proc.attempt + 1, success=False)
        self.enb.collector.count("lte_inflight_bytes", -proc.tb_bytes)
        self.enb.collector.count("harq_dropped_bytes", proc.tb_bytes)
        for pkt, nbytes, _ in proc.chunks:
            if not pkt.dropped:
                pkt.dropped = True
                self.enb.collector.count("dropped_packets", 1)
        if report is not None:
            self.enb.on_bsr(self.ue_id, report)

    def _retransmit(self, proc: HarqProcess) -> None:
        self._attempt(proc, None)

    # -- channel ----------------------------------------------------------

    def channel_update(self, mean: float, sigma: float, rng: Rng) -> int:
        if sigma == 0.0:
            draw = float(mean)
        else:
            draw = rng.normal(mean, sigma)
        self.mcs = min(MCS_MAX, max(MCS_MIN, round(draw)))
        return self.mcs


class Enb:
    """Base station: demand ledger, round-robin grant scheduler, BWR builder."""

    def __init__(self, sim: Simulator, enb_id: int, profile: LteTimingProfile,
                 collector, harq_rng: Rng, *, harq_enabled: bool, bler: float,
                 max_retx: int, tbs_table: Optional[dict[int, int]] = None):
        self.sim = sim
        self.enb_id = enb_id
        self.profile = profile
        self.collector = collector
        self.harq_rng = harq_rng
        self.harq_enabled = harq_enabled
        self.bler = bler
        self.max_retx = max_retx
        self.tbs_table = tbs_table
        self.ues: dict[int, Ue] = {}
        self.ue_order: list[int] = []
        self.rr_index = -1
        self.demand: dict[int, list[int]] = {}    # ue -> per-LCG schedulable bytes
        self.pending: dict[int, list[int]] = {}   # ue -> granted, not yet transmitted
        # downstream hookup (set by the runner)
        self.egress_sink = None                   # fn(chunks, t)
        self.bwr_emitter = None                   # BwrEmitter or None

    def add_ue(self, ue: Ue) -> None:
        self.ues[ue.ue_id] = ue
        self.ue_order.append(ue.ue_id)
        self.demand[ue.ue_id] = [0] * NUM_LCGS
        self.pending[ue.ue_id] = [0] * NUM_LCGS

    # -- control ladder ---------------------------------------------------

    def on_sr(self, ue_id: int) -> None:
        if ue_id not in self.ues:
            raise LteError(f"SR from unknown ue {ue_id}")
        issue = self.sim.now + self.profile.sr_to_bsr_grant
        self.sim.schedule_at(issue, PRIO_CONTROL, self._issue_bsr_grant, ue_id)

    def _issue_bsr_grant(self, ue_id: int) -> None:
        ue = self.ues[ue_id]
        self.sim.schedule_in(self.profile.grant_to_bsr, PRIO_CONTROL, ue.emit_bsr)

    def on_bsr(self, ue_id: int, per_lcg: list[int]) -> None:
        """A buffer report arrived; it becomes schedulable after processing."""
        if ue_id not in self.ues:
            raise LteError(f"BSR from unknown ue {ue_id}")
        self.sim.schedule_in(self.profile.bsr_to_data_grant, PRIO_CONTROL,
                             self._apply_demand, ue_id, list(per_lcg))

    def _apply_demand(self, ue_id: int, per_lcg: list[int]) -> None:
        pend = self.pending[ue_id]
        self.demand[ue_id] = [max(0, per_lcg[g] - pend[g]) for g in range(NUM_LCGS)]

    # -- per-subframe scheduling ------------------------------------------

    def on_subframe(self) -> None:
        """Serve one transport block per subframe, round-robin over demand."""
        t = self.sim.now
        order = self.ue_order
        n = len(order)
        served = None
        for step in range(1, n + 1):
            idx = (self.rr_index + step) % n
            ue = self.ues[order[idx]]
            if sum(self.demand[ue.ue_id]) <= 0:
                continue
            if self.harq_enabled:
                pid = ((t + self.profile.grant_to_data) // SUBFRAME_US) % HARQ_PROCESSES
                if pid in ue.harq:
                    continue
            served = idx
            self._issue_data_grant(ue, t)
            break
        if served is not None:
            self.rr_index = served
        if self.bwr_emitter is not None:
            self.bwr_emitter.on_subframe(t)

    def _issue_data_grant(self, ue: Ue, t: int) -> None:
        demand = self.demand[ue.ue_id]
        budget = min(sum(demand), tbs_bytes(ue.mcs, self.tbs_table))
        lcg_bytes: dict[int, int] = {}
        left = budget
        for g in range(NUM_LCGS):
            take = min(demand[g], left)
            if take > 0:
                demand[g] -= take
                self.pending[ue.ue_id][g] += take
                lcg_bytes[g] = take
                left -= take
            if left == 0:
                break
        tx_time = t + self.profile.grant_to_data
        grant = LteGrant(ue.ue_id, budget, lcg_bytes)
        ue.pending_grants += 1
        self.collector.count("lte_granted_bytes", budget)
        self.sim.schedule_at(tx_time, PRIO_DATA, self._fire_grant, ue, grant)
        if self.bwr_emitter is not None:
            self.bwr_emitter.note_grant(lcg_bytes, tx_time + self.profile.enb_decode)

    def _fire_grant(self, ue: Ue, grant: LteGrant) -> None:
        for g, nbytes in grant.lcg_bytes.items():
            self.pending[ue.ue_id][g] = max(0, self.pending[ue.ue_id][g] - nbytes)
        ue.transmit(grant)

    def note_retx(self, lcg_bytes: dict[int, int], tx_time: int) -> None:
        """A failed block retransmits at a known future time; announce it."""
        if self.bwr_emitter is not None:
            self.bwr_emitter.note_grant(dict(lcg_bytes),
                                        tx_time + self.profile.enb_decode)

    # -- egress ------------------------------------------------------------

    def on_tb_decoded(self, ue_id: int, chunks, lcg_bytes, total: int, report) -> None:
        t = self.sim.now
        self.collector.count("lte_inflight_bytes", -total)
        self.collector.count("lte_egressed_bytes", total)
        for pkt, nbytes, _completes in chunks:
            pkt.lte_delivered += nbytes
            if pkt.lte_delivered == pkt.size_bytes:
                pkt.set_stage("enb_egress", t)
        if self.egress_sink is not None:
            self.egress_sink(chunks, t)
        if report is not None:
            self.on_bsr(ue_id, report)
