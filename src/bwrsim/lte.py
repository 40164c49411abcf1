"""LTE uplink models: UE buffering and SR/BSR signaling, round-robin eNB
scheduling, slow-fading MCS evolution, transport-block sizing, and synchronous
HARQ with fixed 8 ms retransmission spacing.

Control-plane timing follows a fixed turnaround ladder, read from the run's
SimConfig:

    arrival -> SR opportunity (sr_phase grid, >= arrival + sr_encode_us)
    SR      -> BSR grant issued        (+ sr_to_bsr_grant_us)
    grant   -> BSR delivered at eNB    (+ grant_to_bsr_us)
    BSR     -> demand schedulable      (+ bsr_to_data_grant_us)
    tick    -> data grant issued; UL transmission (+ grant_to_data_us)
    UL tx   -> decoded, egressed to CM (+ enb_decode_us)

All control signaling is error-free; HARQ applies to data transport blocks
only. The eNB serves one transport block (one UE) per subframe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import MS, PRIO_CONTROL, PRIO_DATA, PRIO_SCHED, Rng, Simulator

if TYPE_CHECKING:
    from .config import SimConfig

NUM_LCGS = 4
MCS_MIN = 18
MCS_MAX = 26
HARQ_PROCESSES = 8
HARQ_RTT_US = 8 * MS
SUBFRAME_US = MS

# MCS -> transport block bytes per subframe: linear 150 B per index.
DEFAULT_TBS_TABLE = {mcs: 150 * mcs for mcs in range(MCS_MIN, MCS_MAX + 1)}


class LteError(Exception):
    pass


def tbs_bytes(mcs: int) -> int:
    """Transport block capacity in bytes for one subframe at the given MCS."""
    if mcs not in DEFAULT_TBS_TABLE:
        raise LteError(f"mcs {mcs} outside supported range [{MCS_MIN}, {MCS_MAX}]")
    return DEFAULT_TBS_TABLE[mcs]


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


_PKT_SEQ_FIELDS = ("ue_arrival", "cm_arrival", "cmts_egress")


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
    cm_arrival: int = -1
    cmts_egress: int = -1
    dropped: bool = False
    # transport bookkeeping
    cm_received: int = 0          # bytes that have reached the CM
    docsis_egressed: int = 0      # bytes that have fully crossed the upstream

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise LteError("packet size must be positive")
        if not 0 <= self.lcg < NUM_LCGS:
            raise LteError(f"lcg {self.lcg} outside [0, {NUM_LCGS})")

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


class HarqProcess:
    """One synchronous HARQ process: retransmissions exactly 8 ms apart."""

    __slots__ = ("process_id", "tb_bytes", "attempt", "next_tx", "chunks", "lcg_bytes")

    def __init__(self, process_id: int, tb_bytes: int, first_tx: int,
                 chunks, lcg_bytes):
        self.process_id = process_id
        self.tb_bytes = tb_bytes
        self.attempt = 0
        self.next_tx = first_tx
        self.chunks = chunks          # [(packet, nbytes)]
        self.lcg_bytes = lcg_bytes


class Ue:
    """User equipment: per-LCG buffers, SR arming, transmission, HARQ."""

    def __init__(self, sim: Simulator, ue_id: int, enb: "Enb", sr_phase: int):
        self.sim = sim
        self.ue_id = ue_id
        self.enb = enb
        self.cfg = enb.cfg
        self.sr_phase = sr_phase
        self.mcs = 22
        self.buffers = [deque() for _ in range(NUM_LCGS)]  # [packet, remaining]
        self.buffer_bytes = [0] * NUM_LCGS
        self.pending_sr = False
        self.demand = [0] * NUM_LCGS   # per-LCG bytes the eNB may still grant
        self.granted = [0] * NUM_LCGS  # per-LCG bytes granted, not yet sent
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
        if self.pending_sr or any(self.granted):
            return False
        covered = max(0, self.last_report_total - self.sent_since_report)
        return covered == 0

    def _arm_sr(self, t: int) -> None:
        self.pending_sr = True
        ready = t + self.cfg.sr_encode_us
        period, phase = self.cfg.sr_period_us, self.sr_phase
        k = -((phase - ready) // period)          # ceil((ready - phase) / period)
        sr_time = phase + k * period
        self.sim.schedule_at(sr_time, PRIO_CONTROL, self.enb.on_sr, self)

    # -- reporting --------------------------------------------------------

    def emit_bsr(self) -> None:
        """Standalone BSR on a BSR-purpose grant (end of the SR ladder)."""
        self.pending_sr = False
        self._record_report()
        if sum(self.buffer_bytes) == 0:
            return                    # zero report: nothing to transmit
        self.enb.on_bsr(self, list(self.buffer_bytes))

    def _record_report(self) -> None:
        self.last_report_total = sum(self.buffer_bytes)
        self.sent_since_report = 0
        self.last_report_time = self.sim.now

    # -- transmission -----------------------------------------------------

    def transmit(self, grant_bytes: int) -> None:
        """Fire an UL grant: drain buffers into one transport block."""
        t = self.sim.now
        chunks, lcg_bytes, total = self._drain(grant_bytes)
        if total == 0:
            self.enb.collector.count("lte_grant_unused_bytes", grant_bytes)
            return
        self.sent_since_report += total
        # Buffer state rides along with the transport block (refreshed at
        # most every bsr_period_us when the occupancy is unchanged).
        report = None
        changed = sum(self.buffer_bytes) != max(0, self.last_report_total - self.sent_since_report)
        stale = (self.last_report_time < 0
                 or t - self.last_report_time >= self.cfg.bsr_period_us)
        if changed or stale:
            self._record_report()
            report = list(self.buffer_bytes)
        if self.cfg.harq_enabled:
            pid = (t // SUBFRAME_US) % HARQ_PROCESSES
            proc = HarqProcess(pid, total, t, chunks, lcg_bytes)
            if pid in self.harq:
                raise LteError(f"HARQ process {pid} already active on ue {self.ue_id}")
            self.harq[pid] = proc
            self._attempt(proc, report)
        else:
            self.enb.collector.count("lte_inflight_bytes", total)
            self.enb.collector.record_tb(attempts=1, success=True)
            self.sim.schedule_in(self.cfg.enb_decode_us, PRIO_DATA,
                                 self.enb.on_tb_decoded, self, chunks,
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
                chunks.append((entry[0], take))
                if entry[1] == 0:
                    queue.popleft()
            if budget == 0:
                break
        return chunks, lcg_bytes, total

    def _attempt(self, proc: HarqProcess, report) -> None:
        """One HARQ transmission attempt; outcome drawn per attempt."""
        t = self.sim.now
        proc.next_tx = t + HARQ_RTT_US
        if proc.attempt == 0:
            self.enb.collector.count("lte_inflight_bytes", proc.tb_bytes)
        ok = self.enb.harq_rng.bernoulli(1.0 - self.cfg.harq_bler)
        self.sim.schedule_in(self.cfg.enb_decode_us, PRIO_DATA,
                             self._on_decode, proc, ok, report)

    def _on_decode(self, proc: HarqProcess, ok: bool, report) -> None:
        if ok:
            del self.harq[proc.process_id]
            self.enb.collector.record_tb(attempts=proc.attempt + 1, success=True)
            self.enb.on_tb_decoded(self, proc.chunks, proc.lcg_bytes,
                                   proc.tb_bytes, report)
            return
        if proc.attempt < self.cfg.harq_max_retx:
            proc.attempt += 1
            self.enb.note_retx(proc.lcg_bytes, proc.next_tx)
            self.sim.schedule_at(proc.next_tx, PRIO_DATA, self._attempt, proc, None)
            # The piggybacked buffer report still reaches the scheduler.
            if report is not None:
                self.enb.on_bsr(self, report)
            return
        # Retransmission budget exhausted: the block is lost.
        del self.harq[proc.process_id]
        self.enb.collector.record_tb(attempts=proc.attempt + 1, success=False)
        self.enb.collector.count("lte_inflight_bytes", -proc.tb_bytes)
        self.enb.collector.count("harq_dropped_bytes", proc.tb_bytes)
        for pkt, _ in proc.chunks:
            if not pkt.dropped:
                pkt.dropped = True
                self.enb.collector.count("dropped_packets", 1)
        if report is not None:
            self.enb.on_bsr(self, report)

    # -- channel ----------------------------------------------------------

    def channel_update(self, mean: float, sigma: float, rng: Rng) -> int:
        if sigma == 0.0:
            draw = float(mean)
        else:
            draw = rng.normal(mean, sigma)
        self.mcs = min(MCS_MAX, max(MCS_MIN, round(draw)))
        return self.mcs


class Enb:
    """Base station: round-robin grant scheduler over its UEs' demand, BWR
    builder."""

    def __init__(self, sim: Simulator, enb_id: int, cfg: SimConfig, collector,
                 harq_rng: Rng):
        self.sim = sim
        self.enb_id = enb_id
        self.cfg = cfg
        self.collector = collector
        self.harq_rng = harq_rng
        self.ues: list[Ue] = []                   # round-robin order
        self.rr_index = -1
        # downstream hookup (set by the runner)
        self.egress_sink = None                   # fn(chunks, t)
        self.bwr_emitter = None                   # BwrEmitter or None
        self.wake = None                          # fn(t): wake the subframe tick at t

    # -- control ladder ---------------------------------------------------

    def on_sr(self, ue: Ue) -> None:
        # The BSR grant is issued sr_to_bsr_grant_us after the SR; the BSR it
        # carries reaches the eNB grant_to_bsr_us later.
        self.sim.schedule_in(self.cfg.sr_to_bsr_grant_us + self.cfg.grant_to_bsr_us,
                             PRIO_CONTROL, ue.emit_bsr)

    def on_bsr(self, ue: Ue, per_lcg: list[int]) -> None:
        """A buffer report arrived; it becomes schedulable after processing."""
        self.sim.schedule_in(self.cfg.bsr_to_data_grant_us, PRIO_CONTROL,
                             self._apply_demand, ue, list(per_lcg))

    def _apply_demand(self, ue: Ue, per_lcg: list[int]) -> None:
        granted = ue.granted
        demand = [max(0, per_lcg[g] - granted[g]) for g in range(NUM_LCGS)]
        ue.demand = demand
        if self.wake is not None and any(demand):
            # Control events precede a same-instant tick, so that tick serves it.
            self.wake(-(-self.sim.now // SUBFRAME_US) * SUBFRAME_US)

    # -- per-subframe scheduling ------------------------------------------

    def busy(self) -> bool:
        """Whether a subframe tick could act: some UE has demand, or the
        report emitter holds entries not yet built into a report."""
        return (any(any(ue.demand) for ue in self.ues)
                or (self.bwr_emitter is not None and bool(self.bwr_emitter.entries)))

    def on_subframe(self) -> None:
        """Serve one transport block per subframe, round-robin over demand."""
        t = self.sim.now
        ues = self.ues
        n = len(ues)
        served = None
        for step in range(1, n + 1):
            idx = (self.rr_index + step) % n
            ue = ues[idx]
            if sum(ue.demand) <= 0:
                continue
            if self.cfg.harq_enabled:
                pid = ((t + self.cfg.grant_to_data_us) // SUBFRAME_US) % HARQ_PROCESSES
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
        demand, granted = ue.demand, ue.granted
        budget = min(sum(demand), tbs_bytes(ue.mcs))
        lcg_bytes: dict[int, int] = {}
        left = budget
        for g in range(NUM_LCGS):
            take = min(demand[g], left)
            if take > 0:
                demand[g] -= take
                granted[g] += take
                lcg_bytes[g] = take
                left -= take
            if left == 0:
                break
        tx_time = t + self.cfg.grant_to_data_us
        self.collector.count("lte_granted_bytes", budget)
        self.sim.schedule_at(tx_time, PRIO_DATA, self._fire_grant, ue, budget, lcg_bytes)
        if self.bwr_emitter is not None:
            self.bwr_emitter.note_grant(lcg_bytes, tx_time + self.cfg.enb_decode_us)

    def _fire_grant(self, ue: Ue, grant_bytes: int, lcg_bytes: dict[int, int]) -> None:
        granted = ue.granted
        for g, nbytes in lcg_bytes.items():
            granted[g] -= nbytes
        ue.transmit(grant_bytes)

    def note_retx(self, lcg_bytes: dict[int, int], tx_time: int) -> None:
        """A failed block retransmits at a known future time; announce it."""
        if self.bwr_emitter is not None:
            self.bwr_emitter.note_grant(dict(lcg_bytes),
                                        tx_time + self.cfg.enb_decode_us)
            if self.wake is not None:
                # Decodes follow a same-instant tick: the next one reports it.
                self.wake((self.sim.now // SUBFRAME_US + 1) * SUBFRAME_US)

    # -- egress ------------------------------------------------------------

    def on_tb_decoded(self, ue: Ue, chunks, lcg_bytes, total: int, report) -> None:
        t = self.sim.now
        self.collector.count("lte_inflight_bytes", -total)
        self.collector.count("lte_egressed_bytes", total)
        if self.egress_sink is not None:
            self.egress_sink(chunks, t)
        if report is not None:
            self.on_bsr(ue, report)


class SubframeTick:
    """The subframe clock shared by all eNBs: each tick runs on_subframe on
    every eNB in order. It sleeps while no eNB is busy(), because such a tick
    would grant nothing and build no report; an eNB that gains work wakes it
    through Enb.wake at the first subframe boundary that can serve the work.
    """

    def __init__(self, sim: Simulator, enbs: list[Enb]):
        self.sim = sim
        self.enbs = enbs
        self.asleep = True
        for enb in enbs:
            enb.wake = self.wake

    def wake(self, t: int) -> None:
        """Run the next tick at subframe boundary t, unless one is queued."""
        if self.asleep:
            self.asleep = False
            self.sim.schedule_at(t, PRIO_SCHED, self.tick)

    def tick(self) -> None:
        for enb in self.enbs:
            enb.on_subframe()
        if any(enb.busy() for enb in self.enbs):
            self.sim.schedule_in(SUBFRAME_US, PRIO_SCHED, self.tick)
        else:
            self.asleep = True
