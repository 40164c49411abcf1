"""LTE uplink models: UE buffering and SR/BSR signaling, round-robin eNB
scheduling, slow-fading MCS evolution, transport-block sizing, and synchronous
HARQ with fixed 8 ms retransmission spacing.

The MCS is drawn per channel tick, and only when a grant can use it: a
demand that fits the smallest transport block is granted whole at any MCS,
so such a grant reads no channel, and a tick that no grant reads is skipped
in the channel stream without drawing.

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


class LteError(Exception):
    pass


def tbs_bytes(mcs: int) -> int:
    """Transport block capacity in bytes for one subframe at the given MCS:
    linear, 150 B per index."""
    if not MCS_MIN <= mcs <= MCS_MAX:
        raise LteError(f"mcs {mcs} outside supported range [{MCS_MIN}, {MCS_MAX}]")
    return 150 * mcs


# The smallest transport block: a demand up to it fits a block at any MCS.
TBS_MIN = tbs_bytes(MCS_MIN)


def draw_mcs(mean: float, sigma: float, rng: Rng) -> int:
    """One UE's MCS for one channel tick: a normal draw, none when sigma is 0.
    Clamped before rounding, so that a huge draw cannot overflow round()."""
    draw = rng.normal(mean, sigma) if sigma else float(mean)
    return round(min(MCS_MAX, max(MCS_MIN, draw)))


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


@dataclass(slots=True)
class Packet:
    """A unit of user traffic tracked from UE arrival to CMTS egress. Each
    stage has its own stamp, set once and never before the stage ahead of
    it (-1: not yet)."""

    id: int
    ue_id: int
    enb_id: int
    size_bytes: int
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

    def stamp_ue_arrival(self, t: int) -> None:
        if self.ue_arrival >= 0:
            raise LteError(f"stage ue_arrival already set for packet {self.id}")
        self.ue_arrival = t

    def stamp_cm_arrival(self, t: int) -> None:
        if self.cm_arrival >= 0:
            raise LteError(f"stage cm_arrival already set for packet {self.id}")
        prev = self.ue_arrival
        if t < prev:
            raise LteError(f"stage cm_arrival={t} precedes prior stage ({prev})")
        self.cm_arrival = t

    def stamp_cmts_egress(self, t: int) -> None:
        if self.cmts_egress >= 0:
            raise LteError(f"stage cmts_egress already set for packet {self.id}")
        prev = self.cm_arrival
        if t < prev:
            raise LteError(f"stage cmts_egress={t} precedes prior stage ({prev})")
        self.cmts_egress = t


class HarqProcess:
    """One transport block in flight. With HARQ on it holds a synchronous
    HARQ process: retransmissions exactly 8 ms apart."""

    __slots__ = ("process_id", "tb_bytes", "attempt", "chunks")

    def __init__(self, process_id: int, tb_bytes: int, chunks):
        self.process_id = process_id
        self.tb_bytes = tb_bytes
        self.attempt = 0
        self.chunks = chunks          # [(packet, nbytes)]


class Ue:
    """User equipment: buffer, SR arming, transmission, HARQ. Every packet
    of a run belongs to the run's one LCG, so the buffer, the demand and the
    granted bytes are single counts."""

    def __init__(self, sim: Simulator, ue_id: int, enb: "Enb", sr_phase: int):
        self.sim = sim
        self.ue_id = ue_id
        self.enb = enb
        self.cfg = enb.cfg
        self.counters = enb.counters
        self.sr_phase = sr_phase
        self.tbs = tbs_bytes(22)      # block size at its MCS in the last tick drawn
        self.buffer = deque()         # [packet, remaining], in arrival order
        self.buffer_bytes = 0
        self.pending_sr = False
        self.demand = 0               # bytes the eNB may still grant
        self.granted = 0              # bytes granted, not yet sent
        self.reported = 0             # bytes of the latest BSR not sent since
        self.last_report_time = -self.cfg.bsr_period_us   # the first report is due
        self.harq: dict[int, HarqProcess] = {}

    # -- arrivals ---------------------------------------------------------

    def on_arrival(self, pkt: Packet) -> None:
        t = self.sim.now
        pkt.stamp_ue_arrival(t)
        self.buffer.append([pkt, pkt.size_bytes])
        self.buffer_bytes += pkt.size_bytes
        counters = self.counters
        counters.admitted_bytes += pkt.size_bytes
        counters.admitted_packets += 1
        if self._needs_sr():
            self._arm_sr(t)

    def _needs_sr(self) -> bool:
        return not (self.pending_sr or self.granted or self.reported)

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
        if self.buffer_bytes == 0:
            return                    # zero report: nothing to transmit
        self.enb.on_bsr(self, self.buffer_bytes)

    def _record_report(self) -> None:
        self.reported = self.buffer_bytes
        self.last_report_time = self.sim.now

    # -- transmission -----------------------------------------------------

    def transmit(self, grant_bytes: int) -> None:
        """Fire an UL grant: drain the buffer into one transport block. The
        grant's bytes that find no buffered byte (a stale report over-granted
        them) are counted as unused, on the eut's eNB also on their own."""
        t = self.sim.now
        chunks, total = self._drain(grant_bytes)
        if total < grant_bytes:
            self.counters.lte_grant_unused_bytes += grant_bytes - total
            if self.enb.enb_id == self.cfg.eut_enb:
                self.counters.eut_grant_unused_bytes += grant_bytes - total
        if total == 0:
            return
        self.reported = max(0, self.reported - total)
        # Buffer state rides along with the transport block (refreshed at
        # most every bsr_period_us when the occupancy is unchanged).
        report = None
        if (self.buffer_bytes != self.reported
                or t - self.last_report_time >= self.cfg.bsr_period_us):
            self._record_report()
            report = self.buffer_bytes
        pid = (t // SUBFRAME_US) % HARQ_PROCESSES
        proc = HarqProcess(pid, total, chunks)
        if self.cfg.harq_enabled:
            if pid in self.harq:
                raise LteError(f"HARQ process {pid} already active on ue {self.ue_id}")
            self.harq[pid] = proc
        self.counters.lte_inflight_bytes += total
        self._attempt(proc, report)

    def _drain(self, budget: int):
        """Take up to budget bytes off the buffer's head: (chunks, total)."""
        chunks = []
        total = 0
        queue = self.buffer
        while queue and total < budget:
            entry = queue[0]
            take = min(entry[1], budget - total)
            entry[1] -= take
            total += take
            chunks.append((entry[0], take))
            if entry[1] == 0:
                queue.popleft()
        self.buffer_bytes -= total
        return chunks, total

    def _attempt(self, proc: HarqProcess, report) -> None:
        """One transmission attempt; with HARQ on, its outcome is drawn."""
        ok = (not self.cfg.harq_enabled
              or self.enb.harq_rng.bernoulli(1.0 - self.cfg.harq_bler))
        self.sim.schedule_in(self.cfg.enb_decode_us, PRIO_DATA,
                             self._on_decode, proc, ok, report)

    def _on_decode(self, proc: HarqProcess, ok: bool, report) -> None:
        """The block ends on success or once its retransmissions run out;
        otherwise it retransmits one HARQ round trip after this attempt."""
        if not ok and proc.attempt < self.cfg.harq_max_retx:
            proc.attempt += 1
            next_tx = self.sim.now - self.cfg.enb_decode_us + HARQ_RTT_US
            self.enb.note_retx(proc.tb_bytes, next_tx)
            self.sim.schedule_at(next_tx, PRIO_DATA, self._attempt, proc, None)
        else:
            self.harq.pop(proc.process_id, None)
            self.enb.collector.record_tb(attempts=proc.attempt + 1, success=ok)
            if ok:
                self.enb.on_tb_decoded(proc.chunks, proc.tb_bytes)
            else:
                counters = self.counters
                counters.lte_inflight_bytes -= proc.tb_bytes
                counters.harq_dropped_bytes += proc.tb_bytes
                for pkt, _ in proc.chunks:
                    if not pkt.dropped:
                        pkt.dropped = True
                        counters.dropped_packets += 1
        # The piggybacked buffer report reaches the scheduler either way.
        if report is not None:
            self.enb.on_bsr(self, report)


class Channel:
    """The slow-fading channel of a run's UEs, drawn on demand. Tick k covers
    [k, k + 1) * channel_update_us and takes one normal per UE, in the run's
    UE order, from the channel stream. The first grant that reads a tick
    draws it whole and sets each UE's tbs; the ticks no grant read are
    skipped in the stream, so each tick draws what it would if every tick
    were drawn. With sigma 0 nothing is drawn or skipped."""

    def __init__(self, cfg: SimConfig, rng: Rng, ues: list[Ue]):
        self.rng = rng
        self.ues = ues
        self.mean = cfg.mcs_mean
        self.sigma = cfg.mcs_sigma
        self.period = cfg.channel_update_us
        self.ticks = 0                # ticks the stream has passed
        self.tick_end = 0             # the end of the tick last drawn

    def draw(self, t: int) -> None:
        """Draw the tick that holds t, skipping the unread ticks before it."""
        tick = t // self.period
        mean, sigma, rng = self.mean, self.sigma, self.rng
        if sigma:
            rng.skip(2 * len(self.ues) * (tick - self.ticks))
        for ue in self.ues:
            ue.tbs = tbs_bytes(draw_mcs(mean, sigma, rng))
        self.ticks = tick + 1
        self.tick_end = self.ticks * self.period


class Enb:
    """Base station: round-robin grant scheduler over its UEs' demand, BWR
    builder."""

    def __init__(self, sim: Simulator, enb_id: int, cfg: SimConfig, collector,
                 harq_rng: Rng, channel: Channel | None = None):
        self.sim = sim
        self.enb_id = enb_id
        self.cfg = cfg
        self.collector = collector
        self.counters = collector.counters
        self.harq_rng = harq_rng
        # the run's channel; unset, it holds no UE, so each keeps MCS 22
        self.channel = channel if channel is not None else Channel(cfg, Rng(0), [])
        self.ues: list[Ue] = []                   # round-robin order
        self.ready: set[Ue] = set()               # the UEs with nonzero demand
        self.rr_index = -1
        # downstream hookup (set by the runner; unwired, it does nothing)
        self.egress_sink = lambda chunks, t: None
        self.bwr_emitter = None                   # BwrEmitter or None
        self.wake = lambda t: None                # wake the subframe tick at t

    # -- control ladder ---------------------------------------------------

    def on_sr(self, ue: Ue) -> None:
        # The BSR grant is issued sr_to_bsr_grant_us after the SR; the BSR it
        # carries reaches the eNB grant_to_bsr_us later.
        self.sim.schedule_in(self.cfg.sr_to_bsr_grant_us + self.cfg.grant_to_bsr_us,
                             PRIO_CONTROL, ue.emit_bsr)

    def on_bsr(self, ue: Ue, nbytes: int) -> None:
        """A buffer report of nbytes arrived; it becomes schedulable after
        processing."""
        self.sim.schedule_in(self.cfg.bsr_to_data_grant_us, PRIO_CONTROL,
                             self._apply_demand, ue, nbytes)

    def _apply_demand(self, ue: Ue, nbytes: int) -> None:
        """The reported bytes not yet granted become the UE's demand."""
        ue.demand = max(0, nbytes - ue.granted)
        if ue.demand:
            self.ready.add(ue)
            # Control events precede a same-instant tick, so that tick serves it.
            self.wake(-(-self.sim.now // SUBFRAME_US) * SUBFRAME_US)
        else:
            self.ready.discard(ue)

    # -- per-subframe scheduling ------------------------------------------

    def busy(self) -> bool:
        """Whether a subframe tick could act: some UE is ready (has demand),
        or the report emitter holds entries not yet built into a report.
        Reads the ready set, not the UEs' demand."""
        return (bool(self.ready)
                or (self.bwr_emitter is not None and bool(self.bwr_emitter.entries)))

    def on_subframe(self) -> None:
        """Serve one transport block per subframe, round-robin over the ready
        UEs. The round-robin walk runs only when some UE is ready, and tests
        membership of the ready set; the set is never iterated, so the order
        of service is the UEs' list order alone."""
        t = self.sim.now
        ready = self.ready
        if ready:
            ues = self.ues
            n = len(ues)
            harq_pid = None               # with HARQ off, no UE holds a process
            if self.cfg.harq_enabled:
                harq_pid = ((t + self.cfg.grant_to_data_us) // SUBFRAME_US) % HARQ_PROCESSES
            for step in range(1, n + 1):
                idx = (self.rr_index + step) % n
                ue = ues[idx]
                if ue not in ready or harq_pid in ue.harq:
                    continue
                self.rr_index = idx
                self._issue_data_grant(ue, t)
                break
        if self.bwr_emitter is not None:
            self.bwr_emitter.on_subframe(t)

    def _issue_data_grant(self, ue: Ue, t: int) -> None:
        budget = ue.demand
        if budget > TBS_MIN:              # a smaller demand fits any block
            channel = self.channel
            if t >= channel.tick_end:
                channel.draw(t)
            budget = min(budget, ue.tbs)
        ue.demand -= budget
        ue.granted += budget
        if not ue.demand:
            self.ready.discard(ue)
        tx_time = t + self.cfg.grant_to_data_us
        self.counters.lte_granted_bytes += budget
        self.sim.schedule_at(tx_time, PRIO_DATA, self._fire_grant, ue, budget)
        if self.bwr_emitter is not None:
            self.bwr_emitter.note_grant(budget, tx_time + self.cfg.enb_decode_us)

    def _fire_grant(self, ue: Ue, grant_bytes: int) -> None:
        ue.granted -= grant_bytes
        ue.transmit(grant_bytes)

    def note_retx(self, nbytes: int, tx_time: int) -> None:
        """A failed block of nbytes retransmits at a known future time;
        announce it."""
        if self.bwr_emitter is not None:
            self.bwr_emitter.note_grant(nbytes, tx_time + self.cfg.enb_decode_us)
            # Decodes follow a same-instant tick: the next one reports it.
            self.wake((self.sim.now // SUBFRAME_US + 1) * SUBFRAME_US)

    # -- egress ------------------------------------------------------------

    def on_tb_decoded(self, chunks, total: int) -> None:
        counters = self.counters
        counters.lte_inflight_bytes -= total
        counters.lte_egressed_bytes += total
        self.egress_sink(chunks, self.sim.now)


class SubframeTick:
    """The subframe clock shared by all eNBs: each tick runs on_subframe on
    every eNB in order. It sleeps while no eNB is busy(), because such a tick
    would grant nothing and build no report; an eNB that gains work wakes it
    through Enb.wake at the first subframe boundary that can serve the work.
    Both busy() and on_subframe read each eNB's ready set, so a tick costs
    no walk over the UEs of an eNB that has none ready.
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
        enbs = self.enbs
        for enb in enbs:
            enb.on_subframe()
        for enb in enbs:              # a plain loop: no generator frame per tick
            if enb.busy():
                self.sim.schedule_in(SUBFRAME_US, PRIO_SCHED, self.tick)
                return
        self.asleep = True
