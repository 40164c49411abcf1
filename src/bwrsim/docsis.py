"""DOCSIS upstream models: best-effort request/grant with contention and
truncated binary exponential backoff, MAP-cycle scheduling, unsolicited
periodic grants, and byte-accurate channel occupancy.

Every MAP is checked as it is built (no over-commitment, no overlap inside its
window); no per-grant, per-MAP or per-region history is kept.

The CMTS and the CM read their timing from the run's SimConfig. The CMTS runs
a MAP cycle every map_interval_us. The MAP generated at time m describes the
allocation window [m + maps_in_advance*map_interval_us, +map_interval_us) and
consumes requests and bandwidth reports delivered at least cmts_proc_us before
m. Every window opens with a contention region. In a bwr run the CMTS also
schedules unsolicited grants, which carry the bandwidth reports and belong to
no service flow; they sit at their phase-locked instants, or right after the
reservation before them. Each eNB's data has one best-effort flow. REQs
and reports wait in one demand queue, where report blocks rank before REQs.
A request delivered at r therefore reaches a usable grant no earlier than
r + (1 + maps_in_advance) * map_interval_us. The CM requests no byte that a
forwarded report describes, and holds the report's credit until its egress,
when the eNB hands those bytes over or never will.

A quiet upstream costs only its MAPs, and an idle one not even those. The CM
resolves a contention region only when a REQ is put into it. The CMTS lays
out a window's contention region and unsolicited grants, and the free gaps
they leave, once per distinct window (see window_layouts), then shifts that
layout, gaps and grants, to each MAP's window; placement fills the gaps
earliest first. An unsolicited grant is an event only when it carries a
report: the layouts fix every grant's start for the run, as one sorted round
of starts that repeats, so the CM books the first one at or after a frame's
arrival in its queue, and the next while frames remain; the grants that
carried nothing are counted once the run has ended. With nothing pending,
the MAP cycle sleeps, unsolicited grants or not: such a MAP would place no
grant, and the CM acts on no MAP. A delivered REQ or report wakes it at the
next MAP boundary. A MAP that does go out still lists its window's
unsolicited grants, and its checks cover them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Optional

from .core import PRIO_CONTROL, PRIO_SCHED, PRIO_SERVICE, Rng, Simulator
from .bwr import BandwidthReport, decode_bwr, encode_bwr

if TYPE_CHECKING:
    from .config import SimConfig

BE = "be"
UGS = "ugs"
_REQ_RANK = 0x100           # above every LCG id a report block can encode


class DocsisError(Exception):
    pass


def ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def serialization_us(nbytes: int, bps: int) -> int:
    """Wire time of nbytes at the upstream rate, rounded up to whole us."""
    return ceil_div(nbytes * 8 * 1_000_000, bps)


def slot_duration(cfg: SimConfig) -> int:
    """Wire time of one contention slot."""
    return serialization_us(cfg.slot_bytes, cfg.upstream_bps)


def region_duration(cfg: SimConfig) -> int:
    """Length of the contention region that opens every MAP window."""
    return cfg.contention_slots * slot_duration(cfg)


def window_capacity_bytes(cfg: SimConfig) -> int:
    """Bytes the upstream carries in one MAP window."""
    return cfg.map_interval_us * cfg.upstream_bps // 8_000_000


@dataclass
class ServiceFlow:
    """The best-effort service flow of one eNB's data: its CM-side queue,
    its request state and the credit of the reports that describe it."""

    enb_id: int
    # CM-side queue of (packet, remaining_bytes) in arrival order
    queue: deque = field(default_factory=deque)
    queue_bytes: int = 0
    uncovered_bytes: int = 0      # queued bytes not yet requested or described
    req: Optional[int] = None     # absolute contention slot of the pending REQ
    backoff_window: int = 8
    # pipelined-mode suppression ledger: [egress_time, remaining_bytes], one
    # entry per forwarded report, held until the report's egress
    described: deque = field(default_factory=deque)

    def consume_described(self, nbytes: int, now: int) -> int:
        """Use up described-byte credit FIFO; returns bytes actually covered.

        Credit lasts until its report's egress and expires once egress < now:
        the eNB announces egress as transmission time + enb_decode_us, and the
        decode hands the bytes over then or never. Spent and expired entries
        leave the front; an expired one behind it is skipped in place.
        """
        described = self.described
        while described and (described[0][1] == 0 or described[0][0] < now):
            described.popleft()
        covered = 0
        for entry in described:
            if entry[0] < now:
                continue                # expired behind a later egress: HARQ reorders them
            take = min(entry[1], nbytes - covered)
            entry[1] -= take
            covered += take
            if covered == nbytes:
                break
        return covered


@dataclass
class Grant:
    flow: Optional[ServiceFlow]   # None for an unsolicited grant
    start: int
    duration: int
    nbytes: int
    kind: str                     # "be", "bwr", "ugs"


@dataclass
class MapMessage:
    """One MAP: the described window and its allocations."""

    window_start: int
    window_end: int
    region_duration: int       # the contention region opens the window
    grants: list[Grant] = field(default_factory=list)


def _fill(gaps: list[tuple[int, int]], min_start: int, nbytes: int, bps: int
          ) -> list[tuple[int, int, int]]:
    """Place up to nbytes in a window's free gaps, earliest first, each piece
    at the later of its gap's start and min_start. Returns (start, duration,
    bytes) pieces and takes their time out of gaps, which keep the free time
    on either side of a piece; bytes not placed stay with the caller."""
    pieces = []
    i = 0
    while nbytes > 0 and i < len(gaps):
        gap_start, gap_end = gaps[i]
        start = max(gap_start, min_start)
        fit = min(nbytes, (gap_end - start) * bps // 8_000_000)
        if fit <= 0:
            i += 1
            continue
        duration = serialization_us(fit, bps)
        pieces.append((start, duration, fit))
        nbytes -= fit
        gaps[i:i + 1] = [gap for gap in ((gap_start, start), (start + duration, gap_end))
                         if gap[0] < gap[1]]
    return pieces


def open_window(start: int, cfg: SimConfig, ugs: bool,
                phase: Optional[int] = None) -> tuple[list[tuple[int, int]], list[Grant]]:
    """A MAP window as its free gaps, in time order, and, when the CMTS
    schedules unsolicited grants (`ugs`), the ones the config provisions, at
    `phase` when given instead of cfg.ugs_phase(). The contention region opens
    the window. One sweep lays the grants out: each starts at its nominal
    instant or, when that is still taken, where the reservation before it
    ends; DocsisError when one does not fit."""
    end = start + cfg.map_interval_us
    free = start + region_duration(cfg)
    gaps = []
    grants = []
    if ugs:
        size, period = cfg.ugs_grant_bytes, cfg.ugs_period_us
        if phase is None:
            phase = cfg.ugs_phase()
        dur = serialization_us(size, cfg.upstream_bps)
        first = phase + ceil_div(max(0, start - phase), period) * period
        for nominal in range(first, end, period):
            if nominal > free:
                gaps.append((free, nominal))
            actual = max(nominal, free)
            free = actual + dur
            if free > end:
                raise DocsisError(f"no room for a {dur} us reservation at {nominal}")
            grants.append(Grant(None, actual, dur, size, UGS))
    if free < end:
        gaps.append((free, end))
    return gaps, grants


def window_layouts(cfg: SimConfig, phase: Optional[int] = None
                   ) -> list[tuple[list[tuple[int, int]], list[int]]]:
    """Each distinct MAP window of a run with unsolicited grants, the first
    MAP's first, as (free gaps, UGS grant starts) offset from its start;
    DocsisError when the grants do not fit. `phase` is open_window's. The
    layouts repeat every lcm(ugs_period_us, map_interval_us), so window k
    takes entry k mod their count; a run shorter than that lays out only its
    own windows."""
    mi = cfg.map_interval_us
    layouts = []
    for k in range(min(math.lcm(cfg.ugs_period_us, mi), cfg.duration_us + mi) // mi):
        start = (cfg.maps_in_advance + k) * mi
        gaps, grants = open_window(start, cfg, True, phase)
        layouts.append(([(s - start, e - start) for s, e in gaps],
                        [g.start - start for g in grants]))
    return layouts


class Cmts:
    """Termination system: consumes REQs and reports, emits MAPs, takes egress.
    With `ugs` (a bwr run) it also schedules the unsolicited grants that carry
    the reports."""

    def __init__(self, sim: Simulator, cfg: SimConfig, collector, ugs: bool):
        self.sim = sim
        self.cfg = cfg
        self.collector = collector
        self.ugs = ugs
        self.grants_emitted = 0     # data grants scheduled
        self.cm: Optional["Cm"] = None
        # REQs and report blocks not yet granted, in service order (by rank,
        # then arrival): [arrival, rank, flow, not_before, bytes, kind]
        self.demand: list[list] = []
        mi = cfg.map_interval_us
        self._lead = cfg.maps_in_advance * mi
        self._region = region_duration(cfg)
        self._capacity = window_capacity_bytes(cfg)
        self._ugs_duration = serialization_us(cfg.ugs_grant_bytes, cfg.upstream_bps)
        # Without unsolicited grants every window holds its contention region
        # alone. One round of the layouts, from the first MAP's window, and
        # the start of each UGS grant in it, offset from the round's start.
        self._layouts = window_layouts(cfg) if ugs else [open_window(0, cfg, False)]
        self._round = len(self._layouts) * mi
        self._ugs_starts = [k * mi + s for k, (_, starts) in enumerate(self._layouts)
                            for s in starts]
        self._asleep = False        # whoever builds the CMTS queues its first cycle

    def on_req_delivered(self, flow: ServiceFlow, nbytes: int, delivered_at: int) -> None:
        """A REQ ranks after every report block and may fill any window."""
        self.demand.append([delivered_at, _REQ_RANK, flow, delivered_at, nbytes, BE])
        if self._asleep:
            self._wake()

    def on_bwr_frame(self, frame: bytes) -> None:
        """A bandwidth report reached the CMTS in an unsolicited grant."""
        report = decode_bwr(frame)
        self.collector.counters.bwr_frames_received += 1
        if report.total_bytes() == 0:
            return
        data_flow = self.cm.flows.get(report.enb_id)
        if data_flow is None:
            raise DocsisError(f"report from enb {report.enb_id} with no data flow")
        # One demand entry per nonzero block (a bulk report has one, LCG 0),
        # ranked by LCG id behind that LCG's queued entries, not before egress.
        for lcg_id, nbytes in sorted(report.blocks):
            if nbytes > 0:
                insort(self.demand, [self.sim.now, lcg_id, data_flow,
                                     report.egress_time, nbytes, "bwr"],
                       key=itemgetter(1))
        if self._asleep:
            self._wake()

    # -- MAP cycle ----------------------------------------------------------

    def idle(self) -> bool:
        """Whether the next MAP cycle would place no grant: no REQ or report
        pending. UGS grants need no MAP: the CM books them (Cm._book_ugs)."""
        return not self.demand

    def _wake(self) -> None:
        """Run the sleeping MAP cycle at the first MAP boundary at or after
        now. Deliveries are control events, which precede a same-instant MAP,
        so a cycle at now sees them."""
        self._asleep = False
        mi = self.cfg.map_interval_us
        self.sim.schedule_at(ceil_div(self.sim.now, mi) * mi, PRIO_SCHED, self.map_cycle)

    def map_cycle(self) -> None:
        t = self.sim.now
        cfg = self.cfg
        start = t + self._lead
        end = start + cfg.map_interval_us
        msg = MapMessage(start, end, self._region)
        cutoff = t - cfg.cmts_proc_us

        gaps, ugs_grants = self._open_window(start)
        for grant in ugs_grants:
            self._emit_grant(msg, grant)

        # One walk in service order: report blocks by LCG id, each LCG in
        # report order, then REQs in delivery order. An entry delivered by the
        # cutoff is placed at or after its not_before, if that is in the window.
        if self.demand:
            bps = cfg.upstream_bps
            pending = []
            for entry in self.demand:
                arrival, _, flow, not_before, nbytes, kind = entry
                if arrival <= cutoff and not_before < end:
                    for at, duration, size in _fill(gaps, not_before, nbytes, bps):
                        self._emit_grant(msg, Grant(flow, at, duration, size, kind))
                        nbytes -= size
                    entry[4] = nbytes
                if nbytes > 0:
                    pending.append(entry)
            self.demand = pending

        # The contention region opens the window; each grant must start after
        # the previous reservation ends and end inside the window. Windows are
        # disjoint, so this covers the whole channel. One pass sums the bytes
        # and finds the first overlap; the checks then raise in their order.
        grants = msg.grants
        if len(grants) > 1:
            grants = sorted(grants, key=attrgetter("start"))
        granted = 0
        overlap = None
        free_from = start + self._region
        for g in grants:
            granted += g.nbytes
            if g.start < free_from and overlap is None:
                overlap = g.start
            free_from = g.start + g.duration
        cap = self._capacity
        if granted > cap:
            raise DocsisError(f"MAP window at {start} over-committed: {granted} > {cap}")
        if overlap is not None:
            raise DocsisError(f"grant at {overlap} overlaps in the MAP window at {start}")
        if free_from > end:
            raise DocsisError(f"MAP window [{start},{end}) overruns to {free_from}")
        self.cm.on_map(msg)
        if self.idle():
            self._asleep = True
        else:
            self.sim.schedule_in(cfg.map_interval_us, PRIO_SCHED, self.map_cycle)

    def _open_window(self, start: int) -> tuple[list[tuple[int, int]], list[Grant]]:
        """open_window for this CMTS: the window's entry of its layouts,
        shifted to start."""
        mi = self.cfg.map_interval_us
        layouts = self._layouts
        gaps, ugs_starts = layouts[(start - self._lead) // mi % len(layouts)]
        dur, size = self._ugs_duration, self.cfg.ugs_grant_bytes
        return ([(start + s, start + e) for s, e in gaps],
                [Grant(None, start + s, dur, size, UGS) for s in ugs_starts])

    def _emit_grant(self, msg: MapMessage, grant: Grant) -> None:
        """List a grant in its MAP, and schedule it unless it is a UGS grant:
        the CM books those that carry a report (Cm._book_ugs)."""
        msg.grants.append(grant)
        if grant.kind != UGS:
            self.sim.schedule_at(grant.start, PRIO_SERVICE,
                                 self.cm.on_grant, grant, self.grants_emitted)
            self.grants_emitted += 1

    # -- UGS grants from the round of layouts ---------------------------------
    # Window k of the run, counted from the first MAP's, opens at
    # lead + k * map_interval_us, so the round repeats from lead every _round
    # us. A run shorter than lcm(ugs_period_us, map_interval_us) lays out
    # only its own windows, and no time up to its end leaves the first round.

    def ugs_grants_before(self, t: int) -> int:
        """How many UGS grants of the run's MAP windows start before t: whole
        rounds, then the grants before t's offset in its round."""
        if t <= self._lead:
            return 0
        rounds, offset = divmod(t - self._lead, self._round)
        return rounds * len(self._ugs_starts) + bisect_left(self._ugs_starts, offset)

    def next_ugs_grant(self, t: int) -> Optional[Grant]:
        """The first UGS grant that starts at or after t, or None when no MAP
        window that opens by the run's end holds one (none would fire)."""
        if not self._ugs_starts:
            return None
        rounds, i = divmod(self.ugs_grants_before(t), len(self._ugs_starts))
        at = rounds * self._round + self._ugs_starts[i]
        if self._lead + at - at % self.cfg.map_interval_us > self.cfg.duration_us:
            return None
        return Grant(None, self._lead + at, self._ugs_duration, self.cfg.ugs_grant_bytes, UGS)

    def ugs_occupancy_bps(self) -> float:
        """The rate of the UGS grants that start before the run's end."""
        ugs_bytes = self.cfg.ugs_grant_bytes * self.ugs_grants_before(self.cfg.duration_us)
        return ugs_bytes * 8 * 1_000_000 / self.cfg.duration_us

    # -- egress ---------------------------------------------------------------

    def on_packet_egress(self, pkt, t: int) -> None:
        pkt.stamp_cmts_egress(t)
        self.collector.record_egress(pkt)


class Cm:
    """Cable modem: flow queues, request arming, contention, transmission,
    and the report frames waiting for an unsolicited grant."""

    def __init__(self, sim: Simulator, cmts: Cmts, cfg: SimConfig, collector,
                 contention_rng: Rng):
        self.sim = sim
        self.cmts = cmts
        self.cfg = cfg
        self.collector = collector
        self.counters = collector.counters
        self.rng = contention_rng
        self.flows: dict[int, ServiceFlow] = {}     # by eNB id
        self.report_frames: deque[bytes] = deque()
        self._ugs_carried = 0       # UGS grants that carried a frame
        self._slot_us = slot_duration(cfg)
        self._region_us = region_duration(cfg)
        # from a grant's start to when its first byte reaches the CMTS
        self._wire_offset_us = cfg.propagation_us + cfg.cm_framing_us
        # Regions whose resolve_region is queued. A resolve can share its
        # instant with other control-plane events; none of them touches the
        # contention state (on_bwr_frame, the only DOCSIS one, touches only
        # the CMTS's demand queue), so their order does not matter.
        self._queued_regions: set[int] = set()
        cmts.cm = self

    def add_flow(self, flow: ServiceFlow) -> None:
        flow.backoff_window = self.cfg.backoff_init
        self.flows[flow.enb_id] = flow

    # -- ingress from the LTE side -------------------------------------------

    def enqueue_chunks(self, flow: ServiceFlow, chunks, t: int) -> None:
        """Transport-block bytes handed over by the base station. Only a flow
        that holds report credit (the eut's, in a bwr run) spends any."""
        queue = flow.queue
        for pkt, nbytes in chunks:
            queue.append([pkt, nbytes])
            flow.queue_bytes += nbytes
            pkt.cm_received += nbytes
            # Last-byte rule: retransmitted blocks can arrive out of order,
            # so the stage is set by byte count, not by drain order.
            if pkt.cm_received == pkt.size_bytes:
                pkt.stamp_cm_arrival(t)
            if flow.described:
                nbytes -= flow.consume_described(nbytes, t)
            flow.uncovered_bytes += nbytes
        if flow.req is None and flow.uncovered_bytes > 0:
            self._arm_request(flow, t)

    # -- contention ------------------------------------------------------------

    def _arm_request(self, flow: ServiceFlow, t: int) -> None:
        """Arm a REQ from the first region at or after t that a MAP can
        describe (window maps_in_advance is the earliest)."""
        cfg = self.cfg
        self._defer(flow, max(cfg.maps_in_advance, ceil_div(t, cfg.map_interval_us)))

    def _defer(self, flow: ServiceFlow, region_index: int) -> None:
        """Put the flow's REQ in a random slot of its backoff window, counted
        from the first slot of region_index. The window can span several
        regions, so the REQ lands in the region its slot falls in."""
        slots = self.cfg.contention_slots
        flow.req = region_index * slots + self.rng.randbelow(flow.backoff_window)
        self._queue_region(flow.req // slots)

    def _queue_region(self, region_index: int) -> None:
        """Resolve a region that holds a REQ at the end of its contention
        slots, with one event however many REQs it holds."""
        if region_index not in self._queued_regions:
            self._queued_regions.add(region_index)
            self.sim.schedule_at(region_index * self.cfg.map_interval_us
                                 + self._region_us, PRIO_CONTROL,
                                 self.resolve_region, region_index)

    def resolve_region(self, region_index: int) -> None:
        """End of a contention region: lone REQs deliver, others back off."""
        self._queued_regions.discard(region_index)
        cfg = self.cfg
        slots = cfg.contention_slots
        lo, hi = region_index * slots, (region_index + 1) * slots
        region_start = region_index * cfg.map_interval_us
        by_slot: dict[int, list[ServiceFlow]] = {}
        for f in self.flows.values():
            if f.req is not None and lo <= f.req < hi:
                by_slot.setdefault(f.req - lo, []).append(f)
        for slot in sorted(by_slot):
            group = by_slot[slot]
            if len(group) == 1:
                flow = group[0]
                self.cmts.on_req_delivered(flow, flow.uncovered_bytes,
                                           region_start + slot * self._slot_us)
                flow.uncovered_bytes = 0
                self.counters.reqs_delivered += 1
                flow.req = None
                flow.backoff_window = cfg.backoff_init
            else:
                for flow in group:
                    flow.backoff_window = min(flow.backoff_window * 2, cfg.backoff_max)
                    self._defer(flow, region_index + 1)
                    self.counters.req_collisions += 1

    def on_map(self, msg: MapMessage) -> None:
        """A MAP reached the modem. Its contention region needs no event of
        its own: a region is resolved only when a REQ is put into it. Nor do
        its UGS grants: the modem books the ones that carry a report."""

    # -- transmission -----------------------------------------------------------

    def on_grant(self, grant: Grant, ledger_idx: int) -> None:
        """A grant's start time. ledger_idx is the CMTS's count of the data
        grants scheduled before this one, -1 for a booked UGS grant; nothing
        in the simulator reads it, and it stays in the signature for the
        tools that wrap this method."""
        if grant.kind == "ugs":
            self._transmit_reports(grant)
        else:
            self._transmit_data(grant)

    def _transmit_reports(self, grant: Grant) -> None:
        queue = self.report_frames
        budget = grant.nbytes
        offset = grant.start + self._wire_offset_us
        sent = 0
        while queue and sent + len(queue[0]) <= budget:
            frame = queue.popleft()
            sent += len(frame)
            self.sim.schedule_at(offset + serialization_us(sent, self.cfg.upstream_bps),
                                 PRIO_CONTROL, self.cmts.on_bwr_frame, frame)
        if sent == 0:
            self.counters.ugs_idle_grants += 1
        else:
            self._ugs_carried += 1
        self.counters.ugs_wasted_bytes += grant.nbytes - sent
        if queue:
            self._book_ugs(grant.start + 1)

    def _book_ugs(self, t: int) -> None:
        """Schedule the UGS grant that carries the frame at the head of
        report_frames: the first that starts at or after t. A frame queued at
        t comes from a scheduler event, which precedes a grant at t."""
        grant = self.cmts.next_ugs_grant(t)
        if grant is not None:
            self.sim.schedule_at(grant.start, PRIO_SERVICE, self.on_grant, grant, -1)

    def settle_ugs_grants(self) -> None:
        """Once the run has ended, count the UGS grants that started by its
        end (a grant at the end fires) and carried nothing: no event ran
        for them."""
        idle = self.cmts.ugs_grants_before(self.cfg.duration_us + 1) - self._ugs_carried
        self.counters.ugs_idle_grants += idle
        self.counters.ugs_wasted_bytes += idle * self.cfg.ugs_grant_bytes

    def _transmit_data(self, grant: Grant) -> None:
        end = self.cfg.duration_us      # the last instant a packet may egress
        bps = self.cfg.upstream_bps
        offset = grant.start + self._wire_offset_us
        flow = grant.flow
        queue = flow.queue
        budget = grant.nbytes
        sent = 0
        while queue and budget > 0:
            entry = queue[0]
            pkt, remaining = entry
            take = min(remaining, budget)
            entry[1] -= take
            budget -= take
            sent += take
            pkt.docsis_egressed += take
            if entry[1] == 0:
                queue.popleft()
            if pkt.docsis_egressed == pkt.size_bytes:     # its last byte
                completion = offset + serialization_us(sent, bps)
                if completion <= end:
                    self.cmts.on_packet_egress(pkt, completion)
        flow.queue_bytes -= sent
        counters = self.counters
        if budget > 0:
            if grant.kind == BE:
                counters.wasted_be_grant_bytes += budget
            else:
                counters.wasted_bwr_grant_bytes += budget
        counters.docsis_sent_bytes += sent

    # -- report forwarding --------------------------------------------------------

    def forward_report(self, flow: ServiceFlow, report: BandwidthReport) -> None:
        """Queue a report of flow's coming bytes, encoded, for the next
        unsolicited grant (never contends), booked when the queue was empty;
        the bytes it describes will not be requested."""
        self.report_frames.append(encode_bwr(report))
        if len(self.report_frames) == 1:
            self._book_ugs(self.sim.now)
        flow.described.append([report.egress_time, report.total_bytes()])
