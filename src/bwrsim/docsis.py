"""DOCSIS upstream models: best-effort request/grant with contention and
truncated binary exponential backoff, MAP-cycle scheduling, unsolicited
periodic grants, and byte-accurate channel occupancy.

Every MAP is checked as it is built (no over-commitment, no overlap inside its
window); no per-grant, per-MAP or per-region history is kept.

The CMTS and the CM read their timing from the run's SimConfig. The CMTS runs
a MAP cycle every map_interval_us. The MAP generated at time m describes the
allocation window [m + maps_in_advance*map_interval_us, +map_interval_us) and
consumes requests and bandwidth reports delivered at least cmts_proc_us before
m. Every window opens with a contention region; unsolicited grants sit at
their phase-locked instants; report-scheduled grants are placed before
best-effort grants. A request delivered at r therefore reaches a usable grant
no earlier than r + (1 + maps_in_advance) * map_interval_us.

A quiet upstream costs only its MAPs: the CM resolves a contention region only
when a REQ is put into it, and the CMTS lays out a window's contention region
and unsolicited grants once per distinct window (see window_layouts), then
shifts that layout to each MAP's window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .core import PRIO_CONTROL, PRIO_SCHED, PRIO_SERVICE, Rng, Simulator
from .bwr import decode_bwr

if TYPE_CHECKING:
    from .config import SimConfig

BE = "be"
UGS = "ugs"


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
    """One upstream service flow: a QoS class plus its CM-side queue."""

    flow_id: str
    kind: str                     # BE or UGS
    owner_enb: int = -1
    # CM-side queue of (packet, remaining_bytes) in arrival order
    queue: deque = field(default_factory=deque)
    queue_bytes: int = 0
    uncovered_bytes: int = 0      # queued bytes not yet requested or described
    req: Optional[int] = None     # absolute contention slot of the pending REQ
    backoff_window: int = 8
    # pipelined-mode suppression ledger: [egress_time, remaining_bytes]
    described: deque = field(default_factory=deque)

    def consume_described(self, nbytes: int, now: int, expiry_slack: int) -> int:
        """Use up described-byte credit FIFO; returns bytes actually covered.

        Credit expires expiry_slack after its egress time. Spent and expired
        entries leave from the front. Reports announce egress times in order
        unless grant_to_data_us + enb_decode_us exceeds the HARQ round trip, so an
        expired entry behind the front is skipped in place.
        """
        described = self.described
        while described and (described[0][1] == 0
                             or described[0][0] + expiry_slack < now):
            described.popleft()
        covered = 0
        for entry in described:
            if entry[0] + expiry_slack < now:
                continue                # expired behind a later announcement
            take = min(entry[1], nbytes - covered)
            entry[1] -= take
            covered += take
            if covered == nbytes:
                break
        return covered


@dataclass
class Grant:
    flow: ServiceFlow
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

    def granted_bytes(self) -> int:
        return sum(g.nbytes for g in self.grants)


class ChannelLedger:
    """Running per-kind totals of the bytes granted before the end of a run,
    which is also the last instant a packet may egress."""

    def __init__(self, end: int):
        self.end = end
        self.granted: dict[str, int] = {}
        self.reservations = 0

    def reserve(self, grant: Grant) -> int:
        """Count a grant; returns its reservation index."""
        if grant.start < self.end:
            self.granted[grant.kind] = self.granted.get(grant.kind, 0) + grant.nbytes
        self.reservations += 1
        return self.reservations - 1

    def occupancy_bps(self, kind: str) -> float:
        granted = self.granted.get(kind, 0)
        return granted * 8 * 1_000_000 / self.end if self.end > 0 else 0.0


class _Window:
    """Placement state for one MAP window."""

    def __init__(self, start: int, end: int,
                 occupied: Optional[list[tuple[int, int]]] = None):
        self.start = start
        self.end = end
        self.occupied = occupied if occupied is not None else []  # (start, end), sorted

    def reserve_exact(self, start: int, dur: int) -> None:
        end = start + dur
        for s, e in self.occupied:
            if start < e and s < end:
                raise DocsisError(f"fixed reservation [{start},{end}) collides with [{s},{e})")
        self.occupied.append((start, end))
        self.occupied.sort()

    def reserve_at_or_after(self, start: int, dur: int) -> int:
        """Reserve dur at the nominal start, nudged past fixed reservations."""
        cursor = max(start, self.start)
        for s, e in self.occupied:
            if cursor < e and s < cursor + dur:
                cursor = e
        if cursor + dur > self.end:
            raise DocsisError(f"no room for a {dur} us reservation at {start}")
        self.reserve_exact(cursor, dur)
        return cursor

    def place(self, min_start: int, nbytes: int, bps: int) -> list[tuple[int, int]]:
        """Fill free channel time at or after min_start with up to nbytes.

        Returns (start, bytes) pieces; bytes not placed stay with the caller.
        """
        pieces = []
        cursor = max(self.start, min_start)
        remaining = nbytes
        idx = 0
        occ = self.occupied
        while remaining > 0 and cursor < self.end:
            while idx < len(occ) and occ[idx][1] <= cursor:
                idx += 1
            gap_end = occ[idx][0] if idx < len(occ) and occ[idx][0] > cursor else None
            if gap_end is None and idx < len(occ):
                cursor = occ[idx][1]
                continue
            gap_end = min(gap_end if gap_end is not None else self.end, self.end)
            gap = gap_end - cursor
            fit = min(remaining, gap * bps // 8_000_000)
            if fit > 0:
                dur = serialization_us(fit, bps)
                self.occupied.append((cursor, cursor + dur))
                self.occupied.sort()
                pieces.append((cursor, fit))
                remaining -= fit
                cursor += dur
            else:
                cursor = gap_end
        return pieces


def open_window(start: int, cfg: SimConfig,
                ugs_flow: Optional[ServiceFlow]) -> tuple[_Window, list[Grant]]:
    """A MAP window with its contention region and, when there is a UGS flow,
    the unsolicited grants the config provisions for it placed; DocsisError
    when they do not fit."""
    end = start + cfg.map_interval_us
    win = _Window(start, end)
    win.reserve_exact(start, region_duration(cfg))
    grants = []
    if ugs_flow is not None:
        size, period, phase = cfg.ugs_grant_bytes, cfg.ugs_period_us, cfg.ugs_phase()
        dur = serialization_us(size, cfg.upstream_bps)
        first = phase + ceil_div(max(0, start - phase), period) * period
        for g in range(first, end, period):
            actual = win.reserve_at_or_after(g, dur)
            grants.append(Grant(ugs_flow, actual, dur, size, "ugs"))
    return win, grants


def window_layouts(cfg: SimConfig) -> list[tuple[list[tuple[int, int]], list[int]]]:
    """Each distinct MAP window of a run with a UGS flow, the first MAP's
    first, as (reserved spans, UGS grant starts) offset from its start;
    DocsisError when the grants do not fit. The layouts repeat every
    lcm(ugs_period_us, map_interval_us), so window k takes entry k mod their
    count; a run shorter than that lays out only its own windows."""
    mi = cfg.map_interval_us
    flow = ServiceFlow("ugs", UGS)
    layouts = []
    for k in range(min(math.lcm(cfg.ugs_period_us, mi), cfg.duration_us + mi) // mi):
        start = (cfg.maps_in_advance + k) * mi
        win, grants = open_window(start, cfg, flow)
        layouts.append(([(s - start, e - start) for s, e in win.occupied],
                        [g.start - start for g in grants]))
    return layouts


class Cmts:
    """Termination system: consumes REQs and reports, emits MAPs, takes egress."""

    def __init__(self, sim: Simulator, cfg: SimConfig, ledger: ChannelLedger,
                 collector):
        self.sim = sim
        self.cfg = cfg
        self.ledger = ledger
        self.collector = collector
        self.cm: Optional["Cm"] = None
        self.req_fifo: list[tuple[int, ServiceFlow, int]] = []  # (delivered, flow, bytes)
        self.bwr_fifo: list[list] = []  # [arrival, seq, lcg, flow, egress, bytes]
        self._seq = 0
        self._data_flow_by_enb: dict[int, ServiceFlow] = {}
        self._ugs_flow: Optional[ServiceFlow] = None
        self._lead = cfg.maps_in_advance * cfg.map_interval_us
        self._region = region_duration(cfg)
        self._capacity = window_capacity_bytes(cfg)
        self._ugs_duration = serialization_us(cfg.ugs_grant_bytes, cfg.upstream_bps)
        # Without a UGS flow every window holds its contention region alone.
        self._layouts = [([(0, self._region)], [])]

    def register_flow(self, flow: ServiceFlow) -> None:
        if flow.kind == UGS:
            self._ugs_flow = flow
            self._layouts = window_layouts(self.cfg)
        elif flow.owner_enb >= 0:
            self._data_flow_by_enb[flow.owner_enb] = flow

    def on_req_delivered(self, flow: ServiceFlow, nbytes: int, delivered_at: int) -> None:
        self.req_fifo.append((delivered_at, flow, nbytes))

    def on_bwr_frame(self, frame: bytes) -> None:
        """A bandwidth report reached the CMTS over the unsolicited flow."""
        report = decode_bwr(frame)
        self.collector.count("bwr_frames_received", 1)
        if report.total_bytes() == 0:
            return
        data_flow = self._data_flow_by_enb.get(report.enb_id)
        if data_flow is None:
            raise DocsisError(f"report from enb {report.enb_id} with no data flow")
        # One demand entry per nonzero block (a bulk report has one, LCG 0).
        for lcg_id, nbytes in sorted(report.blocks):
            if nbytes > 0:
                self.bwr_fifo.append([self.sim.now, self._seq, lcg_id,
                                      data_flow, report.egress_time, nbytes])
                self._seq += 1

    # -- MAP cycle ----------------------------------------------------------

    def map_cycle(self) -> None:
        t = self.sim.now
        cfg = self.cfg
        start = t + self._lead
        end = start + cfg.map_interval_us
        msg = MapMessage(start, end, self._region)
        cutoff = t - cfg.cmts_proc_us

        win, ugs_grants = self._open_window(start)
        for grant in ugs_grants:
            self._emit_grant(msg, grant)

        # Report-scheduled grants go in first, at or after their egress time,
        # lower LCG ids first, each LCG in report order.
        if self.bwr_fifo:
            pending = []
            for entry in sorted(self.bwr_fifo, key=lambda e: (e[2], e[1])):
                arrival, seq, lcg, flow, egress, nbytes = entry
                if arrival <= cutoff and egress < end:
                    entry[5] = self._grant(msg, win, flow, max(egress, start),
                                           nbytes, "bwr")
                if entry[5] > 0:
                    pending.append(entry)
            self.bwr_fifo = pending

        # Best-effort demand is served in request-delivery order.
        if self.req_fifo:
            remaining_reqs = []
            for delivered, flow, nbytes in self.req_fifo:
                if delivered <= cutoff:
                    nbytes = self._grant(msg, win, flow, start, nbytes, "be")
                if nbytes > 0:
                    remaining_reqs.append((delivered, flow, nbytes))
            self.req_fifo = remaining_reqs

        cap = self._capacity
        granted = msg.granted_bytes()
        if granted > cap:
            raise DocsisError(f"MAP window at {start} over-committed: {granted} > {cap}")
        # The contention region opens the window; each grant must start after
        # the previous reservation ends and end inside the window. Windows are
        # disjoint, so this covers the whole channel.
        free_from = start + self._region
        for g in sorted(msg.grants, key=lambda g: g.start):
            if g.start < free_from:
                raise DocsisError(f"grant at {g.start} overlaps in the MAP window at {start}")
            free_from = g.start + g.duration
        if free_from > end:
            raise DocsisError(f"MAP window [{start},{end}) overruns to {free_from}")
        self.cm.on_map(msg)
        self.sim.schedule_in(cfg.map_interval_us, PRIO_SCHED, self.map_cycle)

    def _open_window(self, start: int) -> tuple[_Window, list[Grant]]:
        """open_window for this CMTS's UGS flow: the window's entry of
        window_layouts, shifted to start."""
        mi = self.cfg.map_interval_us
        layouts = self._layouts
        spans, ugs_starts = layouts[(start - self._lead) // mi % len(layouts)]
        win = _Window(start, start + mi,
                      [(start + s, start + e) for s, e in spans])
        dur, size = self._ugs_duration, self.cfg.ugs_grant_bytes
        return win, [Grant(self._ugs_flow, start + s, dur, size, "ugs")
                     for s in ugs_starts]

    def _grant(self, msg: MapMessage, win: _Window, flow: ServiceFlow, min_start: int,
               nbytes: int, kind: str) -> int:
        """Grant up to nbytes of free window time at or after min_start;
        returns the bytes left."""
        bps = self.cfg.upstream_bps
        for gstart, gbytes in win.place(min_start, nbytes, bps):
            self._emit_grant(msg, Grant(flow, gstart, serialization_us(gbytes, bps),
                                        gbytes, kind))
            nbytes -= gbytes
        return nbytes

    def _emit_grant(self, msg: MapMessage, grant: Grant) -> None:
        msg.grants.append(grant)
        ledger_idx = self.ledger.reserve(grant)
        self.sim.schedule_at(grant.start, PRIO_SERVICE,
                             self.cm.on_grant, grant, ledger_idx)

    # -- egress ---------------------------------------------------------------

    def on_packet_egress(self, pkt, t: int) -> None:
        pkt.set_stage("cmts_egress", t)
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
        self.rng = contention_rng
        self.flows: dict[str, ServiceFlow] = {}
        self.report_frames: deque[bytes] = deque()
        self._slot_us = slot_duration(cfg)
        self._region_us = region_duration(cfg)
        # Regions whose resolve_region is queued. A resolve can share its
        # instant with other control-plane events; none of them touches the
        # contention state (on_bwr_frame, the only DOCSIS one, touches only
        # the CMTS's report FIFO), so their order does not matter.
        self._queued_regions: set[int] = set()
        cmts.cm = self

    def add_flow(self, flow: ServiceFlow) -> None:
        flow.backoff_window = self.cfg.backoff_init
        self.flows[flow.flow_id] = flow
        self.cmts.register_flow(flow)

    # -- ingress from the LTE side -------------------------------------------

    def enqueue_chunks(self, flow: ServiceFlow, chunks, t: int) -> None:
        """Transport-block bytes handed over by the base station."""
        for pkt, nbytes in chunks:
            flow.queue.append([pkt, nbytes])
            flow.queue_bytes += nbytes
            pkt.cm_received += nbytes
            # Last-byte rule: retransmitted blocks can arrive out of order,
            # so the stage is set by byte count, not by drain order.
            if pkt.cm_received == pkt.size_bytes:
                pkt.set_stage("cm_arrival", t)
            covered = flow.consume_described(nbytes, t, self.cfg.described_expiry_us)
            flow.uncovered_bytes += nbytes - covered
        if flow.kind == BE and flow.req is None and flow.uncovered_bytes > 0:
            self._arm_request(flow, t)

    def note_described(self, flow: ServiceFlow, egress_time: int, nbytes: int) -> None:
        """Bytes announced by a forwarded report will not be requested."""
        flow.described.append([egress_time, nbytes])

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
                self.collector.count("reqs_delivered", 1)
                flow.req = None
                flow.backoff_window = cfg.backoff_init
            else:
                for flow in group:
                    flow.backoff_window = min(flow.backoff_window * 2, cfg.backoff_max)
                    self._defer(flow, region_index + 1)
                    self.collector.count("req_collisions", 1)

    def on_map(self, msg: MapMessage) -> None:
        """A MAP reached the modem. Its contention region needs no event of
        its own: a region is resolved only when a REQ is put into it."""

    # -- transmission -----------------------------------------------------------

    def on_grant(self, grant: Grant, ledger_idx: int) -> None:
        """A grant's start time: ledger_idx is its reservation index."""
        if grant.kind == "ugs":
            self._transmit_reports(grant)
        else:
            self._transmit_data(grant)

    def _transmit_reports(self, grant: Grant) -> None:
        cfg = self.cfg
        queue = self.report_frames
        budget = grant.nbytes
        sent = 0
        while queue and sent + len(queue[0]) <= budget:
            frame = queue.popleft()
            sent += len(frame)
            arrival = (grant.start + cfg.propagation_us + cfg.cm_framing_us
                       + serialization_us(sent, cfg.upstream_bps))
            self.sim.schedule_at(arrival, PRIO_CONTROL, self.cmts.on_bwr_frame, frame)
            self.collector.count("bwr_frames_sent", 1)
        if sent == 0:
            self.collector.count("ugs_idle_grants", 1)
        self.collector.count("ugs_wasted_bytes", grant.nbytes - sent)

    def _transmit_data(self, grant: Grant) -> None:
        cfg = self.cfg
        end = self.cmts.ledger.end
        flow = grant.flow
        budget = grant.nbytes
        sent = 0
        while flow.queue and budget > 0:
            entry = flow.queue[0]
            pkt, remaining = entry
            take = min(remaining, budget)
            entry[1] -= take
            budget -= take
            sent += take
            flow.queue_bytes -= take
            pkt.docsis_egressed += take
            if entry[1] == 0:
                flow.queue.popleft()
            if pkt.docsis_egressed == pkt.size_bytes:     # its last byte
                completion = (grant.start + cfg.propagation_us + cfg.cm_framing_us
                              + serialization_us(sent, cfg.upstream_bps))
                if completion <= end:
                    self.cmts.on_packet_egress(pkt, completion)
        wasted = grant.nbytes - sent
        if wasted > 0:
            self.collector.count(f"wasted_{grant.kind}_grant_bytes", wasted)
        self.collector.count("docsis_sent_bytes", sent)

    # -- report forwarding --------------------------------------------------------

    def forward_report(self, frame: bytes) -> None:
        """Queue an encoded report for the next unsolicited grant (never
        contends)."""
        self.report_frames.append(frame)
