"""DOCSIS upstream models: best-effort request/grant with contention and
truncated binary exponential backoff, MAP-cycle scheduling, unsolicited
periodic grants, and byte-accurate channel occupancy.

Every MAP is checked as it is built (no over-commitment, no overlap inside its
window); no per-grant, per-MAP or per-region history is kept.

The CMTS runs a MAP cycle every map_interval. The MAP generated at time m
describes the allocation window [m + maps_in_advance*map_interval, +interval)
and consumes requests and bandwidth reports delivered at least cmts_proc
before m. Every window opens with a contention region; unsolicited grants sit
at their phase-locked instants; report-scheduled grants are placed before
best-effort grants. A request delivered at r therefore reaches a usable grant
no earlier than r + (1 + maps_in_advance) * map_interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .core import (MS, PRIO_CONTROL, PRIO_SCHED, PRIO_SERVICE, PRIO_METRICS,
                   Rng, Simulator)
from .bwr import decode_bwr

BE = "be"
UGS = "ugs"


class DocsisError(Exception):
    pass


def ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def serialization_us(nbytes: int, bps: int) -> int:
    """Wire time of nbytes at the upstream rate, rounded up to whole us."""
    return ceil_div(nbytes * 8 * 1_000_000, bps)


@dataclass
class DocsisTimingProfile:
    """Upstream scheduling constants, times in microseconds."""

    map_interval: int = 2 * MS
    maps_in_advance: int = 1
    cmts_proc: int = 500
    cm_proc: int = 500            # folded into the MAP advance; validated only
    cm_framing: int = 1_200
    contention_slots: int = 8
    slot_bytes: int = 16
    upstream_bps: int = 39_000_000
    backoff_init: int = 8
    backoff_max: int = 64
    propagation: int = 0

    def validate(self) -> None:
        if self.map_interval <= 0 or self.maps_in_advance < 1:
            raise DocsisError("map_interval must be positive with >= 1 MAP in advance")
        if self.cmts_proc < 0 or self.cm_proc < 0 or self.propagation < 0:
            raise DocsisError("processing/propagation times must be >= 0")
        if self.cmts_proc >= self.map_interval:
            raise DocsisError("cmts_proc must be shorter than the MAP interval")
        if self.maps_in_advance * self.map_interval < self.cm_proc:
            raise DocsisError("MAP advance must cover CM processing lead")
        if self.contention_slots < 1 or self.slot_bytes < 1:
            raise DocsisError("contention region needs at least one nonempty slot")
        if self.backoff_init < 1 or self.backoff_max < self.backoff_init:
            raise DocsisError("backoff window bounds are inconsistent")
        if self.upstream_bps <= 0:
            raise DocsisError("upstream capacity must be positive")

    @property
    def slot_duration(self) -> int:
        return serialization_us(self.slot_bytes, self.upstream_bps)

    @property
    def region_duration(self) -> int:
        return self.contention_slots * self.slot_duration

    def window_capacity_bytes(self) -> int:
        return self.map_interval * self.upstream_bps // 8_000_000

    def req_grant_floor(self) -> int:
        """Shortest request-to-grant time: one cycle + the MAP advance."""
        return (1 + self.maps_in_advance) * self.map_interval


@dataclass
class DocsisRequest:
    flow_id: str
    requested_bytes: int
    target_slot: int = -1         # absolute contention slot index
    delivered_at: int = -1

    def __post_init__(self):
        if self.requested_bytes < 0:
            raise DocsisError("requested bytes must be >= 0")


@dataclass
class ServiceFlow:
    """One upstream service flow: a QoS class plus its CM-side queue."""

    flow_id: str
    kind: str                     # BE or UGS
    owner_enb: int = -1
    # UGS provisioning
    grant_size_bytes: int = 0
    grant_period: int = 0
    grant_phase: int = 0
    # CM-side queue of (packet, remaining_bytes) in arrival order
    queue: list = field(default_factory=list)
    queue_bytes: int = 0
    uncovered_bytes: int = 0      # queued bytes not yet requested or described
    req: Optional[DocsisRequest] = None
    backoff_window: int = 8
    # pipelined-mode suppression ledger: [egress_time, remaining_bytes]
    described: list = field(default_factory=list)

    def described_available(self, now: int, expiry_slack: int) -> int:
        self.described = [e for e in self.described
                          if e[1] > 0 and e[0] + expiry_slack >= now]
        return sum(e[1] for e in self.described)

    def consume_described(self, nbytes: int, now: int, expiry_slack: int) -> int:
        """Use up described-byte credit FIFO; returns bytes actually covered."""
        self.described_available(now, expiry_slack)
        covered = 0
        for entry in self.described:
            take = min(entry[1], nbytes - covered)
            entry[1] -= take
            covered += take
            if covered == nbytes:
                break
        return covered


@dataclass
class Grant:
    flow_id: str
    start: int
    duration: int
    nbytes: int
    kind: str                     # "be", "bwr", "ugs"


@dataclass
class MapMessage:
    """One MAP: the described window and its allocations."""

    window_start: int
    window_end: int
    region_start: int
    region_duration: int
    grants: list[Grant] = field(default_factory=list)

    def granted_bytes(self) -> int:
        return sum(g.nbytes for g in self.grants)


class ChannelLedger:
    """Running per-kind totals of the bytes granted before the end of a run."""

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

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end
        self.occupied: list[tuple[int, int]] = []   # (start, end), sorted

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


def open_window(start: int, p: DocsisTimingProfile,
                flows) -> tuple[_Window, list[Grant]]:
    """A MAP window with its contention region and the UGS grants of flows
    placed; DocsisError when they do not fit."""
    end = start + p.map_interval
    win = _Window(start, end)
    win.reserve_exact(start, p.region_duration)
    grants = []
    for flow in flows:
        if flow.kind != UGS:
            continue
        dur = serialization_us(flow.grant_size_bytes, p.upstream_bps)
        first = flow.grant_phase + ceil_div(max(0, start - flow.grant_phase),
                                            flow.grant_period) * flow.grant_period
        for g in range(first, end, flow.grant_period):
            actual = win.reserve_at_or_after(g, dur)
            grants.append(Grant(flow.flow_id, actual, dur,
                                flow.grant_size_bytes, "ugs"))
    return win, grants


class Cmts:
    """Termination system: consumes REQs and reports, emits MAPs, takes egress."""

    def __init__(self, sim: Simulator, profile: DocsisTimingProfile,
                 ledger: ChannelLedger, collector, *,
                 lcg_differentiation: bool = False):
        self.sim = sim
        self.profile = profile
        self.ledger = ledger
        self.collector = collector
        self.lcg_differentiation = lcg_differentiation
        self.cm: Optional["Cm"] = None
        self.flows: dict[str, ServiceFlow] = {}
        self.req_fifo: list[tuple[int, int, str, int]] = []  # (delivered, seq, flow, bytes)
        self.bwr_fifo: list[list] = []  # [arrival, seq, lcg, flow_id, egress, bytes]
        self._seq = 0
        self._data_flow_by_enb: dict[int, str] = {}

    def register_flow(self, flow: ServiceFlow) -> None:
        self.flows[flow.flow_id] = flow
        if flow.kind == BE and flow.owner_enb >= 0:
            self._data_flow_by_enb[flow.owner_enb] = flow.flow_id

    def on_req_delivered(self, flow_id: str, nbytes: int, delivered_at: int) -> None:
        self.req_fifo.append((delivered_at, self._seq, flow_id, nbytes))
        self._seq += 1

    def on_bwr_frame(self, frame: bytes, flow_id: str) -> None:
        """A bandwidth report reached the CMTS over the unsolicited flow."""
        report = decode_bwr(frame)
        total = sum(b for _, b in report.blocks)
        self.collector.count("bwr_frames_received", 1)
        if total == 0:
            return
        data_flow = self._data_flow_by_enb.get(report.enb_id)
        if data_flow is None:
            raise DocsisError(f"report from enb {report.enb_id} with no data flow")
        if self.lcg_differentiation:
            # One demand entry per nonzero block; lower LCG ids are placed
            # first within the report-scheduled class.
            for lcg_id, nbytes in sorted(report.blocks):
                if nbytes > 0:
                    self.bwr_fifo.append([self.sim.now, self._seq, lcg_id,
                                          data_flow, report.egress_time, nbytes])
                    self._seq += 1
        else:
            self.bwr_fifo.append([self.sim.now, self._seq, 0, data_flow,
                                  report.egress_time, total])
            self._seq += 1

    # -- MAP cycle ----------------------------------------------------------

    def map_cycle(self) -> None:
        t = self.sim.now
        p = self.profile
        start = t + p.maps_in_advance * p.map_interval
        end = start + p.map_interval
        msg = MapMessage(start, end, start, p.region_duration)
        cutoff = t - p.cmts_proc

        win, ugs_grants = open_window(start, p, self.flows.values())
        for grant in ugs_grants:
            self._emit_grant(msg, grant)

        # Report-scheduled grants go in first, at or after their egress time;
        # with differentiation on, lower LCG ids within the class go first.
        pending = []
        order = sorted(self.bwr_fifo, key=lambda e: (e[2], e[1])) \
            if self.lcg_differentiation else self.bwr_fifo
        for entry in order:
            arrival, seq, lcg, flow_id, egress, nbytes = entry
            if arrival > cutoff or egress >= end:
                pending.append(entry)
                continue
            placed = win.place(max(egress, start), nbytes, p.upstream_bps)
            for gstart, gbytes in placed:
                dur = serialization_us(gbytes, p.upstream_bps)
                self._emit_grant(msg, Grant(flow_id, gstart, dur, gbytes, "bwr"))
                entry[5] -= gbytes
            if entry[5] > 0:
                pending.append(entry)
        pending.sort(key=lambda e: e[1])
        self.bwr_fifo = pending

        # Best-effort demand is served in request-delivery order.
        remaining_reqs = []
        for delivered, seq, flow_id, nbytes in self.req_fifo:
            if delivered > cutoff or nbytes == 0:
                remaining_reqs.append((delivered, seq, flow_id, nbytes))
                continue
            placed = win.place(start, nbytes, p.upstream_bps)
            left = nbytes
            for gstart, gbytes in placed:
                dur = serialization_us(gbytes, p.upstream_bps)
                self._emit_grant(msg, Grant(flow_id, gstart, dur, gbytes, "be"))
                left -= gbytes
            if left > 0:
                remaining_reqs.append((delivered, seq, flow_id, left))
        self.req_fifo = remaining_reqs

        cap = p.window_capacity_bytes()
        granted = msg.granted_bytes()
        if granted > cap:
            raise DocsisError(f"MAP window at {start} over-committed: {granted} > {cap}")
        # The contention region opens the window; each grant must start after
        # the previous reservation ends and end inside the window. Windows are
        # disjoint, so this covers the whole channel.
        free_from = start + p.region_duration
        for g in sorted(msg.grants, key=lambda g: g.start):
            if g.start < free_from:
                raise DocsisError(f"grant at {g.start} overlaps in the MAP window at {start}")
            free_from = g.start + g.duration
        if free_from > end:
            raise DocsisError(f"MAP window [{start},{end}) overruns to {free_from}")
        self.cm.on_map(msg)
        self.sim.schedule_in(p.map_interval, PRIO_SCHED, self.map_cycle)

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
    """Cable modem: flow queues, request arming, contention, transmission."""

    def __init__(self, sim: Simulator, cmts: Cmts, profile: DocsisTimingProfile,
                 collector, contention_rng: Rng, described_expiry: int = 2 * MS):
        self.sim = sim
        self.cmts = cmts
        self.profile = profile
        self.collector = collector
        self.rng = contention_rng
        self.described_expiry = described_expiry
        self.flows: dict[str, ServiceFlow] = {}
        self.ugs_queue: dict[str, list[bytes]] = {}   # flow -> queued frames
        cmts.cm = self

    def add_flow(self, flow: ServiceFlow) -> None:
        flow.backoff_window = self.profile.backoff_init
        self.flows[flow.flow_id] = flow
        self.cmts.register_flow(flow)
        if flow.kind == UGS:
            self.ugs_queue[flow.flow_id] = []

    # -- ingress from the LTE side -------------------------------------------

    def enqueue_chunks(self, flow_id: str, chunks, t: int) -> None:
        """Transport-block bytes handed over by the base station."""
        flow = self.flows.get(flow_id)
        if flow is None:
            raise DocsisError(f"unknown service flow {flow_id}")
        for pkt, nbytes, _completes in chunks:
            flow.queue.append([pkt, nbytes])
            flow.queue_bytes += nbytes
            pkt.cm_received += nbytes
            # Last-byte rule: retransmitted blocks can arrive out of order,
            # so the stage is set by byte count, not by drain order.
            if pkt.cm_received == pkt.size_bytes:
                pkt.set_stage("cm_arrival", t)
            covered = flow.consume_described(nbytes, t, self.described_expiry)
            flow.uncovered_bytes += nbytes - covered
        if flow.kind == BE and flow.req is None and flow.uncovered_bytes > 0:
            self._arm_request(flow, t)

    def note_described(self, flow_id: str, egress_time: int, nbytes: int) -> None:
        """Bytes announced by a forwarded report will not be requested."""
        self.flows[flow_id].described.append([egress_time, nbytes])

    # -- contention ------------------------------------------------------------

    def _region_index_at_or_after(self, t: int) -> int:
        p = self.profile
        first = p.maps_in_advance       # earliest window any MAP can describe
        return max(first, ceil_div(t, p.map_interval))

    def _arm_request(self, flow: ServiceFlow, t: int) -> None:
        region = self._region_index_at_or_after(t)
        defer = self.rng.randbelow(flow.backoff_window)
        slots = self.profile.contention_slots
        flow.req = DocsisRequest(flow.flow_id, 0,
                                 target_slot=region * slots + defer)

    def resolve_region(self, region_index: int) -> None:
        """End of a contention region: lone REQs deliver, others back off."""
        p = self.profile
        slots = p.contention_slots
        lo, hi = region_index * slots, (region_index + 1) * slots
        region_start = region_index * p.map_interval
        contenders = [f for f in self.flows.values()
                      if f.req is not None and lo <= f.req.target_slot < hi]
        by_slot: dict[int, list[ServiceFlow]] = {}
        for f in contenders:
            by_slot.setdefault(f.req.target_slot - lo, []).append(f)
        for slot in sorted(by_slot):
            group = by_slot[slot]
            if len(group) == 1:
                flow = group[0]
                flow.req.requested_bytes = flow.uncovered_bytes
                flow.req.delivered_at = region_start + slot * p.slot_duration
                flow.uncovered_bytes = 0
                self.cmts.on_req_delivered(flow.flow_id, flow.req.requested_bytes,
                                           flow.req.delivered_at)
                self.collector.count("reqs_delivered", 1)
                flow.req = None
                flow.backoff_window = p.backoff_init
            else:
                for flow in group:
                    flow.backoff_window = min(flow.backoff_window * 2, p.backoff_max)
                    defer = self.rng.randbelow(flow.backoff_window)
                    flow.req.target_slot = (region_index + 1) * slots + defer
                    self.collector.count("req_collisions", 1)

    def on_map(self, msg: MapMessage) -> None:
        region_index = msg.window_start // self.profile.map_interval
        self.sim.schedule_at(msg.region_start + msg.region_duration, PRIO_CONTROL,
                             self.resolve_region, region_index)

    # -- transmission -----------------------------------------------------------

    def on_grant(self, grant: Grant, ledger_idx: int) -> None:
        """A grant's start time: ledger_idx is its reservation index."""
        if grant.kind == "ugs":
            self._transmit_reports(grant)
        else:
            self._transmit_data(grant)

    def _transmit_reports(self, grant: Grant) -> None:
        p = self.profile
        queue = self.ugs_queue[grant.flow_id]
        budget = grant.nbytes
        sent = 0
        while queue and sent + len(queue[0]) <= budget:
            frame = queue.pop(0)
            sent += len(frame)
            arrival = grant.start + p.propagation + p.cm_framing + serialization_us(sent, p.upstream_bps)
            self.sim.schedule_at(arrival, PRIO_CONTROL, self.cmts.on_bwr_frame,
                                 frame, grant.flow_id)
            self.collector.count("bwr_frames_sent", 1)
        if sent == 0:
            self.collector.count("ugs_idle_grants", 1)
        self.collector.count("ugs_wasted_bytes", grant.nbytes - sent)

    def _transmit_data(self, grant: Grant) -> None:
        p = self.profile
        flow = self.flows[grant.flow_id]
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
                flow.queue.pop(0)
            completion = (grant.start + p.propagation + p.cm_framing
                          + serialization_us(sent, p.upstream_bps))
            if (pkt.docsis_egressed == pkt.size_bytes
                    and pkt.cm_received == pkt.size_bytes):
                self.sim.schedule_at(completion, PRIO_METRICS,
                                     self.cmts.on_packet_egress, pkt, completion)
        wasted = grant.nbytes - sent
        if wasted > 0:
            self.collector.count(f"wasted_{grant.kind}_grant_bytes", wasted)
        self.collector.count("docsis_sent_bytes", sent)

    # -- report forwarding --------------------------------------------------------

    def forward_report(self, flow_id: str, frame: bytes) -> None:
        """Queue an encoded report on its unsolicited flow (never contends)."""
        flow = self.flows[flow_id]
        if flow.kind != UGS:
            raise DocsisError(f"flow {flow_id} cannot carry reports")
        self.ugs_queue[flow_id].append(frame)
        self.collector.count("bwr_frames_forwarded", 1)
