"""Samples for tests, recorded the way a run records them: through
`Collector.record_egress`, one packet per sample."""

from bwrsim.lte import Packet


def record(collector, pid, *, lte, docsis, ue=1, enb=1, arrival=0):
    """Egress packet pid, which spent lte us before the CM and docsis us
    after it."""
    pkt = Packet(pid, ue, enb, 60)
    pkt.ue_arrival, pkt.cm_arrival = arrival, arrival + lte
    pkt.cmts_egress = arrival + lte + docsis
    collector.record_egress(pkt)
