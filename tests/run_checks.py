"""What a correct run is: the checks that every test of whole runs shares.

They are the benchmark's correctness gate (`check_outputs` in bench/child.py)
stated once for the tests. Each returns a list of failures, empty when the
run passes.
"""


def conservation_failures(run) -> list[str]:
    """Bytes are neither made nor lost on either side of the CM."""
    c = run.conservation()
    fails = []
    if c["admitted"] != (c["ue_buffered"] + c["lte_inflight"]
                         + c["lte_egressed"] + c["harq_dropped"]):
        fails.append(f"{run.mode}: LTE byte conservation {c}")
    if c["lte_egressed"] != c["cm_queued"] + c["docsis_sent"]:
        fails.append(f"{run.mode}: DOCSIS byte conservation {c}")
    return fails


def lte_pairs(base, bwr) -> list[tuple[int, int]]:
    """(baseline, bwr) LTE-only latency of each packet retained in both modes."""
    lte_base = {s.packet_id: s.lte_us for s in base.collector.retained()}
    return [(lte_base[s.packet_id], s.lte_us) for s in bwr.collector.retained()
            if s.packet_id in lte_base]


def cross_mode_failures(base, bwr) -> list[str]:
    """Reports change only the DOCSIS side: a packet retained in both modes
    has the same LTE-only latency."""
    paired = lte_pairs(base, bwr)
    mismatched = sum(b != w for b, w in paired)
    if mismatched:
        return [f"cross-mode: {mismatched}/{len(paired)} packets differ in "
                f"LTE-only latency"]
    return []


def report_failures(report) -> list[str]:
    """Every check above on a baseline+bwr report."""
    base, bwr = report.runs
    return (conservation_failures(base) + conservation_failures(bwr)
            + cross_mode_failures(base, bwr))
