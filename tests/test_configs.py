"""A gate over drawn configurations: every config that SimConfig.validate()
accepts runs in both modes and passes the shared run checks, gives the same
results on the reference paths as on the fast ones (samples, counters,
transport-block totals, and every MAP that carries a non-UGS grant), and
re-parses from its printed text to an equal config. The message of a config
that validate() rejects starts with the field at fault.

The bwr run also passes identity 1 of the report path (report_path_failures):
every byte the emitter announces is in a report grant of a MAP, an entry not
yet built, a frame queued at or in flight to the CMTS, or report demand.

The reference run patches each fast path back to its slow twin: a tick every
subframe instead of the sleeping tick, a round-robin walk that sums every
UE's demand instead of one that tests the eNB's ready set (scan_every_ue), a
report build that filters every entry instead of one that takes the due
prefix of its egress-ordered entries (filter_every_entry), a MAP cycle every MAP
interval instead of one that sleeps while nothing is pending, every UGS
grant of every MAP an event instead of the ones the modem books to carry a
report (EVENTED_UGS), a resolve_region event for every MAP window instead of
one per region that holds a REQ, every MAP window laid out afresh by
open_window, free gaps included, instead of shifted from a layout made once
per distinct window, and placement over a window's reserved spans, re-sorted
after each grant (reference_fill), instead of over its free gaps.

Draws span the ranges below, on top of either preset; one draw in two also
sets one key to a value outside its range, which validate() must reject. A
draw is a set of settings; building the SimConfig from them validates it.
NOT_DRAWN names each field that no draw changes, with the reason. Besides
its draws, the gate runs the configs given as examples, which reach paths
that no draw reaches (FRAMES_QUEUE).
"""

import os
import tempfile
from contextlib import ExitStack
from dataclasses import fields
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bwrsim import docsis
from bwrsim.bwr import BwrEmitter
from bwrsim.config import PRESETS, ConfigError, SimConfig, dump_config, parse_config
from bwrsim.core import MS, PRIO_CONTROL
from bwrsim.docsis import Cm, Cmts, open_window
from bwrsim.lte import Enb
from bwrsim.runner import run_scenario

from run_checks import (EVENTED_UGS, filter_every_entry, outcome, placing_maps,
                        record_announced, record_maps, reference_fill,
                        report_failures, report_path_failures, scan_every_ue)

ms = st.integers(1, 9).map(lambda n: n * MS)

IN_RANGE = {
    "duration_us": st.integers(100, 300).map(lambda n: n * MS),
    "enb_count": st.integers(1, 4),
    "ues_per_enb": st.integers(1, 6),
    "harq_enabled": st.booleans(),
    "harq_bler": st.floats(0.0, 0.9),
    "harq_max_retx": st.integers(0, 4),
    "bwr_per_lcg": st.booleans(),
    "map_interval_us": st.sampled_from([MS, 2 * MS, 3 * MS, 4 * MS]),
    "maps_in_advance": st.integers(1, 3),
    "cmts_proc_us": st.integers(0, 1500),
    "cm_framing_us": st.integers(0, 3000),
    "upstream_bps": st.integers(5, 100).map(lambda n: n * 1_000_000),
    "contention_slots": st.integers(1, 16),
    "ugs_period_us": st.sampled_from([MS, 2 * MS, 4 * MS]),
    "bwr_period_us": st.sampled_from([MS, 2 * MS, 4 * MS]),
    "ugs_phase_us": st.integers(0, 4 * MS),
    "ugs_grant_bytes": st.sampled_from([80, 160, 240]),
    "sr_period_us": ms,
    "sr_to_bsr_grant_us": ms,
    "grant_to_bsr_us": ms,
    "bsr_to_data_grant_us": ms,
    "grant_to_data_us": ms,
    "enb_decode_us": ms,
    "packet_mtu": st.integers(200, 1500),
    "voip_bytes": st.integers(20, 300),
    "voip_period_us": st.sampled_from([10 * MS, 20 * MS, 40 * MS]),
    "lcg_voip": st.integers(0, 3),
    "lcg_video": st.integers(0, 3),
}

OUT_OF_RANGE = {
    "duration_us": [0, -MS],
    "enb_count": [0, -1],
    "ues_per_enb": [0],
    "harq_bler": [1.0, -0.1],
    "harq_max_retx": [-1],
    "map_interval_us": [0, -MS],
    "maps_in_advance": [0],
    "cmts_proc_us": [-1, 2 * MS],
    "cm_framing_us": [-1, -2 * MS],
    "described_expiry_us": [-1],
    "upstream_bps": [0, -1],
    "contention_slots": [0, 600],
    "ugs_period_us": [0, 8 * MS],
    "bwr_period_us": [0, 1500],
    "sr_period_us": [0, 1500],
    "sr_to_bsr_grant_us": [0, -MS],
    "grant_to_bsr_us": [0],
    "bsr_to_data_grant_us": [0],
    "grant_to_data_us": [0, 8 * MS],
    "enb_decode_us": [0, 9 * MS],
    "packet_mtu": [0],
    "voip_bytes": [0],
    "voip_period_us": [0],
    "lcg_voip": [-1, 4],
    "lcg_video": [-1, 4],
}


@st.composite
def configs(draw):
    """The settings of one drawn config, by field name."""
    overrides = {**PRESETS[draw(st.sampled_from(["scenario1", "scenario2"]))],
                 "mode": "both", "warmup_us": 20 * MS}
    overrides.update((key, draw(values)) for key, values in IN_RANGE.items())
    overrides["eut_enb"] = draw(st.integers(1, overrides["enb_count"]))
    bad = draw(st.none() | st.sampled_from(sorted(OUT_OF_RANGE)))
    if bad is not None:
        overrides[bad] = draw(st.sampled_from(OUT_OF_RANGE[bad]))
    return overrides


FIELDS = {f.name for f in fields(SimConfig)}

_LATER = "not drawn yet: ROADMAP item 12 gives it a range"
# The fields no draw changes from the preset, each with its reason.
NOT_DRAWN = {
    "seed": "one seed per preset; the drawn settings vary the run",
    "warmup_us": "20 ms in every draw, so that a short run keeps samples",
    "mode": "both in every draw, so that each draw runs both modes",
    "traffic_case": "set by the preset drawn",
    "cm_count": "validate() accepts only 1",
    "cm_proc_us": "validated only; ROADMAP item 4 deletes it",
    "described_expiry_us": "validated only; ROADMAP item 4 deletes it",
    "trace_path": "the gate would have to write a file",
    **dict.fromkeys([
        "slot_bytes", "backoff_init", "backoff_max", "propagation_us",
        "sr_encode_us", "bsr_period_us", "mcs_mean", "mcs_sigma",
        "channel_update_us", "video_rate_bps", "video_frame_period_us",
        "video_burstiness", "trace_duration_us"], _LATER),
}


def test_every_setting_is_drawn_or_named_not_drawn():
    # a new field fails here until the gate draws it or says why not
    groups = [set(IN_RANGE), {"eut_enb"}, set(NOT_DRAWN)]
    assert sum(map(len, groups)) == len(FIELDS)
    assert set().union(*groups) == FIELDS


def outputs(report):
    return (report.text,
            [(list(run.collector.retained()), run.collector.counters,
              run.sim.events_processed) for run in report.runs])


def patcher(stack):
    """A setattr whose patches go when stack closes."""
    return lambda cls, name, value: stack.enter_context(
        mock.patch.object(cls, name, value))


def resolve_every_region(cm, msg):
    cm.sim.schedule_at(msg.window_start + msg.region_duration, PRIO_CONTROL,
                       cm.resolve_region, msg.window_start // cm.cfg.map_interval_us)


REFERENCE_PATHS = {
    (Enb, "busy"): lambda enb: True,
    (Enb, "on_subframe"): scan_every_ue,
    (BwrEmitter, "build"): filter_every_entry,
    (Cm, "_queue_region"): lambda cm, region_index: None,
    (Cm, "on_map"): resolve_every_region,
    **EVENTED_UGS,
    (Cmts, "_open_window"): lambda cmts, start: open_window(start, cmts.cfg, cmts.ugs),
    (docsis, "_fill"): reference_fill,
}


def reparsed(cfg):
    """cfg written out by dump_config and read back by parse_config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "echo.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
        return SimConfig(**parse_config(path))


# A config that no draw reaches: report frames queue at the modem. The
# 1.25 ms windows open with a 416 us contention region (16 slots at 5 Mb/s),
# so the UGS grant due at 3.8 ms is nudged past the report built at 4 ms, and
# two frames wait for it; the second rides the grant booked after it.
FRAMES_QUEUE = {**PRESETS["scenario1"], "mode": "both", "warmup_us": 20 * MS,
                "duration_us": 300 * MS, "map_interval_us": 1250,
                "upstream_bps": 5_000_000, "contention_slots": 16,
                "ugs_period_us": MS, "bwr_period_us": MS, "ugs_phase_us": 800}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
@example(FRAMES_QUEUE)
def test_every_accepted_config_runs_clean(drawn):
    try:
        cfg = SimConfig(**drawn)
    except ConfigError as exc:
        assert str(exc).split(" = ", 1)[0] in FIELDS, str(exc)
        return
    assert reparsed(cfg) == cfg
    with ExitStack() as stack:
        maps = record_maps(Cm, patcher(stack))
        announced = record_announced(patcher(stack))
        report = run_scenario(cfg)
    assert report_failures(report) == []
    assert report_path_failures(report.runs[1], sum(announced), maps) == []
    assert outputs(run_scenario(cfg)) == outputs(report)
    with ExitStack() as stack:
        patch = patcher(stack)
        for (cls, name), reference in REFERENCE_PATHS.items():
            patch(cls, name, reference)
        reference_maps = record_maps(Cm, patch)
        assert list(map(outcome, run_scenario(cfg).runs)) == list(map(outcome, report.runs))
    assert placing_maps(maps) == placing_maps(reference_maps)
