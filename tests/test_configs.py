"""A gate over drawn configurations: every config that SimConfig.validate()
accepts runs in both modes and passes the shared run checks, gives the same
results on the reference paths as on the fast ones, and re-parses from its
printed text to an equal config. The message of a config that validate()
rejects starts with the field at fault.

The reference run patches each fast path back to its slow twin: a tick every
subframe instead of the sleeping tick, a resolve_region event for every MAP
window instead of one per region that holds a REQ, and a MAP window laid out
afresh by open_window instead of once per distinct window.

Draws span the ranges below, on top of either preset; one draw in two also
sets one key to a value outside its range, which validate() must reject.
"""

import os
import tempfile
from contextlib import ExitStack
from dataclasses import fields, replace
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bwrsim.config import ConfigError, SimConfig, dump_config, parse_config, preset
from bwrsim.core import MS, PRIO_CONTROL
from bwrsim.docsis import Cm, Cmts, open_window
from bwrsim.lte import Enb
from bwrsim.runner import run_scenario

from run_checks import report_failures

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
    "sr_period_us": ms,
    "sr_to_bsr_grant_us": ms,
    "grant_to_bsr_us": ms,
    "bsr_to_data_grant_us": ms,
    "grant_to_data_us": ms,
    "enb_decode_us": ms,
    "packet_mtu": st.integers(200, 1500),
    "voip_bytes": st.integers(20, 300),
    "voip_period_us": st.sampled_from([10 * MS, 20 * MS, 40 * MS]),
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
}


@st.composite
def configs(draw):
    cfg = preset(draw(st.sampled_from(["scenario1", "scenario2"])))
    cfg = replace(cfg, mode="both", warmup_us=20 * MS,
                  **{key: draw(values) for key, values in IN_RANGE.items()})
    cfg.eut_enb = draw(st.integers(1, cfg.enb_count))
    bad = draw(st.none() | st.sampled_from(sorted(OUT_OF_RANGE)))
    if bad is not None:
        setattr(cfg, bad, draw(st.sampled_from(OUT_OF_RANGE[bad])))
    return cfg


FIELDS = {f.name for f in fields(SimConfig)}


def outputs(report):
    return (report.text,
            [(list(run.collector.retained()), run.collector.counters,
              run.sim.events_processed) for run in report.runs])


def outcomes(report):
    """Retained samples (row by row), counters and transport-block totals of
    each run."""
    return [(list(c.retained()), c.counters, c.tb_blocks, c.tb_carried)
            for c in (run.collector for run in report.runs)]


def resolve_every_region(cm, msg):
    cm.sim.schedule_at(msg.window_start + msg.region_duration, PRIO_CONTROL,
                       cm.resolve_region, msg.window_start // cm.cfg.map_interval_us)


REFERENCE_PATHS = {
    (Enb, "busy"): lambda enb: True,
    (Cm, "_queue_region"): lambda cm, region_index: None,
    (Cm, "on_map"): resolve_every_region,
    (Cmts, "_open_window"): lambda cmts, start: open_window(start, cmts.cfg,
                                                            cmts._ugs_flow),
}


def reparsed(cfg):
    """cfg written out by dump_config and read back by parse_config."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "echo.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(dump_config(cfg))
        return parse_config(path)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_every_accepted_config_runs_clean(cfg):
    try:
        cfg.validate()
    except ConfigError as exc:
        assert str(exc).split(" = ", 1)[0] in FIELDS, str(exc)
        return
    assert reparsed(cfg) == cfg
    report = run_scenario(cfg)
    assert report_failures(report) == []
    assert outputs(run_scenario(cfg)) == outputs(report)
    with ExitStack() as stack:
        for (cls, name), reference in REFERENCE_PATHS.items():
            stack.enter_context(mock.patch.object(cls, name, reference))
        assert outcomes(run_scenario(cfg)) == outcomes(report)
