import ast
import math
import re
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwrsim
from bwrsim import config, runner, traffic
from bwrsim.cli import main
from bwrsim.config import (FRAME_MAX_PACKETS, PRESETS, RUN_MAX_BACKLOG_PACKETS,
                           TRACE_MAX_FRAMES, ConfigError, SimConfig, dump_config,
                           parse_config, preset)
from bwrsim.core import MS, SEC
from bwrsim.runner import run_scenario, run_single


def test_scenario1_preset_matches_settings_table():
    cfg = preset("scenario1")
    assert cfg.duration_us == 2 * SEC            # 2 seconds (2000 subframes)
    assert cfg.enb_count == 1
    assert cfg.ues_per_enb == 6
    assert cfg.cm_count == 1
    assert cfg.bwr_period_us == 2 * MS
    assert cfg.ugs_period_us == 2 * MS
    assert cfg.bsr_period_us == 10 * MS
    assert cfg.channel_update_us == 10 * MS
    assert cfg.mcs_mean == 22.0
    assert cfg.harq_enabled and cfg.harq_bler == 0.1 and cfg.harq_max_retx == 4
    assert cfg.traffic_case == "voip"
    assert cfg.voip_bytes == 60 and cfg.voip_period_us == 20 * MS
    assert cfg.upstream_bps == 39_000_000


def test_scenario2_preset():
    cfg = preset("scenario2")
    assert cfg.enb_count == 4 and cfg.ues_per_enb == 6
    assert cfg.traffic_case == "video"
    assert cfg.eut_enb == 1
    # offered load: 24 UEs at the default per-UE rate is 31 Mb/s, 80% of 39
    aggregate = cfg.video_rate_bps * cfg.enb_count * cfg.ues_per_enb
    assert aggregate == pytest.approx(31e6, rel=1e-6)
    assert aggregate / cfg.upstream_bps == pytest.approx(0.795, abs=0.01)


def test_unknown_preset():
    with pytest.raises(ConfigError):
        preset("scenario9")


def test_parse_overrides_and_defaults(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text(
        "# test config\n"
        "[simulation]\n"
        "duration_ms = 500\n"
        "mode = bwr\n"
        "[lte-system]\n"
        "harq = off\n"
        "enb_decode_ms = 1.5\n"
        "[traffic]\n"
        "case = voip\n")
    # only the keys the file sets, in the fields' units
    assert parse_config(str(f)) == {"duration_us": 500 * MS, "mode": "bwr",
                                    "harq_enabled": False, "enb_decode_us": 1500,
                                    "traffic_case": "voip"}


def test_unknown_key_reports_line(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("[simulation]\nduration_ms = 500\nfoo = 1\n")
    with pytest.raises(ConfigError, match=r":3: unknown key 'foo'"):
        parse_config(str(f))


def test_unknown_section_reports_line(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("[nope]\n")
    with pytest.raises(ConfigError, match=r":1: unknown section"):
        parse_config(str(f))


def test_bad_value_reports_line(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("[simulation]\nseed = pony\n")
    with pytest.raises(ConfigError, match=r":2:"):
        parse_config(str(f))


def test_semantic_error_ugs_grant_too_small(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("[docsis]\nugs_grant_bytes = 64\n")
    with pytest.raises(ConfigError, match="80-byte report"):
        SimConfig(**parse_config(str(f)))


INT_FIELDS = [f.name for f in fields(SimConfig) if f.type in (int, int | None)]


@pytest.mark.parametrize("key, value", [
    ("sr_period_us", 1500), ("sr_encode_us", -1), ("sr_to_bsr_grant_us", 0),
    ("grant_to_bsr_us", 0), ("bsr_to_data_grant_us", 0), ("grant_to_data_us", 0),
    ("enb_decode_us", 0), ("bsr_period_us", 0), ("map_interval_us", 0),
    ("maps_in_advance", 0), ("cmts_proc_us", 5000), ("cm_proc_us", 5000),
    ("propagation_us", -1), ("contention_slots", 0), ("slot_bytes", 0),
    ("upstream_bps", 0), ("backoff_init", 0), ("backoff_max", 4),
    # this one used to pass validate() and fail mid-run
    ("cm_framing_us", -2000),
    # rules whose message did not start with the key
    ("mode", "sideways"), ("traffic_case", "fax"), ("duration_us", 0),
    ("warmup_us", -1), ("enb_count", 0), ("ues_per_enb", 0), ("cm_count", 2),
    ("eut_enb", 2), ("bwr_period_us", 1500), ("ugs_period_us", 4 * MS),
    ("ugs_grant_bytes", 64), ("ugs_grant_bytes", 5000), ("harq_bler", 1.0),
    ("harq_max_retx", -1), ("mcs_mean", 30.0),
    ("mcs_sigma", -1.0), ("packet_mtu", 0), ("lcg_voip", 4), ("lcg_video", -1),
    ("voip_bytes", 0), ("voip_period_us", 0), ("video_rate_bps", 0),
    ("video_frame_period_us", 0), ("video_burstiness", -0.5),
    ("contention_slots", 600), ("ugs_period_us", 0), ("ugs_period_us", -2000),
    ("channel_update_us", -1000),
    # 0 used to hang the run (the channel tick rescheduled itself at the same
    # instant)
    ("channel_update_us", 0),
    # these used to pass validate() and fail mid-run
    ("video_rate_bps", float("nan")), ("video_rate_bps", float("inf")),
    ("mcs_sigma", float("nan")), ("mcs_sigma", float("inf")),
    ("video_burstiness", float("nan")), ("video_burstiness", float("inf")),
    ("video_burstiness", 1e155),
    # this one used to pass validate() and change the run: every reported
    # byte's credit had expired by the time the byte reached the CM
    ("described_expiry_us", -5 * MS),
    # these used to pass validate(): duration_us = inf then never ends, and
    # map_interval_us = inf raised TypeError in the window dry run; True used
    # to pass as the int 1 and print as a text that does not re-parse
    *[(key, value) for key in INT_FIELDS for value in (math.inf, 2.5, True)],
])
def test_validate_names_the_key_of_a_timing_profile_error(key, value):
    with pytest.raises(ConfigError, match="^" + re.escape(f"{key} = {value}: ")):
        replace(preset("scenario1"), **{key: value})


@pytest.mark.parametrize("harq, period_us, g2d_us, decode_us", [
    (False, 4 * MS, MS, MS),          # a grant 1 ms after a build egresses at 3 ms
    (False, 8 * MS, 3 * MS, 4 * MS),
    (True, 8 * MS, 4 * MS, 4 * MS),   # a retransmission announced at a build
    (True, 9 * MS, 4 * MS, 4500),     # ... or half a subframe after one
])
def test_validate_rejects_report_period_beyond_the_lead(harq, period_us, g2d_us,
                                                        decode_us):
    # these used to fail mid-run in bwr mode: BwrCodecError, egress_time not
    # in the future; validate only, never run
    with pytest.raises(ConfigError, match=f"^bwr_period_us = {period_us}: "):
        SimConfig(harq_enabled=harq, bwr_period_us=period_us,
                  grant_to_data_us=g2d_us, enb_decode_us=decode_us)


@pytest.mark.parametrize("harq, bler, max_retx, period_us, g2d_us, decode_us", [
    (False, 0.5, 4, 4 * MS, 1500, 1600),
    (True, 0.5, 4, 7 * MS, 4 * MS, 4 * MS),
    (False, 0.5, 4, 8 * MS, 4 * MS, 4 * MS),
    (True, 0.5, 4, 8 * MS, 4 * MS, 4500),   # decodes fall half a subframe after a build
    (True, 0.5, 4, 8 * MS, 3500, 4 * MS),   # the lead rule covers retransmissions
    (True, 0.0, 4, 8 * MS, 4 * MS, 4 * MS),  # no block is retransmitted
    (True, 0.5, 0, 8 * MS, 4 * MS, 4 * MS),
])
def test_accepted_report_period_runs(harq, bler, max_retx, period_us, g2d_us, decode_us):
    cfg = replace(preset("scenario1"), harq_enabled=harq, harq_bler=bler,
                  harq_max_retx=max_retx, bwr_period_us=period_us,
                  grant_to_data_us=g2d_us, enb_decode_us=decode_us,
                  duration_us=500 * MS)
    assert run_single(cfg, "bwr").collector.counters.bwr_reports_built > 0


@pytest.mark.parametrize("overrides", [
    {"ugs_grant_bytes": 5000},
    {"ugs_grant_bytes": 10000},
    # no grant in the first window; the second has no room for one
    {"ugs_grant_bytes": 9000, "ugs_period_us": 3 * MS, "bwr_period_us": 4 * MS},
], ids=["5000B", "10000B", "9000B-second-window"])
def test_validate_rejects_ugs_grants_that_do_not_fit(overrides):
    with pytest.raises(ConfigError, match="ugs_grant_bytes"):
        SimConfig(**overrides)


@pytest.mark.parametrize("phase_us", [1990, -3])
def test_ugs_phase_that_splits_a_grant_names_the_phase(phase_us):
    # the 17 us grant straddles the end of a MAP window; at the default phase
    # it fits, so the phase is at fault, not the size
    with pytest.raises(ConfigError, match=r"^ugs_phase_us = "):
        replace(preset("scenario1"), ugs_phase_us=phase_us)


@pytest.mark.parametrize("phase_us", [-1000, 2000, 5000])
def test_ugs_phase_whose_grant_fits_is_accepted(phase_us):
    assert replace(preset("scenario1"), ugs_phase_us=phase_us).ugs_phase_us == phase_us


def test_ugs_grant_too_large_for_any_phase_names_the_size():
    # 9,700 B at 39 Mb/s is 1,990 us, longer than a window less its region
    with pytest.raises(ConfigError, match=r"^ugs_grant_bytes = 9700"):
        replace(preset("scenario1"), ugs_grant_bytes=9700, ugs_phase_us=1990)


def test_validate_rejects_contention_region_longer_than_map_interval():
    with pytest.raises(ConfigError, match="contention_slots"):
        SimConfig(contention_slots=600)       # 600 x 4 us > 2 ms


@pytest.mark.parametrize("cfg", [SimConfig(ugs_grant_bytes=4000),
                                 preset("scenario1"), preset("scenario2")],
                         ids=["4000B", "scenario1", "scenario2"])
def test_accepted_ugs_layout_runs(cfg):
    run = run_single(replace(cfg, duration_us=200 * MS), "bwr")
    assert run.collector.counters.ugs_wasted_bytes > 0


@pytest.mark.parametrize("key, value", [("grant_to_data_us", 8000),
                                        ("grant_to_data_us", 9000),
                                        ("enb_decode_us", 8001),
                                        ("enb_decode_us", 9000)])
def test_validate_rejects_harq_timing_beyond_the_round_trip(key, value):
    # these used to fail mid-run (HARQ process already active; a retransmission
    # scheduled in the past); validate only, never run
    with pytest.raises(ConfigError, match=f"{key} = {value}: .* HARQ round trip"):
        replace(preset("scenario2"), **{key: value})


@pytest.mark.parametrize("harq, key, value", [(True, "grant_to_data_us", 7999),
                                              (True, "enb_decode_us", 8000),
                                              (False, "grant_to_data_us", 9000),
                                              (False, "enb_decode_us", 9000)])
def test_accepted_harq_timing_runs(harq, key, value):
    cfg = replace(preset("scenario2"), harq_enabled=harq, mode="both",
                  duration_us=300 * MS, **{key: value})
    report = run_scenario(cfg)
    assert report.deltas


def test_validate_rejects_bad_mode():
    with pytest.raises(ConfigError):
        SimConfig(mode="sideways")


def test_validate_rejects_eut_out_of_range():
    with pytest.raises(ConfigError):
        SimConfig(enb_count=2, eut_enb=3)


def test_config_is_frozen():
    cfg = preset("scenario1")
    with pytest.raises(FrozenInstanceError):
        cfg.duration_us = 0
    assert cfg == preset("scenario1")


def test_dump_parse_round_trip(tmp_path):
    # more than six significant digits in ms and in Mb/s
    cfg = replace(preset("scenario2"), seed=42, duration_us=1_234_567,
                  upstream_bps=39_123_456)
    text = dump_config(cfg)
    f = tmp_path / "echo.cfg"
    f.write_text(text)
    assert SimConfig(**parse_config(str(f))) == cfg


VIDEO_RATE = next(f for f in fields(SimConfig) if f.name == "video_rate_bps")


@settings(max_examples=2000, deadline=None, derandomize=True, database=None)
@given(st.floats(1e3, 1e8, exclude_max=True))
def test_video_rate_text_re_parses_to_the_same_rate(bps):
    unit = VIDEO_RATE.metadata["unit"]
    assert unit.parse(unit.format(bps)) == bps


@pytest.mark.parametrize("text, bps", [
    ("1291.6666666666667", 31_000_000 / 24),
    ("64.1", 64_100.0),               # float("64.1") * 1000 is 64099.99999999999
    ("128.3", 128_300.0),             # and float("128.3") * 1000 128300.00000000001
])
def test_video_rate_text_reads_as_its_exact_value(text, bps):
    unit = VIDEO_RATE.metadata["unit"]
    assert unit.parse(text) == bps
    assert unit.format(bps) == text


def test_every_field_declares_one_file_key():
    keys = [(f.metadata["section"], f.metadata["key"]) for f in fields(SimConfig)]
    assert len(set(keys)) == len(keys)


# Only the rules between settings in validate() check these, or no rule does.
NO_DOMAIN = {"seed", "harq_enabled", "bwr_per_lcg", "ugs_phase_us", "trace_path",
             "backoff_max", "trace_duration_us"}


def test_every_setting_declares_its_domain():
    assert {f.name for f in fields(SimConfig) if f.metadata["domain"] is None} == NO_DOMAIN


# Only validate() reads these, but they print in report.txt: deleting them
# waits for the re-record of the benchmark's golden outputs (ROADMAP item 4).
# bwr_per_lcg, lcg_voip and lcg_video went unread when every report became
# bulk: every byte of a run is in the run's one LCG.
VALIDATED_ONLY = {"cm_count", "cm_proc_us", "described_expiry_us",
                  "bwr_per_lcg", "lcg_voip", "lcg_video"}


def test_every_setting_is_read_outside_validate():
    # a setting that only validate() reads changes nothing a run does
    read = set()
    for path in Path(bwrsim.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_validate = {id(node) for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef) and cls.name == "SimConfig"
                       for fn in cls.body
                       if isinstance(fn, ast.FunctionDef) and fn.name == "validate"
                       for node in ast.walk(fn)}
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                 and id(node) not in in_validate}
    assert {f.name for f in fields(SimConfig)} - read == VALIDATED_ONLY


def test_every_module_level_name_is_read():
    # a name that src/, tests/ and bench/ never read is dead code; a name
    # that a module's __all__ exports is read by the package's users
    package = Path(bwrsim.__file__).parent
    read, defined = set(), {}
    for folder in (package, Path(__file__).parent, package.parents[1] / "bench"):
        for path in folder.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    read.add(node.id if isinstance(node, ast.Name) else node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
    for path in package.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target)
                         if isinstance(name, ast.Name)]
            else:
                continue
            if names == ["__all__"]:
                read.update(ast.literal_eval(node.value))
            else:
                defined.update(dict.fromkeys(names, path.stem))
    assert {f"{module}.{name}" for name, module in defined.items() if name not in read} == set()


def test_ugs_phase_default_is_half_period():
    cfg = SimConfig()
    assert cfg.ugs_phase() == MS
    assert replace(cfg, ugs_phase_us=500).ugs_phase() == 500


# -- command line ----------------------------------------------------------------

def test_cli_gutil_typical(capsys):
    assert main(["gutil", "4", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "0.9482"


def test_cli_gutil_single_attempt(capsys):
    assert main(["gutil", "0", "0.1"]) == 0
    assert capsys.readouterr().out.strip() == "0.9000"


def test_cli_gutil_domain_error(capsys):
    assert main(["gutil", "4", "1.0"]) == 1
    assert "error" in capsys.readouterr().err


def video_config(tmp_path, lines: str) -> str:
    """A video config file holding the given [traffic] lines."""
    f = tmp_path / "video.cfg"
    f.write_text("[traffic]\ncase = video\n" + lines)
    return str(f)


def test_cli_synth_trace_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    f = video_config(tmp_path, "video_rate_kbps = 1292\ntrace_duration_ms = 10000\n"
                               "video_burstiness = 0.5\n")
    args = ["synth-trace", "--config", f, "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    out = capsys.readouterr().out
    assert "realized_kbps=" in out
    realized = float(out.rsplit("realized_kbps=", 1)[1].split()[0])
    assert realized == pytest.approx(1292.0, rel=0.02)


def test_cli_synth_trace_burstiness_zero_constant(tmp_path):
    out = tmp_path / "c.trace"
    f = video_config(tmp_path, "video_rate_kbps = 1000\ntrace_duration_ms = 2000\n"
                               "video_burstiness = 0\n")
    assert main(["synth-trace", "--config", f, "--out", str(out)]) == 0
    sizes = {line.split(",")[1] for line in out.read_text().splitlines()
             if line and not line.startswith("#")}
    assert len(sizes) == 1


def test_cli_synth_trace_unwritable_path(tmp_path, capsys):
    f = video_config(tmp_path, "video_rate_kbps = 1000\ntrace_duration_ms = 1000\n")
    assert main(["synth-trace", "--config", f, "--out", "/nonexistent-dir/x.trace"]) == 1


def test_cli_synth_trace_refuses_a_voip_config(tmp_path, capsys):
    # it used to write a video trace that no VoIP run replays
    out = tmp_path / "x.trace"
    assert main(["synth-trace", "--preset", "scenario1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: traffic_case = voip: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_print_config(capsys):
    assert main(["print-config", "--preset", "scenario1", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "[simulation]" in out and "seed = 9" in out


def test_cli_flag_overrides_file_overrides_preset(tmp_path, capsys):
    # the file's 50 ms run used to be validated, and refused, before the flag
    f = tmp_path / "short.cfg"
    f.write_text("[simulation]\nduration_ms = 50\n[enb]\ncount = 2\n")
    assert main(["print-config", "--preset", "scenario2", "--config", str(f),
                 "--duration-ms", "2000"]) == 0
    out = capsys.readouterr().out
    assert "duration_ms = 2000\n" in out        # the flag over the file
    assert "\ncount = 2\n" in out              # the file over the preset
    assert "case = video\n" in out             # the preset where the file is silent


@pytest.mark.parametrize("args, validations", [
    (["print-config"], 1),
    (["run", "--mode", "both", "--duration-ms", "300"], 1),
], ids=["print-config", "run-both"])
def test_cli_validates_the_merged_config_once(tmp_path, monkeypatch, args, validations):
    f = tmp_path / "run.cfg"
    f.write_text("[simulation]\nseed = 5\n")
    calls = []
    validate = SimConfig.validate
    monkeypatch.setattr(SimConfig, "validate", lambda cfg: calls.append(cfg) or validate(cfg))
    if args[0] == "run":
        args = args + ["--out-dir", str(tmp_path / "out")]
    assert main(args + ["--config", str(f)]) == 0
    assert len(calls) == validations


def test_cli_run_smoke(tmp_path, capsys):
    code = main(["run", "--preset", "scenario1", "--duration-ms", "400",
                 "--mode", "both", "--out-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "docsis-only" in out
    assert (tmp_path / "report.txt").exists()
    assert (tmp_path / "samples_baseline.csv").exists()
    assert (tmp_path / "samples_bwr.csv").exists()
    assert (tmp_path / "cdf_docsis_bwr.csv").exists()
    assert (tmp_path / "deltas.csv").exists()


def test_cli_bad_config_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("[simulation]\nfoo = 1\n")
    assert main(["run", "--config", str(f)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_cli_timing_profile_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("[docsis]\nmap_interval_ms = 0\n")
    assert main(["run", "--preset", "scenario1", "--config", str(f),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: map_interval_us = 0")
    assert err.count("\n") == 1


def test_cli_negative_cm_framing_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("[docsis]\ncm_framing_ms = -2\n")
    assert main(["run", "--preset", "scenario1", "--config", str(f),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: cm_framing_us = -2000: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text, flags, error", [
    # these two used to end in an OverflowError traceback
    ("[lte-system]\nmcs_sigma = inf\n", [], "mcs_sigma = inf: "),
    ("[simulation]\nduration_ms = inf\n", [], ":2: bad value for duration_ms: "),
    # the flag used to end in an OverflowError traceback, and in an error
    # that did not name the key
    ("", ["--duration-ms", "inf"], "error: bad value for duration_ms: "),
    ("", ["--duration-ms", "nan"], "error: bad value for duration_ms: "),
    # a finite rate whose mean frame size overflows used to end in "cannot
    # convert float NaN to integer"
    ("[traffic]\nvideo_rate_kbps = 1e305\n", [], "error: video_rate_bps = "),
    # a finite trace whose frames hold more packets than a list can index
    # used to end in an OverflowError traceback from traffic.packetize
    ("[traffic]\nvideo_rate_kbps = 1e290\n", [], "error: video_rate_bps = "),
], ids=["mcs_sigma", "duration_ms", "flag-inf", "flag-nan", "video_rate",
        "video_rate_packets"])
def test_cli_infinite_value_exit_code(tmp_path, capsys, text, flags, error):
    f = tmp_path / "bad.cfg"
    f.write_text(text)
    assert main(["run", "--preset", "scenario2", "--config", str(f), *flags,
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: ") and error in err
    assert err.count("\n") == 1


def test_largest_accepted_spreads_run():
    # the largest finite MCS spread, and the largest burstiness whose square is
    # finite: the run clamps the MCS draw and sizes video frames without overflow
    cfg = replace(preset("scenario2"), mcs_sigma=sys.float_info.max,
                  video_burstiness=math.sqrt(sys.float_info.max), duration_us=300 * MS)
    assert run_single(cfg, "bwr").collector.counters.egressed_packets > 0
    with pytest.raises(ConfigError, match="^video_burstiness = "):
        replace(cfg, video_burstiness=math.nextafter(cfg.video_burstiness, math.inf))


def test_smallest_burstiness_runs():
    # 1 + b * b rounds to 1.0, so the log-normal's sigma is 0: the trace is
    # the constant one of burstiness 0 (the run used to fail in Rng.normal)
    cfg = replace(preset("scenario2"), video_burstiness=1e-9, duration_us=200 * MS)
    assert runner.build_trace(cfg) == runner.build_trace(replace(cfg, video_burstiness=0.0))
    assert run_single(cfg, "baseline").collector.counters.egressed_packets > 0


@pytest.mark.parametrize("command", ["print-config", "run"])
def test_cli_missing_trace_file_exit_code(tmp_path, capsys, command):
    trace = tmp_path / "none.trace"
    f = tmp_path / "missing.cfg"
    f.write_text(f"[traffic]\ncase = video\ntrace_path = {trace}\n")
    args = [command, "--preset", "scenario2", "--config", str(f)]
    if command == "run":
        args += ["--out-dir", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bwrsim: error: trace_path = {trace}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_synthetic_trace_shorter_than_a_frame_rejected(tmp_path):
    f = tmp_path / "short.cfg"
    f.write_text("[traffic]\ncase = video\ntrace_duration_ms = 10\n")
    with pytest.raises(ConfigError, match="trace_duration_us = 10000"):
        SimConfig(**parse_config(str(f)))
    # a trace file or VoIP traffic does not use the synthetic trace
    trace = tmp_path / "ok.trace"
    trace.write_text("#bwr-trace v1\n0,1000\n33,1000\n")
    SimConfig(traffic_case="video", trace_duration_us=10 * MS, trace_path=str(trace))
    SimConfig(traffic_case="voip", trace_duration_us=10 * MS)


def test_video_rate_whose_mean_frame_overflows_rejected():
    with pytest.raises(ConfigError, match=r"^video_rate_bps = 1e\+305: "):
        SimConfig(traffic_case="video", video_rate_bps=1e305)
    # VoIP traffic does not use the synthetic trace
    SimConfig(traffic_case="voip", video_rate_bps=1e305)


def test_video_rate_whose_trace_cannot_packetize_rejected():
    # 4 s of 33 ms frames: 121 frames; 2.8e8 b/s makes about 99,800 packets
    # of 1400 bytes, under FRAME_MAX_PACKETS, and 3e8 b/s about 107,000
    SimConfig(traffic_case="video", video_rate_bps=2.8e8)
    with pytest.raises(ConfigError, match=r"^video_rate_bps = 300000000.0: .*packet_mtu = 1400"):
        SimConfig(traffic_case="video", video_rate_bps=3e8)
    # larger packets, or a shorter trace, bring the same rate within the bound
    SimConfig(traffic_case="video", video_rate_bps=3e8, packet_mtu=2000)
    SimConfig(traffic_case="video", video_rate_bps=3e8, trace_duration_us=33 * MS)
    SimConfig(traffic_case="voip", video_rate_bps=3e8)


def test_synthetic_trace_of_more_frames_than_the_cap_rejected():
    longest = TRACE_MAX_FRAMES * 33 * MS
    SimConfig(traffic_case="video", video_rate_bps=100.0, trace_duration_us=longest)
    with pytest.raises(ConfigError, match=f"^trace_duration_us = {longest + 33 * MS}: "):
        SimConfig(traffic_case="video", video_rate_bps=100.0,
                  trace_duration_us=longest + 33 * MS)


def trace_file(tmp_path, sizes) -> str:
    """A trace file of frames 33 ms apart with the given sizes."""
    trace = tmp_path / "sizes.trace"
    trace.write_text("#bwr-trace v1\n" + "".join(f"{33 * i},{n}\n"
                                                   for i, n in enumerate(sizes)))
    return str(trace)


@pytest.mark.parametrize("frames, nbytes, ok", [
    (3, 1400, True), (4, 1400, False),
    (1, FRAME_MAX_PACKETS * 1400, True), (1, FRAME_MAX_PACKETS * 1400 + 1, False),
])
def test_trace_file_beyond_the_cap_rejected(tmp_path, monkeypatch, frames, nbytes, ok):
    monkeypatch.setattr(config, "TRACE_MAX_FRAMES", 3)     # a file of a million lines is slow
    path = trace_file(tmp_path, [1000] * (frames - 1) + [nbytes])
    # one UE and one loop of the trace, so that the run's backlog stays
    # within RUN_MAX_BACKLOG_PACKETS
    settings = dict(traffic_case="video", trace_path=path, ues_per_enb=1,
                    duration_us=MS, warmup_us=0)
    if ok:
        SimConfig(**settings)
    else:
        with pytest.raises(ConfigError, match=f"^trace_path = {re.escape(path)}: "):
            SimConfig(**settings)


def test_run_whose_backlog_exceeds_the_cap_rejected(monkeypatch):
    # 24 UEs each get a 136 MB frame every 33 ms that 39 Mb/s cannot drain:
    # this used to pass validate() and end in a MemoryError mid-run
    monkeypatch.setattr(traffic, "synth_video", lambda *args: pytest.fail("trace built"))
    with pytest.raises(ConfigError, match=r"^duration_us = 200000: the UEs offer "
                       r"914760000000 b/s over the run and upstream_bps carries "
                       r"39000000 b/s: more than 1000000 packets of 1400 bytes"):
        SimConfig(**PRESETS["scenario2"], mode="baseline", duration_us=200 * MS,
                  trace_duration_us=33 * MS, video_rate_bps=3.3e10)


def test_run_backlog_cap_is_exact():
    # 39 Mb/s carries 81,250 packets of 60 bytes in 1 s, and each UE offers
    # 50: 21,625 UEs leave exactly RUN_MAX_BACKLOG_PACKETS queued
    assert RUN_MAX_BACKLOG_PACKETS == 21_625 * 50 - 81_250
    SimConfig(ues_per_enb=21_625, duration_us=SEC)
    with pytest.raises(ConfigError, match="^duration_us = 1000000: "):
        SimConfig(ues_per_enb=21_626, duration_us=SEC)


def test_run_backlog_counts_a_small_frame_as_one_small_packet():
    # 50 B frames every 200 us, one packet each: 24 UEs offer 48 Mb/s to
    # 39 Mb/s. A 60 s run leaves 67.5 MB queued: 48,214 packets of the
    # 1400-byte MTU, which the cap used to admit, but 1,350,000 of 50 bytes.
    settings = dict(PRESETS["scenario2"], video_frame_period_us=200,
                    video_rate_bps=2e6, warmup_us=0)
    SimConfig(**settings, duration_us=40 * SEC)          # 900,000 packets
    with pytest.raises(ConfigError, match=r"^duration_us = 60000000: .* more than "
                       r"1000000 packets of 50 bytes would still be queued"):
        SimConfig(**settings, duration_us=60 * SEC)


def test_run_backlog_counts_each_loop_of_a_trace_file(tmp_path):
    # one frame of FRAME_MAX_PACKETS packets loops every 1 ms: a run of 10
    # loops leaves under RUN_MAX_BACKLOG_PACKETS queued, one of 11 more
    path = trace_file(tmp_path, [FRAME_MAX_PACKETS * 1400])
    settings = dict(traffic_case="video", trace_path=path, ues_per_enb=1, warmup_us=0)
    SimConfig(**settings, duration_us=10 * MS)
    with pytest.raises(ConfigError, match="^duration_us = 10001: "):
        SimConfig(**settings, duration_us=10 * MS + 1)


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("duration_us", [1, 33 * MS, 4 * SEC + 1, 3600 * SEC])
def test_presets_offer_less_than_the_upstream_at_any_length(name, duration_us):
    SimConfig(**PRESETS[name], duration_us=duration_us, warmup_us=0)


@pytest.mark.parametrize("mode", ["baseline", "bwr", "both"])
def test_report_mode_rejects_an_eut_a_report_cannot_carry(mode):
    # a report carries eut_enb in 16 bits: this used to fail at the eut's
    # first report with "enb_id 65536 unencodable". run_single may run bwr on
    # a config of any mode, so every mode rejects it.
    settings = dict(enb_count=65_536, ues_per_enb=1, duration_us=60 * MS, warmup_us=0)
    SimConfig(**settings, eut_enb=65_535, mode=mode)
    with pytest.raises(ConfigError, match="^eut_enb = 65536: .*16-bit"):
        SimConfig(**settings, eut_enb=65_536, mode=mode)


def test_cli_print_config_rejects_an_mtu_beyond_a_float(tmp_path, capsys):
    # validate() divides the synthetic trace's bytes by the MTU: one of 401
    # digits used to end in an OverflowError traceback
    mtu = 10 ** 400
    f = tmp_path / "mtu.cfg"
    f.write_text(f"[traffic]\npacket_mtu = {mtu}\n")
    assert main(["print-config", "--preset", "scenario2", "--config", str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bwrsim: error: packet_mtu = {mtu}: must be positive and at most "
                          f"{sys.float_info.max!r}")
    assert err.count("\n") == 1
    largest = int(sys.float_info.max)
    f.write_text(f"[traffic]\npacket_mtu = {largest}\n")
    assert main(["print-config", "--preset", "scenario2", "--config", str(f)]) == 0
    assert f"packet_mtu = {largest}\n" in capsys.readouterr().out


@pytest.mark.parametrize("lines, key", [
    ("trace_duration_ms = 1e9\n", "trace_duration_us"),
    ("video_rate_kbps = 1e15\n", "video_rate_bps"),
    ("trace_path = {trace}\n", "trace_path"),
    ("trace_duration_ms = 33\nvideo_rate_kbps = 3.3e7\n", "duration_us"),
], ids=["trace_duration", "video_rate", "trace_path", "backlog"])
def test_cli_trace_too_large_to_build_exit_code(tmp_path, capsys, monkeypatch, lines, key):
    # each used to pass validate() and end in a MemoryError mid-run, in
    # traffic.synth_video, traffic.packetize or TraceSource._emit
    monkeypatch.setattr(runner, "build_trace", lambda cfg: pytest.fail("trace built"))
    f = tmp_path / "large.cfg"
    f.write_text("[traffic]\n" + lines.format(trace=trace_file(tmp_path, [10 ** 15])))
    assert main(["run", "--preset", "scenario2", "--mode", "baseline", "--duration-ms",
                 "200", "--config", str(f), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bwrsim: error: {key} = ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_cli_malformed_trace_file_exit_code(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("#bwr-trace v1\n0,1000\n33,1000\n33,1000\n")
    f = tmp_path / "bad.cfg"
    f.write_text(f"[traffic]\ncase = video\ntrace_path = {trace}\n")
    assert main(["run", "--preset", "scenario2", "--config", str(f),
                 "--duration-ms", "300", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bwrsim: error: trace_path = {trace}: ")
    assert err.count("\n") == 1


def test_cli_trace_file_gone_after_validate_exit_code(tmp_path, capsys, monkeypatch):
    # validate() reads the trace file, and each mode's build reads it again:
    # a file gone in between ends in one error line, not in a traceback
    trace = trace_file(tmp_path, [1000, 1000])
    f = tmp_path / "gone.cfg"
    f.write_text(f"[traffic]\ncase = video\ntrace_path = {trace}\n")
    build_trace = runner.build_trace

    def remove_then_build(cfg):
        Path(trace).unlink(missing_ok=True)
        return build_trace(cfg)

    monkeypatch.setattr(runner, "build_trace", remove_then_build)
    assert main(["run", "--preset", "scenario2", "--config", str(f),
                 "--duration-ms", "300", "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bwrsim: error: [Errno 2] No such file or directory: '{trace}'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("records, lineno", [
    ("0,1000\ninf,1000\n", 3),
    ("0,1000\n#duration_ms=inf\n", 3),
], ids=["offset", "duration"])
def test_cli_infinite_trace_time_exit_code(tmp_path, capsys, records, lineno):
    # round() of an infinite time used to end in an OverflowError traceback
    trace = tmp_path / "inf.trace"
    trace.write_text("#bwr-trace v1\n" + records)
    f = tmp_path / "inf.cfg"
    f.write_text(f"[traffic]\ncase = video\ntrace_path = {trace}\n")
    assert main(["print-config", "--preset", "scenario2", "--config", str(f)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"bwrsim: error: trace_path = {trace}: {trace}:{lineno}: ")
    assert err.count("\n") == 1


def test_run_replays_the_trace_synth_trace_writes(tmp_path, monkeypatch):
    f = tmp_path / "short.cfg"
    f.write_text("[simulation]\nduration_ms = 500\n")
    common = ["--preset", "scenario2", "--config", str(f), "--seed", "3"]
    trace = tmp_path / "video.trace"
    assert main(["synth-trace", *common, "--out", str(trace)]) == 0
    synth, replay = tmp_path / "synth", tmp_path / "replay"
    assert main(["run", *common, "--mode", "both", "--out-dir", str(synth)]) == 0
    f.write_text(f"[simulation]\nduration_ms = 500\n[traffic]\ntrace_path = {trace}\n")
    reads = []
    read_trace = traffic.read_trace
    for module in (config, runner):
        monkeypatch.setattr(module, "read_trace",
                            lambda path: reads.append(path) or read_trace(path))
    assert main(["run", *common, "--mode", "both", "--out-dir", str(replay)]) == 0
    # validate() when the merged config is built, and each mode's build
    assert len(reads) == 3
    csvs = sorted(p.name for p in synth.glob("*.csv"))
    assert len(csvs) == 7
    for name in csvs:
        assert (replay / name).read_bytes() == (synth / name).read_bytes(), name


def test_cli_synth_trace_zero_frame_period_exit_code(tmp_path, capsys):
    f = video_config(tmp_path, "video_rate_kbps = 1000\ntrace_duration_ms = 1000\n"
                               "video_frame_period_ms = 0\n")
    assert main(["synth-trace", "--config", f, "--out", str(tmp_path / "x.trace")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: video_frame_period_us = 0: ")
    assert err.count("\n") == 1


def test_cli_harq_timing_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("[lte-system]\ngrant_to_data_ms = 8\n")
    assert main(["run", "--preset", "scenario2", "--config", str(f),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: grant_to_data_us = 8000")
    assert err.count("\n") == 1
