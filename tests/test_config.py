import ast
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwrsim
from bwrsim.cli import main
from bwrsim.config import (ConfigError, SimConfig, dump_config, parse_config,
                           preset)
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
    cfg = parse_config(str(f))
    assert cfg.duration_us == 500 * MS
    assert cfg.mode == "bwr"
    assert not cfg.harq_enabled
    assert cfg.enb_decode_us == 1500
    assert cfg.sr_period_us == 5 * MS            # untouched default


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
        parse_config(str(f))



@pytest.mark.parametrize("period_us", [0, -2000])
def test_validate_rejects_non_positive_ugs_period(period_us):
    cfg = SimConfig(ugs_period_us=period_us)
    with pytest.raises(ConfigError, match="ugs_period_us"):
        cfg.validate()


@pytest.mark.parametrize("period_us", [0, -1000])
def test_validate_rejects_non_positive_channel_update(period_us):
    # 0 used to hang the run (the channel tick rescheduled itself at the same
    # instant); validate only, never run
    cfg = SimConfig(channel_update_us=period_us)
    with pytest.raises(ConfigError, match="channel_update_us"):
        cfg.validate()


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
    ("contention_slots", 600),
    # these two used to pass validate() and fail mid-run
    ("video_rate_bps", float("nan")), ("video_rate_bps", float("inf")),
])
def test_validate_names_the_key_of_a_timing_profile_error(key, value):
    cfg = preset("scenario1")
    setattr(cfg, key, value)
    with pytest.raises(ConfigError, match="^" + re.escape(f"{key} = {value}: ")):
        cfg.validate()


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
    cfg = SimConfig(harq_enabled=harq, bwr_period_us=period_us,
                    grant_to_data_us=g2d_us, enb_decode_us=decode_us)
    with pytest.raises(ConfigError, match=f"^bwr_period_us = {period_us}: "):
        cfg.validate()


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
    cfg.validate()
    assert run_single(cfg, "bwr").collector.counters["bwr_reports_built"] > 0


@pytest.mark.parametrize("overrides", [
    {"ugs_grant_bytes": 5000},
    {"ugs_grant_bytes": 10000},
    # no grant in the first window; the second has no room for one
    {"ugs_grant_bytes": 9000, "ugs_period_us": 3 * MS, "bwr_period_us": 4 * MS},
], ids=["5000B", "10000B", "9000B-second-window"])
def test_validate_rejects_ugs_grants_that_do_not_fit(overrides):
    cfg = SimConfig(**overrides)
    with pytest.raises(ConfigError, match="ugs_grant_bytes"):
        cfg.validate()


def test_validate_rejects_contention_region_longer_than_map_interval():
    cfg = SimConfig(contention_slots=600)      # 600 x 4 us > 2 ms
    with pytest.raises(ConfigError, match="contention_slots"):
        cfg.validate()


@pytest.mark.parametrize("cfg", [SimConfig(ugs_grant_bytes=4000),
                                 preset("scenario1"), preset("scenario2")],
                         ids=["4000B", "scenario1", "scenario2"])
def test_accepted_ugs_layout_runs(cfg):
    cfg.validate()
    cfg.duration_us = 200 * MS
    run = run_single(cfg, "bwr")
    assert run.collector.counters["ugs_wasted_bytes"] > 0


@pytest.mark.parametrize("key, value", [("grant_to_data_us", 8000),
                                        ("grant_to_data_us", 9000),
                                        ("enb_decode_us", 8001),
                                        ("enb_decode_us", 9000)])
def test_validate_rejects_harq_timing_beyond_the_round_trip(key, value):
    # these used to fail mid-run (HARQ process already active; a retransmission
    # scheduled in the past); validate only, never run
    cfg = preset("scenario2")
    setattr(cfg, key, value)
    with pytest.raises(ConfigError, match=f"{key} = {value}: .* HARQ round trip"):
        cfg.validate()


@pytest.mark.parametrize("harq, key, value", [(True, "grant_to_data_us", 7999),
                                              (True, "enb_decode_us", 8000),
                                              (False, "grant_to_data_us", 9000),
                                              (False, "enb_decode_us", 9000)])
def test_accepted_harq_timing_runs(harq, key, value):
    cfg = preset("scenario2")
    cfg.harq_enabled = harq
    setattr(cfg, key, value)
    cfg.validate()
    cfg.mode = "both"
    cfg.duration_us = 300 * MS
    report = run_scenario(cfg)
    assert report.deltas


def test_validate_rejects_bad_mode():
    cfg = SimConfig(mode="sideways")
    with pytest.raises(ConfigError):
        cfg.validate()


def test_validate_rejects_eut_out_of_range():
    cfg = SimConfig(enb_count=2, eut_enb=3)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_dump_parse_round_trip(tmp_path):
    cfg = preset("scenario2")
    cfg.seed = 42
    # more than six significant digits in ms and in Mb/s
    cfg.duration_us = 1_234_567
    cfg.upstream_bps = 39_123_456
    text = dump_config(cfg)
    f = tmp_path / "echo.cfg"
    f.write_text(text)
    back = parse_config(str(f))
    assert back == cfg


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


# Only validate() reads these two, but they print in report.txt: deleting them
# waits for the re-record of the benchmark's golden outputs (ROADMAP item 4).
VALIDATED_ONLY = {"cm_count", "cm_proc_us"}


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


def test_ugs_phase_default_is_half_period():
    cfg = SimConfig()
    assert cfg.ugs_phase() == MS
    cfg.ugs_phase_us = 500
    assert cfg.ugs_phase() == 500


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


def test_cli_synth_trace_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    args = ["synth-trace", "--rate-kbps", "1292", "--duration-ms", "10000",
            "--burstiness", "0.5", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_text() == b.read_text()
    out = capsys.readouterr().out
    assert "realized_kbps=" in out
    realized = float(out.rsplit("realized_kbps=", 1)[1].split()[0])
    assert realized == pytest.approx(1292.0, rel=0.02)


def test_cli_synth_trace_burstiness_zero_constant(tmp_path):
    out = tmp_path / "c.trace"
    assert main(["synth-trace", "--rate-kbps", "1000", "--duration-ms", "2000",
                 "--burstiness", "0", "--out", str(out)]) == 0
    sizes = {line.split(",")[1] for line in out.read_text().splitlines()
             if line and not line.startswith("#")}
    assert len(sizes) == 1


def test_cli_synth_trace_unwritable_path(capsys):
    assert main(["synth-trace", "--rate-kbps", "1000", "--duration-ms", "1000",
                 "--out", "/nonexistent-dir/x.trace"]) == 1


def test_cli_print_config(capsys):
    assert main(["print-config", "--preset", "scenario1", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "[simulation]" in out and "seed = 9" in out


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
        parse_config(str(f))
    # a trace file or VoIP traffic does not use the synthetic trace
    trace = tmp_path / "ok.trace"
    trace.write_text("#bwr-trace v1\n0,1000\n33,1000\n")
    SimConfig(traffic_case="video", trace_duration_us=10 * MS,
              trace_path=str(trace)).validate()
    SimConfig(traffic_case="voip", trace_duration_us=10 * MS).validate()


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


def test_cli_synth_trace_zero_frame_period_exit_code(tmp_path, capsys):
    assert main(["synth-trace", "--rate-kbps", "1000", "--duration-ms", "1000",
                 "--frame-period-ms", "0", "--out", str(tmp_path / "x.trace")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: ")
    assert err.count("\n") == 1


def test_cli_harq_timing_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("[lte-system]\ngrant_to_data_ms = 8\n")
    assert main(["run", "--preset", "scenario2", "--config", str(f),
                 "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bwrsim: error: grant_to_data_us = 8000")
    assert err.count("\n") == 1
