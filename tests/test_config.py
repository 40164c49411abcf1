import pytest

from bwrsim.cli import main
from bwrsim.config import (ConfigError, SimConfig, dump_config, parse_config,
                           preset)
from bwrsim.core import MS, SEC
from bwrsim.runner import run_single


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
    text = dump_config(cfg)
    f = tmp_path / "echo.cfg"
    f.write_text(text)
    back = parse_config(str(f))
    assert back == cfg


def test_ugs_phase_default_is_half_period():
    cfg = SimConfig()
    assert cfg.ugs_phase() == MS
    cfg.ugs_phase_us = 500
    assert cfg.ugs_phase() == 500


def test_tbs_table_override(tmp_path):
    f = tmp_path / "run.cfg"
    f.write_text("[lte-system]\ntbs_table = 100,200,300,400,500,600,700,800,900\n")
    cfg = parse_config(str(f))
    assert cfg.tbs_dict()[18] == 100 and cfg.tbs_dict()[26] == 900
    f.write_text("[lte-system]\ntbs_table = 1,2,3\n")
    with pytest.raises(ConfigError):
        parse_config(str(f))


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
