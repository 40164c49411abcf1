"""Command-line front end: scenario runs, analytic grant utilization, and
the video trace a run replays."""

from __future__ import annotations

import argparse
import sys

from .config import (MODES, PRESETS, ConfigError, SimConfig, dump_config, parse_config,
                     parse_setting)
from .lte import harq_grant_utilization
from .runner import build_trace, run_scenario
from .traffic import write_trace


def _load_config(args) -> SimConfig:
    """The preset, overridden by the config file, overridden by the flags."""
    settings = dict(PRESETS.get(args.preset, {}))
    if args.config:
        settings.update(parse_config(args.config))
    for key in ("seed", "mode", "duration_ms"):     # [simulation] keys
        text = getattr(args, key, None)
        if text is not None:
            settings.update([parse_setting("simulation", key, text)])
    return SimConfig(**settings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bwrsim",
        description="LTE-over-DOCSIS uplink co-simulator with pipelined "
                    "bandwidth-report scheduling")
    subs = parser.add_subparsers(dest="command", required=True)
    config_args = argparse.ArgumentParser(add_help=False)
    config_args.add_argument("--preset", choices=PRESETS)
    config_args.add_argument("--config", help="config file path")
    config_args.add_argument("--seed")
    run_args = argparse.ArgumentParser(add_help=False, parents=[config_args])
    run_args.add_argument("--mode", choices=MODES)
    run_args.add_argument("--duration-ms")

    p_run = subs.add_parser("run", parents=[run_args],
                            help="run a scenario and emit report + CSVs")
    p_run.add_argument("--out-dir", default="out")

    p_gutil = subs.add_parser("gutil", help="analytic HARQ grant utilization")
    p_gutil.add_argument("n_max", type=int)
    p_gutil.add_argument("bler", type=float)

    p_synth = subs.add_parser("synth-trace", parents=[config_args],
                              help="write the video trace a run replays")
    p_synth.add_argument("--out", required=True)

    subs.add_parser("print-config", parents=[run_args],
                    help="show the effective configuration")

    args = parser.parse_args(argv)
    try:
        if args.command == "gutil":
            print(f"{harq_grant_utilization(args.n_max, args.bler):.4f}")
        elif args.command == "synth-trace":
            cfg = _load_config(args)
            if cfg.traffic_case != "video":
                raise ConfigError(f"traffic_case = {cfg.traffic_case}: a run replays "
                                  f"a trace only in the video case")
            trace = build_trace(cfg)
            write_trace(trace, args.out)
            print(f"records={len(trace.records)} "
                  f"realized_kbps={trace.mean_bitrate_bps() / 1000:.1f}")
        elif args.command == "print-config":
            print(dump_config(_load_config(args)), end="")
        elif args.command == "run":
            report = run_scenario(_load_config(args), args.out_dir)
            print(report.text, end="")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"bwrsim: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
