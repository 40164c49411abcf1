"""Command-line front end: scenario runs, analytic grant utilization, and
synthetic trace generation."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, SimConfig, dump_config, parse_config, preset
from .lte import harq_grant_utilization
from .runner import run_scenario
from .traffic import synth_video, write_trace


def _load_config(args) -> SimConfig:
    cfg = preset(args.preset) if args.preset else SimConfig()
    if args.config:
        cfg = parse_config(args.config, base=cfg)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.mode is not None:
        cfg.mode = args.mode
    if args.duration_ms is not None:
        cfg.duration_us = round(args.duration_ms * 1000)
    cfg.validate()
    return cfg


def _add_config_args(sub) -> None:
    sub.add_argument("--preset", choices=("scenario1", "scenario2"))
    sub.add_argument("--config", help="config file path")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--mode", choices=("baseline", "bwr", "both"))
    sub.add_argument("--duration-ms", type=float)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bwrsim",
        description="LTE-over-DOCSIS uplink co-simulator with pipelined "
                    "bandwidth-report scheduling")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="run a scenario and emit report + CSVs")
    _add_config_args(p_run)
    p_run.add_argument("--out-dir", default="out")

    p_gutil = subs.add_parser("gutil", help="analytic HARQ grant utilization")
    p_gutil.add_argument("n_max", type=int)
    p_gutil.add_argument("bler", type=float)

    p_synth = subs.add_parser("synth-trace", help="generate a synthetic video trace")
    p_synth.add_argument("--rate-kbps", type=float, required=True)
    p_synth.add_argument("--duration-ms", type=float, required=True)
    p_synth.add_argument("--frame-period-ms", type=float, default=33.0)
    p_synth.add_argument("--burstiness", type=float, default=0.5)
    p_synth.add_argument("--seed", type=int, default=1)
    p_synth.add_argument("--out", required=True)

    p_print = subs.add_parser("print-config", help="show the effective configuration")
    _add_config_args(p_print)

    args = parser.parse_args(argv)
    try:
        if args.command == "gutil":
            print(f"{harq_grant_utilization(args.n_max, args.bler):.4f}")
        elif args.command == "synth-trace":
            trace = synth_video(args.rate_kbps * 1000,
                                round(args.frame_period_ms * 1000),
                                args.burstiness, args.seed,
                                round(args.duration_ms * 1000))
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
