"""Regenerate bench/golden.json and the environment block of bench/meta.json.

Usage, from the repository root of a git checkout:

    python3 bench/record_golden.py [--seeds 0-63] [--workload NAME ...]

Runs each workload once per seed (untraced, through the same child as the
benchmark) and stores the sha256 digest of every output file. Re-record only
when a change is meant to alter simulated results, and say why in that
change.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import BENCH_DIR, WORKLOADS, load_json, run_child  # noqa: E402


def seed_span(table: dict) -> str:
    seeds = [int(s) for s in table]
    return f"{min(seeds)}-{max(seeds)} ({len(seeds)} seeds)"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    golden_path = os.path.join(BENCH_DIR, "golden.json")
    golden = load_json(golden_path)
    for workload in args.workload or sorted(WORKLOADS):
        table = golden.setdefault(workload, {})
        for seed in range(lo, hi + 1):
            r = run_child(workload, seed, "plain", timeout=170)
            if r["failures"]:
                print(f"{workload} seed {seed}: {r['failures']}", file=sys.stderr)
                return 1
            table[str(seed)] = r["digests"]
            print(f"{workload} seed {seed}: {r['wall_s']:.2f} s", flush=True)
        golden[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(golden_path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")

    meta_path = os.path.join(BENCH_DIR, "meta.json")
    meta = load_json(meta_path)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    meta["environment"] = {"nproc": os.cpu_count(),
                           "python": platform.python_version(),
                           "platform": platform.platform(),
                           "git_commit": commit,
                           "golden_seeds": {w: seed_span(t) for w, t in sorted(golden.items())}}
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
