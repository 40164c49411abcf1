"""bwrsim benchmark: runs one workload and prints its metrics.

Usage, from the repository root:

    python3 bench/run.py --workload s1-idle-long --seed 1 --seconds 55 --trace 0

Each workload is one `bwrsim run --mode both` of a preset with a config file
on top. It runs as a closed loop with one client: a fresh child
process (bench/child.py) per run, one after another, until the next run
would end past --seconds. With --trace 0, run i simulates seed
--seed + i % SIM_SEEDS, so that one invocation covers several seeds; with
--trace 1 every run simulates --seed. Every run passes a correctness gate
(golden output digests, byte conservation, the cross-mode LTE invariant, C5
where it applies); a run that fails it counts as failed and its timings are
dropped.

--trace 0 reports the end-to-end metrics, in host seconds at a reference
speed (see RefClock in child.py): each is averaged over the runs of each
seed and then over the seeds, except setup_s and peak_rss_mb, which are
medians over all runs. Each run line also shows its timings as measured.
--trace 1 alternates untraced and span-traced runs and reports the
per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import mean, median

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(".bench_build", "bench")
CHILD_DEADLINE_S = 170      # the whole invocation must end within 180 s
MODES = ("baseline", "bwr")
SIM_SEEDS = 8               # consecutive simulation seeds per --trace 0 invocation

# Why each workload exists is recorded in BENCHMARK.json and bench/meta.json.
WORKLOADS = {
    "s1-idle-long": {
        "preset": "scenario1",
        "config": "[simulation]\nduration_ms = 40000\n",
        "c5": True,
    },
    "s2-loaded": {
        "preset": "scenario2",
        "config": "[simulation]\nduration_ms = 8000\n",
        "c5": False,
    },
}
END_TO_END = ("wall_s", "host_s_per_sim_s", "slice_ms_p95", "setup_s",
              "output_s", "peak_rss_mb")


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_child(workload: str, seed: int, kind: str, timeout: float) -> dict:
    """One fresh process running the workload once; returns its JSON result."""
    wl = WORKLOADS[workload]
    work = os.path.join(WORK_DIR, workload)
    os.makedirs(work, exist_ok=True)
    cfg = os.path.join(work, "workload.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write(wl["config"])
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"),
           "--preset", wl["preset"], "--config", cfg, "--seed", str(seed),
           "--out", out, "--kind", kind]
    if kind == "trace":
        cmd += ["--spans", os.path.join(work, "spans")]
    if wl["c5"]:
        cmd.append("--c5")
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   p for p in (os.path.abspath("src"), os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "failures": [f"timed out after {timeout:.0f} s"],
                "elapsed": time.perf_counter() - t0}
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"kind": kind, "elapsed": elapsed,
                "failures": [f"child exited {proc.returncode}: " + " | ".join(tail)]}
    result = json.loads(lines[-1])
    result["elapsed"] = elapsed
    return result


def gate(results: list, golden: dict) -> None:
    """Add digest failures: each run must match the golden table for its
    seed, or, for a seed not in it, the first passing run of that seed in
    this invocation (traced runs included)."""
    first = {}
    for r in results:
        if r["failures"]:
            continue
        ref = golden.get(str(r["seed"])) or first.setdefault(r["seed"], r["digests"])
        if r["digests"] != ref:
            bad = sorted(k for k in set(ref) | set(r["digests"])
                         if ref.get(k) != r["digests"].get(k))
            source = "golden" if str(r["seed"]) in golden else "first run of the seed"
            r["failures"].append(f"output digests differ from {source}: {bad}")


def end_to_end(ok: list) -> dict:
    """Each figure is averaged over the runs of each seed, then over the
    seeds, except setup_s and peak_rss_mb, which are medians over all runs.
    Whether a full collection of the simulated history falls in the output
    phase depends on the seed, which makes output_s bimodal over seeds; the
    mean over SIM_SEEDS seeds counts that pause at its rate."""
    seeds = sorted({r["seed"] for r in ok})
    figs = {name: mean(mean(r[name] for r in ok if r["seed"] == s) for s in seeds)
            for name in ("wall_s", "host_s_per_sim_s", "slice_ms_p95", "output_s")}
    figs["setup_s"] = median(r["setup_s"] for r in ok)
    figs["peak_rss_mb"] = median(r["peak_rss_mb"] for r in ok)
    return figs


def per_layer(traced: list, probed: list) -> dict:
    if not traced or not probed:
        return {}
    figs = {}
    for name in traced[0]["layers"]:
        figs[name] = median([r["layers"][name] for r in traced])
    for m in MODES:
        figs[f"core.events_per_s.{m}"] = median(
            [r["modes"][m]["events"] / r["modes"][m]["run_s"] for r in probed])
        figs[f"proc.gc_pause_s.{m}"] = median([r["modes"][m]["gc_pause_s"] for r in probed])
        figs[f"proc.gc_gen2.{m}"] = median([r["modes"][m]["gc_gen2"] for r in probed])
    figs["proc.output_full_gc_s"] = median([r["output_full_gc_s"] for r in probed])
    figs["runner.output_bytes"] = probed[0]["output_bytes"]
    figs.update(probed[0]["model"])
    # Traced runs are not calibrated (see child.py), so both sides as measured.
    figs["trace.overhead_frac"] = (median([r["raw"]["host_s_per_sim_s"] for r in traced])
                                   / median([r["raw"]["host_s_per_sim_s"] for r in probed]) - 1)
    return figs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_start = time.perf_counter()

    if not os.path.isfile(os.path.join("src", "bwrsim", "__init__.py")):
        print("bench: src/bwrsim not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = load_json("BENCHMARK.json")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    golden = load_json(os.path.join(BENCH_DIR, "golden.json")).get(args.workload, {})
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} nproc={os.cpu_count()} python={platform.python_version()} "
          f"platform={platform.platform()}")

    # Byte-compile once so that no timed run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/bwrsim", BENCH_DIR],
                   check=True, stdout=subprocess.DEVNULL)

    kinds = ("probe", "trace") if args.trace else ("plain",)
    min_runs = 2 if args.trace else SIM_SEEDS
    results, last = [], {}
    t_loop = time.perf_counter()
    while True:
        kind = kinds[len(results) % len(kinds)]
        elapsed = time.perf_counter() - t_loop
        left = CHILD_DEADLINE_S - (time.perf_counter() - t_start)
        if len(results) >= min_runs and elapsed + last.get(kind, 0) > args.seconds:
            break
        if left < last.get(kind, 0) or left <= 1:
            break
        seed = args.seed + (0 if args.trace else len(results) % SIM_SEEDS)
        r = run_child(args.workload, seed, kind, left)
        r["seed"] = seed
        last[kind] = r["elapsed"]
        results.append(r)
        if r["failures"] and r["failures"][0].startswith("timed out"):
            break
    gate(results, golden)

    for i, r in enumerate(results):
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        timing = "" if r["failures"] else " ".join(
            f"{k}={r[k]:.4f}" for k in END_TO_END) + " as measured: " + " ".join(
            f"{k}={v:.4f}" for k, v in r["raw"].items())
        print(f"run {i + 1} [{r['kind']} seed {r['seed']}] {r['elapsed']:.2f}s {timing} {status}")
    seeds = sorted({r["seed"] for r in results})
    unchecked = [s for s in seeds if str(s) not in golden]
    print(f"  golden digests: checked for seeds {[s for s in seeds if s not in unchecked]}"
          + (f"; NOT checked for seeds {unchecked} (not in golden.json), which are"
             " only checked against their first run here" if unchecked else ""))

    ok = [r for r in results if not r["failures"]]
    if args.trace:
        figs = per_layer([r for r in ok if r["kind"] == "trace"],
                         [r for r in ok if r["kind"] == "probe"])
    else:
        figs = end_to_end(ok) if ok else {}
    metrics = {}
    for m in listed:
        value = figs.get(m["name"])
        if value is not None:
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:40s} {value:>16.6g} {m['unit']}")
    for name in figs.keys() - {m["name"] for m in listed}:
        print(f"  {name:40s} {figs[name]:>16.6g} (not a listed metric)")
    failed = len(results) - len(ok)
    correct = failed == 0 and len(metrics) == len(listed)
    print(f"  runs attempted={len(results)} failed={failed} correct={correct}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
