"""One benchmark run of `bwrsim run --mode both` in a fresh process.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 bench/child.py --preset P --config CFG --seed N --out DIR
        [--kind plain|probe|trace] [--spans PATH] [--c5]

`plain` wraps only `runner.run_single`, `Simulator.run_until` (driven in
50 ms simulated slices, each timed) and `cli.run_scenario` (to keep the
returned report for the checks), and accounts GC pauses through
`gc.callbacks`. `probe` also samples the event heap and the CM queues at
slice boundaries. `trace` adds span tracing of every layer (see spans.py).
`plain` and `probe` runs time at a reference speed (see RefClock); `trace`
runs do not.

Prints one JSON object: timings, correctness checks, output digests and,
for `probe`/`trace`, per-layer figures.
"""

import time
from array import array
from heapq import heappop, heappush

CAL_EVERY_S = 0.05          # host time between two calibrations
CAL_REF_S = 0.0006          # the calibration loop's time at reference speed
MARKS = (array("d"), array("d"))    # start and end of each calibration
_HEAP: list = []
_SUMS: dict = {}
_busy = False


def calibrate(*_) -> None:
    """Run a fixed pure-Python loop and note its start and end. It allocates
    no object the garbage collector tracks, so it moves no collection. A
    timer signal that arrives while it runs is dropped."""
    global _busy
    if _busy:
        return
    _busy = True
    t0 = time.perf_counter()
    for i in range(1200):
        heappush(_HEAP, i * 7919 % 1009)
        _SUMS[i % 61] = _SUMS.get(i % 61, 0) + i
    while _HEAP:
        heappop(_HEAP)
    _SUMS.clear()
    MARKS[0].append(t0)
    MARKS[1].append(time.perf_counter())
    _busy = False


calibrate()
T0 = MARKS[1][0]            # the child's start, before `import bwrsim`

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import sys
from bisect import bisect_right
from statistics import median

SLICE_US = 50_000
MODES = ("baseline", "bwr")


class RefClock:
    """Host time counted at a fixed reference speed.

    The host's speed drifts by up to a half within seconds and over minutes,
    with the other load on the shared machine; a pure-Python loop slows as
    much as the program does. So a timer signal runs `calibrate` every
    CAL_EVERY_S of host time, wherever the program is, and each stretch
    between two calibrations counts at the rate CAL_REF_S / (their local
    duration, a median over five calibrations): the time the stretch would
    have taken at the speed where the loop takes CAL_REF_S. Calibrations
    count in neither clock."""

    def start(self) -> None:
        signal.signal(signal.SIGALRM, calibrate)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        calibrate()
        self.starts, self.ends = (list(m) for m in MARKS)
        durs = [e - s for s, e in zip(self.starts, self.ends)]
        local = [median(durs[max(0, k - 2):k + 3]) for k in range(len(durs))]
        self.rate = [2 * CAL_REF_S / (local[k] + local[k + 1])
                     for k in range(len(durs) - 1)]
        self.cum = {True: [0.0], False: [0.0]}
        for k, rate in enumerate(self.rate):
            gap = self.starts[k + 1] - self.ends[k]
            self.cum[True].append(self.cum[True][-1] + gap * rate)
            self.cum[False].append(self.cum[False][-1] + gap)

    def _at(self, t: float, ref: bool) -> float:
        k = min(bisect_right(self.ends, t) - 1, len(self.rate) - 1)
        gap = min(t, self.starts[k + 1]) - self.ends[k]
        return self.cum[ref][k] + gap * (self.rate[k] if ref else 1.0)

    def span(self, t0: float, t1: float, ref: bool = True) -> float:
        """Time from t0 to t1 at reference speed (ref) or as measured, both
        without calibrations."""
        return self._at(t1, ref) - self._at(t0, ref)


class Probe:
    """Outside wrappers that time each mode's simulation slice by slice."""

    def __init__(self, sample: bool, tracer=None):
        self.sample = sample
        self.tracer = tracer
        self.modes: list[dict] = []
        self.cur: dict | None = None
        self.cm = None
        self.report = None
        self._gc_t = 0.0
        self.full_gc_outside: list[tuple[float, float]] = []  # (start, pause)

    def install(self, core, runner, cli, docsis) -> None:
        pc = time.perf_counter
        run_until = core.Simulator.run_until
        run_single = runner.run_single
        run_scenario = cli.run_scenario
        pending = core.Simulator.pending

        def sliced_run_until(sim, t_end):
            rec = self.cur
            if rec["first_run"] is None:
                rec["first_run"] = pc()
            slices = rec["slices"]
            processed = 0
            while True:
                t = min(t_end, (sim.now // SLICE_US + 1) * SLICE_US)
                t0 = pc()
                processed += run_until(sim, t)
                slices.append((t0, pc()))
                if self.sample:
                    rec["heap_peak"] = max(rec["heap_peak"], pending(sim))
                    queued = sum(f.queue_bytes for f in self.cm.flows.values())
                    rec["cm_queue_peak"] = max(rec["cm_queue_peak"], queued)
                if t >= t_end:
                    break
            rec["run_end"] = pc()
            rec["sim_us"] += t_end
            rec["events"] += processed
            return processed

        def timed_run_single(cfg, mode):
            rec = {"mode": mode, "start": pc(), "first_run": None, "run_end": None,
                   "slices": [], "sim_us": 0, "events": 0, "heap_peak": 0,
                   "cm_queue_peak": 0, "gc_pause_s": 0.0, "gc_gen2": 0}
            self.modes.append(rec)
            self.cur = rec
            if self.tracer is not None:
                self.tracer.run = len(self.modes)
            try:
                return run_single(cfg, mode)
            finally:
                rec["end"] = pc()
                self.cur = None
                if self.tracer is not None:
                    self.tracer.run = 0

        def kept_run_scenario(cfg, out_dir=None):
            self.report = run_scenario(cfg, out_dir)
            return self.report

        core.Simulator.run_until = sliced_run_until
        runner.run_single = timed_run_single
        cli.run_scenario = kept_run_scenario
        gc.callbacks.append(self._on_gc)
        if self.sample:
            cm_init = docsis.Cm.__init__

            def init(cm, *args, **kwargs):
                cm_init(cm, *args, **kwargs)
                self.cm = cm

            docsis.Cm.__init__ = init

    def _on_gc(self, phase, info) -> None:
        if phase == "start":
            self._gc_t = time.perf_counter()
            return
        pause = time.perf_counter() - self._gc_t
        if self.cur is None:
            if info["generation"] == 2:
                self.full_gc_outside.append((self._gc_t, pause))
            return
        self.cur["gc_pause_s"] += pause
        if info["generation"] == 2:
            self.cur["gc_gen2"] += 1

    def remove(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def make_hooks(tracer):
    """Counts taken inside the spans of chosen calls, from counter deltas."""
    count = tracer.count

    def on_subframe(orig):
        def hook(enb):
            c = enb.collector.counters
            before = c.get("lte_granted_bytes", 0)
            orig(enb)
            count("lte.subframe_ticks")
            if c.get("lte_granted_bytes", 0) == before:
                count("lte.idle_ticks")
        return hook

    def on_sr(orig):
        def hook(enb, ue_id):
            count("lte.sr_ladders")
            return orig(enb, ue_id)
        return hook

    def record_tb(orig):
        def hook(collector, *, attempts, success):
            count("lte.tb_attempts", attempts)
            return orig(collector, attempts=attempts, success=success)
        return hook

    def map_cycle(orig):
        def hook(cmts):
            count("docsis.map_cycles")
            return orig(cmts)
        return hook

    def resolve_region(orig):
        def hook(cm, region_index):
            c = cm.collector.counters
            before = (c.get("reqs_delivered", 0), c.get("req_collisions", 0))
            orig(cm, region_index)
            count("docsis.regions")
            if (c.get("reqs_delivered", 0), c.get("req_collisions", 0)) == before:
                count("docsis.empty_regions")
        return hook

    def on_grant(orig):
        def hook(cm, grant, ledger_idx):
            c = cm.collector.counters
            kind = grant.kind
            if kind == "ugs":
                before = c.get("ugs_wasted_bytes", 0)
                orig(cm, grant, ledger_idx)
                used = grant.nbytes - (c.get("ugs_wasted_bytes", 0) - before)
            else:
                before = c.get("docsis_sent_bytes", 0)
                orig(cm, grant, ledger_idx)
                used = c.get("docsis_sent_bytes", 0) - before
            count(f"docsis.grants.{kind}")
            count(f"granted.{kind}", grant.nbytes)
            count(f"used.{kind}", used)
        return hook

    return {"Enb.on_subframe": on_subframe, "Enb.on_sr": on_sr,
            "Collector.record_tb": record_tb, "Cmts.map_cycle": map_cycle,
            "Cm.resolve_region": resolve_region, "Cm.on_grant": on_grant}


def digests(out_dir: str) -> dict:
    """sha256 of every output file; report.txt with the out-dir path masked."""
    out = {}
    for fname in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, fname), "rb") as fh:
            data = fh.read()
        if fname == "report.txt":
            data = data.replace(out_dir.encode(), b"<out>")
        out[fname] = hashlib.sha256(data).hexdigest()
    return out


def p95(values) -> float:
    """Nearest-rank 95th percentile."""
    s = sorted(values)
    return s[max(0, -(-95 * len(s) // 100) - 1)]


def host_times(clock: RefClock, modes: list, t_done: float, ref: bool) -> dict:
    """The end-to-end timings of one run, at reference speed or as measured."""
    span = clock.span
    slices = [span(t0, t1, ref) for rec in modes for t0, t1 in rec["slices"]]
    return {"wall_s": span(T0, t_done, ref),
            "setup_s": span(T0, modes[0]["first_run"], ref),
            "host_s_per_sim_s": sum(slices) / (sum(r["sim_us"] for r in modes) / 1e6),
            "slice_ms_p95": p95(slices) * 1e3,
            "output_s": span(modes[-1]["end"], t_done, ref)}


def check_outputs(report, printed: str, out_dir: str, c5: bool) -> tuple[list, dict]:
    """Correctness gate; returns (failures, model figures)."""
    from bwrsim import metrics
    fails = []
    if report is None or [r.mode for r in report.runs] != list(MODES):
        return ["run_scenario did not return a baseline+bwr report"], {}
    for run in report.runs:
        c = run.conservation()
        if c["admitted"] != (c["ue_buffered"] + c["lte_inflight"]
                             + c["lte_egressed"] + c["harq_dropped"]):
            fails.append(f"{run.mode}: LTE byte conservation {c}")
        if c["lte_egressed"] != c["cm_queued"] + c["docsis_sent"]:
            fails.append(f"{run.mode}: DOCSIS byte conservation {c}")
    base, bwr = (r.collector.retained() for r in report.runs)
    lte_base = {s.packet_id: s.lte_us for s in base}
    paired = mismatched = 0
    for s in bwr:
        b = lte_base.get(s.packet_id)
        if b is not None:
            paired += 1
            mismatched += b != s.lte_us
    if mismatched:
        fails.append(f"cross-mode: {mismatched}/{paired} packets differ in LTE-only latency")
    if paired < 0.99 * min(len(base), len(bwr)):
        fails.append(f"cross-mode: only {paired} of {len(base)}/{len(bwr)} packets paired")
    deltas = report.deltas
    exact = sum(1 for _, _, b, w in deltas if b - w == 4000) / len(deltas) if deltas else 0.0
    if c5 and exact < 0.99:
        fails.append(f"C5: {exact:.4f} of paired DOCSIS deltas are exactly 4 ms (< 0.99)")
    with open(os.path.join(out_dir, "report.txt"), encoding="utf-8") as fh:
        if fh.read() != printed:
            fails.append("printed report differs from report.txt")
    model = {"model.delta_exact_4ms_frac": exact}
    for run in report.runs:
        summ = metrics.summarize(run.eut_samples(), "docsis")
        model[f"model.eut_docsis_avg_ms.{run.mode}"] = summ.avg_ms
        model[f"model.eut_docsis_max_ms.{run.mode}"] = summ.max_ms
    return fails, model


def layer_figures(tracer, probe, output_s: float) -> dict:
    """Per-layer figures of a traced run, per mode where the layer has one."""
    from bwrsim import metrics
    modes = probe.modes
    an = tracer.analyze({"first_single": modes[0]["start"],
                         "last_single_end": modes[-1]["end"]})
    fig = {}
    for r, (rec, run) in enumerate(zip(modes, probe.report.runs), start=1):
        m = rec["mode"]
        counts = {k: v for (rr, k), v in tracer.counts.items() if rr == r}
        c = run.collector.counters
        run_s = an["named"].get((r, "Simulator.run_until"), 0.0)
        self_sum = sum(v for (rr, _), v in an["self"].items() if rr == r)
        if abs(self_sum - run_s) > 1e-6 * max(1.0, run_s):
            raise RuntimeError(f"{m}: layer self times sum to {self_sum}, run_s is {run_s}")
        fig[f"core.run_s.{m}"] = run_s
        layers = ["core", "lte", "docsis", "traffic", "metrics", "runner"]
        if m == "bwr":
            layers.append("bwr")
        for layer in layers:
            fig[f"{layer}.self_s.{m}"] = an["self"].get((r, layer), 0.0)
        fig[f"core.events.{m}"] = rec["events"]
        fig[f"core.heap_peak.{m}"] = rec["heap_peak"]
        fig[f"lte.subframe_ticks.{m}"] = counts.get("lte.subframe_ticks", 0)
        fig[f"lte.idle_ticks.{m}"] = counts.get("lte.idle_ticks", 0)
        fig[f"lte.sr_ladders.{m}"] = counts.get("lte.sr_ladders", 0)
        fig[f"lte.tb_attempts.{m}"] = counts.get("lte.tb_attempts", 0)
        fig[f"lte.grant_util.{m}"] = run.collector.mean_tb_grant_utilization()
        fig[f"docsis.map_cycles.{m}"] = counts.get("docsis.map_cycles", 0)
        fig[f"docsis.map_cycle_s.{m}"] = an["named"].get((r, "Cmts.map_cycle"), 0.0)
        fig[f"docsis.regions.{m}"] = counts.get("docsis.regions", 0)
        fig[f"docsis.empty_regions.{m}"] = counts.get("docsis.empty_regions", 0)
        delivered, collided = c.get("reqs_delivered", 0), c.get("req_collisions", 0)
        fig[f"docsis.req_collision_rate.{m}"] = (
            collided / (delivered + collided) if delivered + collided else 0.0)
        for kind in (("be", "bwr", "ugs") if m == "bwr" else ("be",)):
            fig[f"docsis.grants.{kind}.{m}"] = counts.get(f"docsis.grants.{kind}", 0)
            fig[f"docsis.grant_util.{kind}.{m}"] = metrics.grant_utilization(
                int(counts.get(f"granted.{kind}", 0)), int(counts.get(f"used.{kind}", 0)))
        fig[f"docsis.enqueue_s.{m}"] = an["named"].get((r, "Cm.enqueue_chunks"), 0.0)
        fig[f"docsis.cm_queue_peak.{m}"] = rec["cm_queue_peak"]
        if m == "bwr":
            ugs = counts.get("docsis.grants.ugs", 0)
            fig["bwr.reports_built.bwr"] = c.get("bwr_reports_built", 0)
            fig["bwr.frames_received.bwr"] = c.get("bwr_frames_received", 0)
            fig["bwr.ugs_idle_frac.bwr"] = c.get("ugs_idle_grants", 0) / ugs if ugs else 0.0
        fig[f"traffic.packets.{m}"] = c.get("admitted_packets", 0)
        fig[f"metrics.samples.{m}"] = c.get("egressed_packets", 0)
        fig[f"runner.setup_s.{m}"] = rec["first_run"] - rec["start"]
        fig[f"runner.teardown_s.{m}"] = rec["end"] - rec["run_end"]
        fig[f"config.setup_s.{m}"] = an["config"].get(r, 0.0)
    fig["config.parse_s"] = an["config_parse_s"]
    fig["metrics.post_s"] = an["post_s"]
    fig["runner.output_s"] = output_s - an["post_s"]
    fig["trace.spans"] = an["spans"]
    return fig


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--preset", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--kind", choices=("plain", "probe", "trace"), default="plain")
    ap.add_argument("--spans")
    ap.add_argument("--c5", action="store_true")
    args = ap.parse_args()
    clock = RefClock()
    if args.kind != "trace":    # spans of traced runs stay free of calibrations
        clock.start()

    src = os.path.abspath("src")
    import bwrsim
    if os.path.dirname(os.path.dirname(os.path.abspath(bwrsim.__file__))) != src:
        raise SystemExit(f"bwrsim imported from {bwrsim.__file__}, not from {src}")
    from bwrsim import cli, core, docsis, runner

    tracer = None
    if args.kind == "trace":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer
        tracer = Tracer()
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "bwrsim" or name.startswith("bwrsim.")}
        tracer.install(modules, make_hooks(tracer))
    probe = Probe(sample=args.kind != "plain", tracer=tracer)
    probe.install(core, runner, cli, docsis)

    argv = ["run", "--preset", args.preset, "--config", args.config,
            "--seed", str(args.seed), "--mode", "both", "--out-dir", args.out]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        rc = cli.main(argv)
    t_done = time.perf_counter()
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probe.remove()
    if tracer is not None:
        tracer.uninstall()
    if rc != 0:
        raise SystemExit(f"bwrsim run exited with {rc}")

    fails, model = check_outputs(probe.report, printed.getvalue(), args.out, args.c5)
    modes = probe.modes
    # A full collection sweeps the whole simulated history. Whether one falls
    # in the output phase depends on the seed; output_s keeps it and
    # output_full_gc_s reports it on its own.
    output_full_gc_s = sum(p for t, p in probe.full_gc_outside if t >= modes[-1]["end"])
    raw = host_times(clock, modes, t_done, ref=False)
    result = {
        "kind": args.kind,
        "failures": fails,
        "digests": digests(args.out),
        "model": model,
        **host_times(clock, modes, t_done, ref=True),
        "raw": raw,
        "slices": sum(len(r["slices"]) for r in modes),
        "output_full_gc_s": output_full_gc_s,
        "peak_rss_mb": peak_rss_mb,
        "modes": {r["mode"]: {"run_s": sum(clock.span(t0, t1, False)
                                           for t0, t1 in r["slices"]),
                              "events": r["events"],
                              "sim_s": r["sim_us"] / 1e6, "gc_pause_s": r["gc_pause_s"],
                              "gc_gen2": r["gc_gen2"]} for r in modes},
        "output_bytes": sum(os.path.getsize(os.path.join(args.out, f))
                            for f in os.listdir(args.out)),
    }
    if tracer is not None:
        result["layers"] = layer_figures(tracer, probe, raw["output_s"])
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
