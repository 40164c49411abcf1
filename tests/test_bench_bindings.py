"""The benchmark's child process (bench/child.py, bench/spans.py) wraps bwrsim
functions and methods by name. A short run of each kind here fails on a
renamed or reshaped binding, or on per-layer self times that no longer add
up. `plain` is the kind whose runs give every end-to-end metric."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest

from bwrsim.metrics import Counters

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the counters bench/child.py reads, by name, through `counters.get`
BENCH_COUNTERS = {"lte_granted_bytes", "reqs_delivered", "req_collisions",
                  "ugs_wasted_bytes", "docsis_sent_bytes", "bwr_reports_built",
                  "bwr_frames_received", "ugs_idle_grants", "admitted_packets",
                  "egressed_packets"}


def test_bench_counters_are_declared():
    # an undeclared name raises in the bench's child, so every name it reads
    # must be a field of Counters
    with open(os.path.join(ROOT, "bench", "child.py"), encoding="utf-8") as fh:
        read = set(re.findall(r"\bc\.get\(\"(\w+)\"", fh.read()))
    assert read == BENCH_COUNTERS
    assert read <= {f.name for f in fields(Counters)}


@pytest.mark.parametrize("kind", ["plain", "probe", "trace"])
def test_bench_child_runs_clean(tmp_path, kind):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[simulation]\nduration_ms = 300\n")
    cmd = [sys.executable, os.path.join("bench", "child.py"),
           "--preset", "scenario1", "--config", str(cfg), "--seed", "0",
           "--out", str(tmp_path / "out"), "--kind", kind]
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failures"] == []
    assert result["modes"]["baseline"]["events"] > 0
    if kind == "trace":
        # each count comes from a hook on one named method; a hook whose
        # method is gone leaves its count at 0
        layers = result["layers"]
        for name in ("lte.subframe_ticks", "lte.sr_ladders", "lte.tb_attempts",
                     "docsis.map_cycles", "docsis.regions", "docsis.grants.be"):
            assert layers[f"{name}.baseline"] > 0, name
        # the grant kind travels in the CMTS's demand entry; the bench counts
        # grants by kind, and times the MAP cycle by its method name
        for name in ("docsis.grants.bwr.bwr", "docsis.grants.ugs.bwr",
                     "docsis.map_cycle_s.baseline"):
            assert layers[name] > 0, name
        # figures read from the run's counters
        for name in ("bwr.reports_built.bwr", "bwr.frames_received.bwr",
                     "traffic.packets.baseline", "metrics.samples.baseline"):
            assert layers[name] > 0, name
