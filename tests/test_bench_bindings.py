"""The benchmark's child process (bench/child.py, bench/spans.py) wraps bwrsim
functions and methods by name. A short run of each kind here fails on a
renamed or reshaped binding, or on per-layer self times that no longer add
up. `plain` is the kind whose runs give every end-to-end metric."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
