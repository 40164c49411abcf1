"""A catalogue of mutants: small breaks of the program that tier-1 must catch.

Each entry is a file, an exact text in it and its replacement. Run from the
repository root:

    python tests/mutants.py          # every entry
    python tests/mutants.py 0 2      # the entries at these indices

For each entry the script copies the repository (without .git and caches) to
a temporary directory, replaces the text, which must occur exactly once,
and runs tier-1 there with -x. A mutant the suite passes survives. The
script prints each outcome, then the survivors, and exits 1 if any survived.
pytest does not collect this file: its name does not start with test_.
"""

import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    # the channel skips one tick fewer than the reads passed over
    ("src/bwrsim/lte.py",
     "rng.skip(2 * len(self.ues) * (tick - self.ticks))",
     "rng.skip(2 * len(self.ues) * max(0, tick - self.ticks - 1))"),
    # Rng.skip takes one 32-bit word per uniform draw instead of two
    ("src/bwrsim/core.py",
     "            getrandbits(64 * SKIP_CHUNK)\n"
     "            n -= SKIP_CHUNK\n"
     "        getrandbits(64 * n)",
     "            getrandbits(32 * SKIP_CHUNK)\n"
     "            n -= SKIP_CHUNK\n"
     "        getrandbits(32 * n)"),
    # a grant reads the channel only above the largest block
    ("src/bwrsim/lte.py",
     "TBS_MIN = tbs_bytes(MCS_MIN)",
     "TBS_MIN = tbs_bytes(MCS_MAX)"),
    # the MAP at t consumes what came up to half the processing time before t
    ("src/bwrsim/docsis.py",
     "cutoff = t - cfg.cmts_proc_us",
     "cutoff = t - cfg.cmts_proc_us // 2"),
    # an entry delivered exactly at the cutoff waits for the next MAP
    ("src/bwrsim/docsis.py",
     "if arrival <= cutoff and",
     "if arrival < cutoff and"),
    # REQs rank before reports
    ("src/bwrsim/docsis.py",
     "_REPORT_RANK, _REQ_RANK = 0, 1",
     "_REPORT_RANK, _REQ_RANK = 1, 0"),
    # a report build waits until its last entry is due
    ("src/bwrsim/bwr.py",
     "if due[0][0] <= t:",
     "if due[-1][0] <= t:"),
    # the modem's bytes reach the CMTS without the propagation delay
    ("src/bwrsim/docsis.py",
     "self._wire_offset_us = cfg.propagation_us + cfg.cm_framing_us",
     "self._wire_offset_us = cfg.cm_framing_us"),
]

TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".hypothesis", ".bench_build")


def killed(path: str, text: str, replacement: str) -> bool:
    """Whether tier-1 fails on a copy of the repository with the mutant."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = os.path.join(copy, path)
        with open(target, encoding="utf-8") as fh:
            source = fh.read()
        if source.count(text) != 1:
            raise SystemExit(f"{path}: the text occurs {source.count(text)} times: {text!r}")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(source.replace(text, replacement))
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
        lines = (proc.stdout or proc.stderr).strip().splitlines()
        for line in lines:
            if line.startswith("FAILED"):
                print("  " + line)
        print("  " + (lines[-1] if lines else f"exit status {proc.returncode}"))
        return proc.returncode != 0


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    survivors = []
    for i in picked:
        path, text, replacement = MUTANTS[i]
        print(f"[{i}] {path}: {text!r} -> {replacement!r}", flush=True)
        if not killed(path, text, replacement):
            survivors.append(i)
    print("survivors:", survivors or "none")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
